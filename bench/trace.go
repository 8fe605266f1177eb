package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"viewmat/internal/client"
	"viewmat/internal/core"
	"viewmat/internal/exec"
	"viewmat/internal/proto"
	"viewmat/internal/server"
	"viewmat/internal/storage"
	"viewmat/internal/wal"
)

// A traced run (-trace 1) shares its --seconds between the untraced
// child-process run and four in-process passes. The in-process passes
// run fixed op counts derived from the workload's nominal throughput,
// not fixed durations: with one client and a fixed stream every count
// they report repeats exactly.
const (
	mainShare   = 0.4  // the untraced child-process run
	tracedShare = 0.2  // pass A; pass B replays the same op count faster
	scaleShare  = 0.08 // each of the one- and two-client scaling passes

	// protoSamples caps how many ops have their captured frames
	// replayed through the codec; the replay costs about as much as
	// the op.
	protoSamples = 300

	checkpointSamples = 5
)

// span is one timed interval of one request. Spans of a request share
// req, the op's index in the stream; parent names the enclosing span.
type span struct {
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  string `json:"parent"`
}

// tracer keeps spans in memory until the run ends. It is switched on
// only around the measured ops, so set-up traffic leaves no spans.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	on    bool
	req   int
	spans []span
	bytes map[string]int64 // bytes written, by device span name
}

func newTracer() *tracer { return &tracer{t0: time.Now(), bytes: map[string]int64{}} }

func (t *tracer) set(on bool, req int) {
	t.mu.Lock()
	t.on, t.req = on, req
	t.mu.Unlock()
}

// add records a span for the current request if tracing is on.
func (t *tracer) add(name, parent string, start, end time.Time, bytes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	t.spans = append(t.spans, span{Req: t.req, Name: name, StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0)), Parent: parent})
	t.bytes[name] += int64(bytes)
}

// record appends a span the harness timed itself.
func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durationsUs returns the durations of every span called name, in
// microseconds.
func (t *tracer) durationsUs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e3)
		}
	}
	return out
}

// timingDevice decorates a durability device: writes and syncs become
// spans under the request being served; every call passes through
// unchanged.
type timingDevice struct {
	storage.Device
	tr    *tracer
	layer string // "wal" or "snap"
}

func (d *timingDevice) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := d.Device.WriteAt(p, off)
	d.tr.add(d.layer+".write", "server.residence", start, time.Now(), n)
	return n, err
}

func (d *timingDevice) Sync() error {
	start := time.Now()
	err := d.Device.Sync()
	d.tr.add(d.layer+".sync", "server.residence", start, time.Now(), 0)
	return err
}

// exchange is one request/response pair as the server's side of the
// connection saw it: the raw frames, and the time from the request's
// first byte arriving to the response's last byte written — the
// request's residence in the server.
type exchange struct {
	req, resp  []byte
	start, end time.Time
}

// timingListener hands out connections that report every exchange on
// out while capture is set. The protocol is strict request/response, so
// the first read after a write starts a new request.
type timingListener struct {
	net.Listener
	capture atomic.Bool
	out     chan exchange
}

func (l *timingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &timingConn{Conn: c, l: l}, nil
}

// timingConn is used by one server goroutine only, like the net.Conn it
// wraps.
type timingConn struct {
	net.Conn
	l     *timingListener
	req   []byte
	start time.Time
}

func (c *timingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.l.capture.Load() {
		if len(c.req) == 0 {
			c.start = time.Now()
		}
		c.req = append(c.req, p[:n]...)
	}
	return n, err
}

func (c *timingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if len(c.req) > 0 && c.l.capture.Load() {
		c.l.out <- exchange{req: c.req, resp: append([]byte(nil), p[:n]...), start: c.start, end: time.Now()}
		c.req = nil
	}
	return n, err
}

// engine is an in-process durable engine configured like the child
// viewmatd, on real files under dir.
type engine struct {
	db     *core.Database
	closer func()
}

// newEngine mirrors cmd/viewmatd's fresh-engine path. wrap decorates
// the two durability devices (identity for untraced engines).
func newEngine(dir string, wrap func(dev storage.Device, layer string) storage.Device) (*engine, error) {
	walDev, err := wal.OpenFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		return nil, err
	}
	snapDev, err := wal.OpenFile(filepath.Join(dir, "snapshots.log"))
	if err != nil {
		walDev.Close()
		return nil, err
	}
	e := &engine{closer: func() { walDev.Close(); snapDev.Close() }}
	e.db = core.NewDatabase(core.Options{PageSize: pageSize, PoolFrames: poolFrames, MaxRefreshWorkers: 4})
	if err := e.db.EnableDurability(wrap(walDev, "wal"), wrap(snapDev, "snap"), core.DurabilityOptions{CheckpointEvery: checkpointEvery}); err != nil {
		e.closer()
		return nil, err
	}
	return e, nil
}

// serve starts internal/server over e on lis and returns the function
// that stops it and waits for it.
func (e *engine) serve(lis net.Listener) (stop func()) {
	srv := server.New(e.db, server.Config{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(lis) // Kill below is the only way out; its nil is not news
	}()
	return func() { srv.Kill(); <-done }
}

// tracedRun is what the in-process passes of one -trace run share.
type tracedRun struct {
	w       *workload
	seed    int64
	seconds float64
	dir     string // scratch directory for the engines' files
	pr      *prober
	res     *result
	tr      *tracer
	rounds  int // rounds of pass A, replayed by pass B
}

// fail records a failed check of the traced run.
func (t *tracedRun) fail(format string, args ...any) {
	t.res.failed++
	if t.res.firstErr == nil {
		t.res.firstErr = fmt.Errorf(format, args...)
	}
}

// count adds a pass's ops and failures to the run's result.
func (t *tracedRun) count(ph *phase) {
	t.res.attempted += ph.ops
	t.res.failed += ph.failed
	if t.res.firstErr == nil {
		t.res.firstErr = ph.err
	}
}

func (t *tracedRun) isHeadline(c opClass) bool { return c == t.w.headline }

// runTraced runs the in-process passes and adds their metrics to res.
func runTraced(root string, w *workload, seed int64, seconds float64, res *result) error {
	dir, err := os.MkdirTemp(outDir(root), "trace-")
	if err != nil {
		return err
	}
	onExit(func() { os.RemoveAll(dir) })
	defer os.RemoveAll(dir)
	pr, err := newProber(dir)
	if err != nil {
		return err
	}
	defer pr.close()

	t := &tracedRun{w: w, seed: seed, seconds: seconds, dir: dir, pr: pr, res: res, tr: newTracer()}
	t.rounds = streamRounds(seconds * tracedShare)
	tracedP50, err := t.passA()
	if err != nil {
		return fmt.Errorf("pass A: %w", err)
	}
	engB, shB, err := t.passB()
	if err != nil {
		return fmt.Errorf("pass B: %w", err)
	}
	defer engB.closer()
	if err := t.scaling(engB, shB, tracedP50); err != nil {
		return fmt.Errorf("scaling passes: %w", err)
	}
	return writeSpans(root, w, seed, t.tr.spans)
}

// engineIn creates an engine on files in a fresh subdirectory of the
// run's scratch directory.
func (t *tracedRun) engineIn(sub string, wrap func(storage.Device, string) storage.Device) (*engine, error) {
	dir := filepath.Join(t.dir, sub)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	return newEngine(dir, wrap)
}

// codecTimes collects the replayed codec durations, in microseconds.
type codecTimes struct{ reqEnc, reqDec, respEnc, respDec []float64 }

// replayCodec pushes one op's captured frames through internal/proto
// both ways, timing each of the four conversions as a span.
func (t *tracedRun) replayCodec(ex exchange, req int, into *codecTimes) {
	timed := func(name string, dst *[]float64, fn func() error) {
		start := time.Now()
		err := fn()
		end := time.Now()
		if err != nil {
			t.fail("replaying %s of op %d: %v", name, req, err)
			return
		}
		*dst = append(*dst, float64(end.Sub(start))/1e3)
		t.tr.record(span{Req: req, Name: name, StartNs: int64(start.Sub(t.tr.t0)), EndNs: int64(end.Sub(t.tr.t0))})
	}
	var request *proto.Request
	var response *proto.Response
	var sink bytes.Buffer
	timed("proto.req_decode", &into.reqDec, func() (err error) { request, err = proto.ReadRequest(bytes.NewReader(ex.req)); return })
	timed("proto.resp_decode", &into.respDec, func() (err error) { response, err = proto.ReadResponse(bytes.NewReader(ex.resp)); return })
	if request == nil || response == nil {
		return
	}
	timed("proto.req_encode", &into.reqEnc, func() error { return proto.WriteRequest(&sink, request) })
	sink.Reset()
	timed("proto.resp_encode", &into.respEnc, func() error { return proto.WriteResponse(&sink, response) })
}

// passA drives one client through internal/server in this process, on a
// listener and durability devices that timestamp what crosses them. It
// yields the client/proto/server/wal layer metrics and returns the
// traced headline p50 (ms at reference speed).
func (t *tracedRun) passA() (float64, error) {
	w, tr, m := t.w, t.tr, t.res.metrics
	eng, err := t.engineIn("a", func(dev storage.Device, layer string) storage.Device {
		return &timingDevice{Device: dev, tr: tr, layer: layer}
	})
	if err != nil {
		return 0, err
	}
	defer eng.closer()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	tl := &timingListener{Listener: lis, out: make(chan exchange, 1)}
	defer eng.serve(tl)()
	conn, err := client.Dial(lis.Addr().String())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	sh := newShadow(w.n)
	if _, err := load(wireBackend{conn}, w, sh, nil); err != nil {
		return 0, err
	}
	d := newDriver(0, wireBackend{conn}, t.seed)
	runAll(w, sh, []*driver{d}, w.warmOps)
	d.samples = nil

	var residenceUs, wireUs []float64 // headline class
	var codec codecTimes
	var reqBytes, respBytes int64
	d.before = func(d *driver, _ op) { tr.set(true, d.next) }
	d.after = func(d *driver, o op) {
		var ex exchange
		select {
		case ex = <-tl.out:
		case <-time.After(5 * time.Second):
			// The op failed before the server wrote an answer; the driver
			// has counted it.
			tr.set(false, 0)
			return
		}
		tr.set(false, 0)
		call := d.samples[len(d.samples)-1]
		tr.record(span{Req: d.next, Name: "client.call", StartNs: int64(call.start.Sub(tr.t0)), EndNs: int64(call.end.Sub(tr.t0))})
		tr.record(span{Req: d.next, Name: "server.residence", StartNs: int64(ex.start.Sub(tr.t0)), EndNs: int64(ex.end.Sub(tr.t0)), Parent: "client.call"})
		reqBytes += int64(len(ex.req))
		respBytes += int64(len(ex.resp))
		if !t.isHeadline(o.class) {
			return
		}
		residence := float64(ex.end.Sub(ex.start)) / 1e3
		residenceUs = append(residenceUs, residence)
		wireUs = append(wireUs, float64(call.end.Sub(call.start))/1e3-residence)
		if len(codec.reqDec) < protoSamples {
			t.replayCodec(ex, d.next, &codec)
		}
	}
	tl.capture.Store(true)
	ph, err := runRounds(w, sh, []*driver{d}, roundOps(w), t.rounds, t.pr)
	tl.capture.Store(false)
	if err != nil {
		return 0, err
	}
	t.count(ph)
	speed := wallSpeed(ph.probes, w.disk)
	ops, commits := float64(ph.ops), float64(ph.commits())

	cpuSp := cpuSpeed(ph.probes) // the codec never waits for the disk
	m["proto.req_encode_us"] = median(codec.reqEnc) / cpuSp
	m["proto.req_decode_us"] = median(codec.reqDec) / cpuSp
	m["proto.resp_encode_us"] = median(codec.respEnc) / cpuSp
	m["proto.resp_decode_us"] = median(codec.respDec) / cpuSp
	m["proto.req_bytes_per_op"] = float64(reqBytes) / ops
	m["proto.resp_bytes_per_op"] = float64(respBytes) / ops
	m["client.wire_us"] = median(wireUs) / speed
	m["server.residence_us"] = median(residenceUs) / speed

	perCommit := func(x float64) float64 { return ratio(x, commits) }
	walWrites, walSyncs := tr.durationsUs("wal.write"), tr.durationsUs("wal.sync")
	m["wal.appends_per_commit"] = perCommit(float64(len(walWrites)))
	m["wal.syncs_per_commit"] = perCommit(float64(len(walSyncs)))
	m["wal.bytes_per_commit"] = perCommit(float64(tr.bytes["wal.write"]))
	m["wal.write_us"] = median(walWrites) / speed
	m["wal.sync_us"] = median(walSyncs) / speed
	m["snap.bytes_per_commit"] = perCommit(float64(tr.bytes["snap.write"]))
	m["snap.syncs_per_commit"] = perCommit(float64(len(tr.durationsUs("snap.sync"))))
	if commits == 0 && len(walWrites) > 0 {
		t.fail("%d WAL appends on a workload that commits nothing", len(walWrites))
	}
	return median(ph.latenciesMs(t.isHeadline)) / speed, nil
}

// ratio is a/b, or 0 where the workload has no b.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// planTotals sums what the plan observer saw on query and refresh
// paths.
type planTotals struct {
	mu                            sync.Mutex
	queries, refreshes            int64
	scanned, out, batches, pruned int64
}

func (p *planTotals) observe(_, path string, root *exec.PlanNode, _ storage.Stats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch path {
	case core.PlanPathQuery:
		p.queries++
		p.out += root.Stats.RowsOut
		p.walk(root)
	case core.PlanPathRefresh:
		p.refreshes++
	}
}

func (p *planTotals) walk(n *exec.PlanNode) {
	p.batches += n.Stats.Batches
	p.pruned += n.Stats.Pruned
	if len(n.Children) == 0 {
		p.scanned += n.Stats.RowsOut
	}
	for _, c := range n.Children {
		p.walk(c)
	}
}

// passB replays pass A's stream by direct engine calls on a fresh
// identical engine with the plan observer installed. It yields the
// core/exec/storage/hr/costmodel layer metrics and returns the engine
// and its shadow for the scaling passes; the caller closes the engine.
func (t *tracedRun) passB() (_ *engine, _ *shadow, err error) {
	w, m := t.w, t.res.metrics
	eng, err := t.engineIn("b", func(dev storage.Device, _ string) storage.Device { return dev })
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			eng.closer()
		}
	}()
	db := eng.db
	sh := newShadow(w.n)
	if _, err := load(engineBackend{db}, w, sh, nil); err != nil {
		return nil, nil, err
	}
	d := newDriver(0, engineBackend{db}, t.seed)
	runAll(w, sh, []*driver{d}, w.warmOps)
	d.samples = nil
	db.ResetStats()

	var plans planTotals
	db.SetPlanObserver(plans.observe)
	var adLenSum, adLenN float64
	d.before = func(_ *driver, o op) {
		if h, ok := db.HR(relR); ok && o.class.isQuery() {
			adLenSum += float64(h.ADLen())
			adLenN++
		}
	}
	ph, err := runRounds(w, sh, []*driver{d}, roundOps(w), t.rounds, t.pr)
	db.SetPlanObserver(nil)
	if err != nil {
		return nil, nil, err
	}
	t.count(ph)
	speed := wallSpeed(ph.probes, w.disk)
	ops := float64(ph.ops)
	for i, s := range ph.samples {
		t.tr.record(span{Req: d.next - len(ph.samples) + i, Name: "core.op", StartNs: int64(s.start.Sub(t.tr.t0)), EndNs: int64(s.end.Sub(t.tr.t0))})
	}
	usOf := func(keep func(opClass) bool) float64 { return median(ph.latenciesMs(keep)) * 1e3 / speed }
	m["core.op_us"] = usOf(t.isHeadline)
	m["core.query_us"] = usOf(opClass.isQuery)
	m["core.commit_us"] = usOf(func(c opClass) bool { return c == classCommit })
	m["server.overhead_us"] = m["server.residence_us"] - m["core.op_us"] - m["proto.req_decode_us"] - m["proto.resp_encode_us"]

	meter := db.Meter().Snapshot()
	total := modelMs(meter) / ops
	m["core.model_ms_per_op"] = total
	m["storage.page_reads_per_op"] = float64(meter.Reads) / ops
	m["storage.page_writes_per_op"] = float64(meter.Writes) / ops
	m["storage.screens_per_op"] = float64(meter.Screens) / ops
	m["storage.ad_touches_per_op"] = float64(meter.ADTouches) / ops
	phaseSum := 0.0
	breakdown := db.Breakdown()
	for _, p := range []core.Phase{core.PhaseQuery, core.PhaseScreen, core.PhaseCommitWrite, core.PhaseImmRefresh, core.PhaseADRead, core.PhaseDefRefresh, core.PhaseFold} {
		v := modelMs(breakdown[p]) / ops
		m["core.phase."+string(p)+".model_ms_per_op"] = v
		phaseSum += v
	}
	if math.Abs(phaseSum-total) > 0.01*total {
		t.fail("phase terms sum to %.3f ms/op, the meter says %.3f", phaseSum, total)
	}

	queries := float64(plans.queries)
	m["core.refreshes_per_query"] = ratio(float64(plans.refreshes), queries)
	m["core.delta_scans_per_refresh"] = ratio(float64(db.DeltaScanCount()), float64(plans.refreshes))
	m["exec.rows_scanned_per_row_out"] = ratio(float64(plans.scanned), float64(plans.out))
	m["exec.batches_per_query"] = ratio(float64(plans.batches), queries)
	m["colpage.pages_pruned_per_query"] = ratio(float64(db.PagesPruned()), queries)
	queryUs := 0.0
	for _, l := range ph.latenciesMs(opClass.isQuery) {
		queryUs += l * 1e3
	}
	m["exec.scan_us_per_krow"] = ratio(queryUs/speed, float64(plans.scanned)/1e3)
	m["hr.ad_scans_per_query"] = ratio(float64(db.ADScanCount()), queries)
	m["hr.ad_len_at_query"] = ratio(adLenSum, adLenN)
	if w.headline == classScan {
		// The scan must be real: zone maps may prune, but not
		// everything.
		if r, ok := db.Relation(relR); ok && m["storage.page_reads_per_op"] < 0.4*float64(r.Pages()) {
			t.fail("scan read %.1f pages per query of %d: pruned away", m["storage.page_reads_per_op"], r.Pages())
		}
	}
	predicted := predictedMsPerOp(w)
	m["costmodel.predicted_ms_per_op"] = predicted
	m["costmodel.drift"] = total / predicted

	var ckptMs []float64
	for i := 0; i < checkpointSamples; i++ {
		start := time.Now()
		if err := db.Checkpoint(); err != nil {
			return nil, nil, fmt.Errorf("checkpoint: %w", err)
		}
		ckptMs = append(ckptMs, float64(time.Since(start))/1e6)
	}
	m["core.checkpoint_ms"] = median(ckptMs) / speed
	return eng, sh, nil
}

// scaling serves pass B's engine through a plain in-process server and
// runs one client, then two. The ratio of the two throughputs says how
// much of an op is serial (lock, fsync); the one-client p50 against
// pass A's is what the tracing cost.
func (t *tracedRun) scaling(eng *engine, sh *shadow, tracedP50 float64) error {
	w, m := t.w, t.res.metrics
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer eng.serve(lis)()
	var ds [clients]*driver
	for c := range ds {
		conn, err := client.Dial(lis.Addr().String())
		if err != nil {
			return err
		}
		defer conn.Close()
		// A fresh seed: the shadow tracks the engine's state, so any
		// stream is valid on it.
		ds[c] = newDriver(c, wireBackend{conn}, t.seed+1)
	}
	var rate [clients]float64
	var untracedP50 float64
	for n := 1; n <= clients; n++ {
		ph, err := runRounds(w, sh, ds[:n], roundOps(w), streamRounds(t.seconds*scaleShare), t.pr)
		if err != nil {
			return err
		}
		t.count(ph)
		speed := wallSpeed(ph.probes, w.disk)
		rate[n-1] = float64(ph.ops) / ph.wall.Seconds() * speed
		if n == 1 {
			untracedP50 = median(ph.latenciesMs(t.isHeadline)) / speed
		}
	}
	m["server.scaling_c2_over_c1"] = rate[clients-1] / rate[0]
	m["trace.overhead_pct"] = 100 * (tracedP50 - untracedP50) / untracedP50
	return nil
}

// writeSpans writes the span file bench/out/trace-<workload>.json.
func writeSpans(root string, w *workload, seed int64, spans []span) error {
	path := filepath.Join(outDir(root), "trace-"+w.name+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, seed, spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(spans), path)
	return nil
}
