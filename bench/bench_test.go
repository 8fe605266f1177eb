package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"viewmat/internal/client"
	"viewmat/internal/storage"
	"viewmat/internal/wal"
)

// tiny returns a copy of the named workload at a size the race detector
// can load in a fraction of a second.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	small := *w
	small.n = 400
	small.warmOps = 4
	return &small
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		if streamHash(w, 7, 300) != streamHash(w, 7, 300) {
			t.Errorf("%s: same seed, different op stream", w.name)
		}
		if w.name != "scan-qm" && streamHash(w, 7, 300) == streamHash(w, 8, 300) {
			t.Errorf("%s: seeds 7 and 8 give the same op stream", w.name)
		}
	}
}

func TestCommitsStayInTheClientsOwnBlocksAndSumToZero(t *testing.T) {
	w := tiny(t, "commit-imm")
	bl := w.n / blocks
	for c := 0; c < clients; c++ {
		rng := opRand(3, c)
		for i := 0; i < 500; i++ {
			o := w.gen(w, rng, c, i)
			var inView, outOfView int64
			seen := map[int64]bool{}
			for j, k := range o.keys {
				if int(k/bl)%clients != c {
					t.Fatalf("client %d updates key %d of block %d", c, k, k/bl)
				}
				if seen[k] {
					t.Fatalf("key %d twice in one transaction", k)
				}
				seen[k] = true
				if k < w.n/2 {
					inView += o.deltas[j]
				} else {
					outOfView += o.deltas[j]
				}
			}
			if inView != 0 || outOfView != 0 {
				t.Fatalf("transaction moves SUM(p): in-view %+d, out-of-view %+d", inView, outOfView)
			}
		}
	}
}

func TestPercentilesAndQuartiles(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// With 1000 samples the highest percentile with ten beyond it is
	// rank 989 of 0..999.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i)
	}
	if v, pct := pmax10(big); v != 989 || math.Abs(pct-99) > 0.01 {
		t.Errorf("pmax10 = %v at p%v, want 989 at p99", v, pct)
	}
}

func TestReferenceSpeedArithmetic(t *testing.T) {
	if s := wallSpeedFrom(sortRefMs, pingRefMs, syncRefMs, 0.3); s != 1 {
		t.Errorf("speed at the reference durations = %v, want 1", s)
	}
	// Every kernel 21 % slower: the machine is 1.21× slow, and a 12.1 ms
	// latency measured then is 10 ms at reference speed.
	s := wallSpeed([]probeSample{{sortRefMs * 1.21, pingRefMs * 1.21, syncRefMs * 1.21}}, 0.3)
	if math.Abs(s-1.21) > 1e-12 {
		t.Errorf("speed = %v, want 1.21", s)
	}
	if ms := 12.1 / s; math.Abs(ms-10) > 1e-9 {
		t.Errorf("12.1 ms at speed %v = %v ms at reference, want 10", s, ms)
	}
	// One CPU kernel alone slowing by 21 % is a 10 % slowdown of CPU
	// time, whatever the disk does.
	if s := cpuSpeed([]probeSample{{sortRefMs * 1.21, pingRefMs, syncRefMs * 3}}); math.Abs(s-1.1) > 1e-12 {
		t.Errorf("cpu speed = %v, want 1.1", s)
	}
	// The disk alone at 4× its latency slows work that waits for it half
	// its time by 2×, and work that never waits for it not at all.
	slowDisk := []probeSample{{sortRefMs, pingRefMs, syncRefMs * 4}}
	if s := wallSpeed(slowDisk, 0.5); math.Abs(s-2) > 1e-12 {
		t.Errorf("wall speed at disk share 0.5 = %v, want 2", s)
	}
	if s := wallSpeed(slowDisk, 0); s != 1 {
		t.Errorf("wall speed at disk share 0 = %v, want 1", s)
	}
}

func TestProbeRuns(t *testing.T) {
	pr, err := newProber(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer pr.close()
	s, err := pr.sample()
	if err != nil {
		t.Fatal(err)
	}
	if s.sortMs <= 0 || s.pingMs <= 0 || s.syncMs <= 0 {
		t.Errorf("probe sample %+v has a non-positive duration", s)
	}
}

func TestTimingDevicePassesCallsThrough(t *testing.T) {
	dir := t.TempDir()
	plain, err := wal.OpenFile(filepath.Join(dir, "plain"))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	under, err := wal.OpenFile(filepath.Join(dir, "timed"))
	if err != nil {
		t.Fatal(err)
	}
	defer under.Close()
	tr := newTracer()
	tr.set(true, 42)
	timed := &timingDevice{Device: under, tr: tr, layer: "wal"}

	for _, dev := range []storage.Device{plain, timed} {
		if n, err := dev.WriteAt([]byte("hello, log"), 3); n != 10 || err != nil {
			t.Fatalf("WriteAt = %d, %v", n, err)
		}
		if err := dev.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := dev.Truncate(9); err != nil {
			t.Fatal(err)
		}
	}
	for _, dev := range []storage.Device{plain, timed} {
		size, err := dev.Size()
		if size != 9 || err != nil {
			t.Fatalf("Size = %d, %v, want 9", size, err)
		}
		buf := make([]byte, 6)
		if _, err := dev.ReadAt(buf, 3); err != nil || string(buf) != "hello," {
			t.Fatalf("ReadAt = %q, %v", buf, err)
		}
	}
	if got := len(tr.spans); got != 2 {
		t.Fatalf("%d spans, want a write and a sync", got)
	}
	if s := tr.spans[0]; s.Name != "wal.write" || s.Req != 42 || s.Parent != "server.residence" || s.EndNs < s.StartNs {
		t.Errorf("write span %+v", s)
	}
	if tr.bytes["wal.write"] != 10 {
		t.Errorf("wal.write bytes = %d, want 10", tr.bytes["wal.write"])
	}
	tr.set(false, 0)
	if _, err := timed.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if len(tr.spans) != 2 {
		t.Error("a span was recorded with tracing off")
	}
}

func TestTimingConnPassesBytesThroughAndReportsTheExchange(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := &timingListener{Listener: lis, out: make(chan exchange, 1)}
	defer tl.Close()
	tl.capture.Store(true)

	echoed := make(chan error, 1)
	go func() {
		c, err := tl.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf[:2]); err != nil { // a request read in two pieces
			echoed <- err
			return
		}
		if _, err := io.ReadFull(c, buf[2:]); err != nil {
			echoed <- err
			return
		}
		_, err = c.Write(append([]byte("re:"), buf...))
		echoed <- err
	}()

	c, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if _, err := io.ReadFull(c, got); err != nil || string(got) != "re:hello" {
		t.Fatalf("read %q, %v", got, err)
	}
	if err := <-echoed; err != nil {
		t.Fatal(err)
	}
	ex := <-tl.out
	if string(ex.req) != "hello" || string(ex.resp) != "re:hello" || ex.end.Before(ex.start) {
		t.Errorf("exchange %q -> %q, %v..%v", ex.req, ex.resp, ex.start, ex.end)
	}
}

func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness %q: %q", i, file.Workloads[i], w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why of %d characters", w.name, len(w.why))
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || bounded && (*g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the harness", kind, d.name, g.Bound, d.bound)
			}
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s %s: bad or repeated name, or bad unit %q", kind, d.name, d.unit)
			}
			seen[d.name] = true
		}
	}
	compare("end_to_end", file.EndToEnd, endToEnd, true)
	compare("per_layer", file.PerLayer, perLayer, false)
}

// TestSmoke runs 200 ops of every workload, tiny, against an in-process
// server over loopback, with two clients, and then the whole-view
// oracle.
func TestSmoke(t *testing.T) {
	for _, full := range workloads {
		t.Run(full.name, func(t *testing.T) {
			t.Parallel()
			pr, err := newProber(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer pr.close()
			w := tiny(t, full.name)
			eng, err := newEngine(t.TempDir(), func(dev storage.Device, _ string) storage.Device { return dev })
			if err != nil {
				t.Fatal(err)
			}
			defer eng.closer()
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer eng.serve(lis)()

			sh := newShadow(w.n)
			var ds []*driver
			for c := 0; c < clients; c++ {
				conn, err := client.Dial(lis.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				ds = append(ds, newDriver(c, wireBackend{conn}, 5))
			}
			if _, err := load(ds[0].be, w, sh, nil); err != nil {
				t.Fatal(err)
			}
			ph, err := runRounds(w, sh, ds, 50, 2, pr)
			if err != nil {
				t.Fatal(err)
			}
			if ph.ops != 200 || ph.failed != 0 {
				t.Fatalf("%d ops, %d failed, first: %v", ph.ops, ph.failed, ph.err)
			}
			if _, err := sh.verifyAll(ds[0].be, w); err != nil {
				t.Fatal(err)
			}
			// The oracle must be able to fail: a wrong shadow is noticed.
			sh.p[0]++
			sh.scan.sumP++
			if _, err := sh.verifyAll(ds[0].be, w); err == nil {
				t.Error("the oracle accepted a wrong answer")
			}
		})
	}
}
