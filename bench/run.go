package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"viewmat/internal/client"
	"viewmat/internal/core"
	"viewmat/internal/storage"
)

// The paper's unit costs: C1 ms per screen, C2 per page I/O, C3 per
// A/D touch.
const c1, c2, c3 = 1.0, 30.0, 1.0

func modelMs(s storage.Stats) float64 { return s.Cost(c1, c2, c3) }

// session is one set-up server: the child process, a control
// connection, one driver per client and the shadow of what was loaded.
type session struct {
	ch      *child
	ctl     *client.Client
	drivers []*driver
	shadow  *shadow
	walDir  string

	setupRaw     time.Duration // child start → warm-up done, probes excluded
	setupProbes  []probeSample
	setupCommits int // load batches + warm-up commits
}

func (s *session) close() {
	for _, d := range s.drivers {
		d.be.(wireBackend).c.Close()
	}
	if s.ctl != nil {
		s.ctl.Close()
	}
	if s.ch != nil {
		s.ch.kill()
	}
	os.RemoveAll(s.walDir)
}

// setUp starts a fresh viewmatd under runDir, loads the workload's data,
// creates its views and warms every client up.
func setUp(bin, runDir string, w *workload, seed int64, pr *prober) (_ *session, err error) {
	s := &session{shadow: newShadow(w.n)}
	if s.walDir, err = os.MkdirTemp(runDir, "wal-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()

	// Set-up is short, and one probe sample is noisy (its quartiles sit
	// 25 % apart): two samples before, after every load batch and after
	// give the median a few dozen to work with.
	var probing time.Duration
	var probeErr error
	probe := func() {
		t := time.Now()
		ps, err := pr.samples(2)
		if err != nil {
			probeErr = err
		}
		s.setupProbes = append(s.setupProbes, ps...)
		probing += time.Since(t)
	}
	probe()
	start := time.Now()
	if s.ch, err = startServer(bin, s.walDir); err != nil {
		return nil, err
	}
	if s.ctl, err = client.Dial(s.ch.addr); err != nil {
		return nil, err
	}
	if s.setupCommits, err = load(wireBackend{s.ctl}, w, s.shadow, probe); err != nil {
		return nil, err
	}
	for c := 0; c < clients; c++ {
		conn, err := client.Dial(s.ch.addr)
		if err != nil {
			return nil, err
		}
		s.drivers = append(s.drivers, newDriver(c, wireBackend{conn}, seed))
	}
	runAll(w, s.shadow, s.drivers, w.warmOps)
	s.setupRaw = time.Since(start) - probing
	probe()
	if probeErr != nil {
		return nil, probeErr
	}
	for _, d := range s.drivers {
		if d.firstErr != nil {
			return nil, fmt.Errorf("warm-up: %w", d.firstErr)
		}
		for _, sm := range d.samples {
			if sm.class == classCommit {
				s.setupCommits++
			}
		}
		d.samples = nil
	}
	return s, nil
}

// counters is everything read from outside the program at a phase
// boundary.
type counters struct {
	health    core.Health
	user, sys time.Duration
	childIO   procIO
	selfRW    int64 // the harness's own rchar+wchar
}

func (s *session) snapshot() (counters, error) {
	var c counters
	var err error
	if c.health, err = s.ctl.Health(); err != nil {
		return c, fmt.Errorf("health: %w", err)
	}
	if c.user, c.sys, err = readProcCPU(s.ch.pid()); err != nil {
		return c, err
	}
	if c.childIO, err = readProcIO(strconv.Itoa(s.ch.pid())); err != nil {
		return c, err
	}
	self, err := readProcIO("self")
	if err != nil {
		return c, err
	}
	c.selfRW = self.rchar + self.wchar
	return c, nil
}

// tally pools what every session of a run measured: the sessions'
// phases merged into one, and the counter deltas around them.
type tally struct {
	phase
	meter     storage.Stats
	user, sys time.Duration
	wire      int64 // the harness's rchar+wchar over the measured phases
}

func (t *tally) add(ph *phase, before, after counters) {
	t.merge(ph)
	t.meter = t.meter.Add(after.health.Meter.Sub(before.health.Meter))
	t.user += after.user - before.user
	t.sys += after.sys - before.sys
	// The probe's own reads and writes are not the system's wire
	// traffic.
	t.wire += after.selfRW - before.selfRW - int64(len(ph.probes))*probeIOBytes
}

// runMain is the untraced run: viewmatd as a child process, `clients`
// connections in a closed loop through a stream of nominal length
// `seconds`, split evenly over nSessions freshly set-up servers;
// answers checked, and the last server crashed and recovered at the
// end.
func runMain(root, bin string, buildTime time.Duration, w *workload, seed int64, seconds float64, nSessions int) (*result, error) {
	runDir, err := os.MkdirTemp(outDir(root), "run-")
	if err != nil {
		return nil, err
	}
	onExit(func() { os.RemoveAll(runDir) })
	defer os.RemoveAll(runDir)
	pr, err := newProber(runDir)
	if err != nil {
		return nil, err
	}
	defer pr.close()

	var t tally
	var setupRaw, setupRef []float64
	var written, setupCommits int64 // the children's write_bytes from start to end of phase; load and warm-up commits
	res := &result{metrics: map[string]float64{}}
	rounds := (streamRounds(seconds) + nSessions - 1) / nSessions
	for i := 0; i < nSessions; i++ {
		// A different stream per session, so the pooled sample is not the
		// same ops twice.
		s, err := setUp(bin, runDir, w, seed*16+int64(i), pr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		raw := s.setupRaw.Seconds()
		setupRaw = append(setupRaw, raw)
		setupRef = append(setupRef, raw/wallSpeed(s.setupProbes, setupDisk))
		setupCommits += int64(s.setupCommits)

		err = func() error {
			defer s.close()
			before, err := s.snapshot()
			if err != nil {
				return err
			}
			ph, err := runRounds(w, s.shadow, s.drivers, roundOps(w), rounds, pr)
			if err != nil {
				return err
			}
			after, err := s.snapshot()
			if err != nil {
				return err
			}
			t.add(ph, before, after)
			// For the reader: how far apart the run's sessions sit is how
			// much of its spread a longer stream could not average out.
			sp, raw := wallSpeed(ph.probes, w.disk), float64(ph.ops)/ph.wall.Seconds()
			fmt.Fprintf(os.Stderr, "session %d: ops_per_s=%.2f raw=%.2f speed=%.3f\n", i, raw*sp, raw, sp)
			written += after.childIO.writeBytes
			res.metrics["storage.pool_resident_frac"] = float64(after.health.PoolResident) / float64(after.health.PoolCapacity)
			if i < nSessions-1 {
				return nil
			}
			return crashAndRecover(root, bin, w, s, pr, res)
		}()
		if err != nil {
			return nil, err
		}
	}
	res.attempted += t.ops
	res.failed += t.failed
	if t.err != nil {
		res.firstErr = t.err
	}

	speed, cpuSp := wallSpeed(t.probes, w.disk), cpuSpeed(t.probes)
	ops := float64(t.ops)
	headline := t.latenciesMs(func(c opClass) bool { return c == w.headline })
	// Bytes the servers sent to storage from their start to the end of
	// their measured phase, per acknowledged commit (load batches,
	// warm-up and measured): never zero, so a read-only workload
	// reports its bulk load's write amplification.
	diskPerCommit := float64(written) / float64(setupCommits+int64(t.commits()))
	rawOpsPerS := ops / t.wall.Seconds()
	cpu := t.user + t.sys
	rawCPUMs := float64(cpu) / float64(time.Millisecond) / ops
	pmax, _ := pmax10(headline)
	userFrac := 0.0
	if cpu > 0 {
		userFrac = float64(t.user) / float64(cpu)
	}
	sortMs, pingMs, syncMs := kernelsMs(t.probes)
	speeds := make([]float64, len(t.probes))
	for i, ps := range t.probes {
		speeds[i] = wallSpeedFrom(ps.sortMs, ps.pingMs, ps.syncMs, w.disk)
	}
	q1, q3 := quartiles(speeds)

	for name, v := range map[string]float64{
		"setup_s":               median(setupRef),
		"ops_per_s":             rawOpsPerS * speed,
		"op_p50_ms":             median(headline) / speed,
		"server_cpu_ms_per_op":  rawCPUMs / cpuSp,
		"model_ms_per_op":       modelMs(t.meter) / ops,
		"disk_bytes_per_commit": diskPerCommit,
		"wire_bytes_per_op":     float64(t.wire) / ops,

		"client.op_p99_ms":     percentile(headline, 99) / speed,
		"client.op_pmax10_ms":  pmax / speed,
		"client.op_samples":    float64(len(headline)),
		"client.query_p50_ms":  median(t.latenciesMs(opClass.isQuery)) / speed,
		"client.commit_p50_ms": median(t.latenciesMs(func(c opClass) bool { return c == classCommit })) / speed,

		"server.busy_rejects":  float64(t.busy),
		"server.cpu_user_frac": userFrac,

		"probe.sort_ms_p50":        median(sortMs),
		"probe.ping_ms_p50":        median(pingMs),
		"probe.sync_ms_p50":        median(syncMs),
		"probe.cpu_speed":          cpuSp,
		"probe.speed":              speed,
		"probe.speed_iqr":          q3 - q1,
		"raw.setup_s":              median(setupRaw),
		"raw.ops_per_s":            rawOpsPerS,
		"raw.op_p50_ms":            median(headline),
		"raw.server_cpu_ms_per_op": rawCPUMs,
		"raw.build_s":              buildTime.Seconds(),
	} {
		res.metrics[name] = v
	}
	return res, nil
}

// crashAndRecover is the oracle's last word on a session: every view in
// full, then again from a server that was SIGKILLed and restarted on the
// same directory. It adds its checks, server.rss_peak_mb and
// core.recover_ms to res.
func crashAndRecover(root, bin string, w *workload, s *session, pr *prober, res *result) error {
	check := func(stage string, be backend) {
		n, err := s.shadow.verifyAll(be, w)
		res.attempted += n
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("%s: %w", stage, err)
			}
		}
	}
	check("before crash", wireBackend{s.ctl})
	rss, err := readPeakRSSMB(s.ch.pid())
	if err != nil {
		return err
	}
	s.ch.kill()
	probes, err := pr.samples(5)
	if err != nil {
		return err
	}
	restart := time.Now()
	ch2, err := startServer(bin, s.walDir)
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err) // the error carries the failed child's output
	}
	recovery := time.Since(restart)
	s.ch = ch2
	s.ctl.Close()
	if s.ctl, err = client.Dial(ch2.addr); err != nil {
		return err
	}
	check("after recovery", wireBackend{s.ctl})
	if res.failed > 0 {
		saveServerLog(root, w, s.ch)
	}
	res.metrics["server.rss_peak_mb"] = rss
	res.metrics["core.recover_ms"] = float64(recovery) / float64(time.Millisecond) / wallSpeed(probes, 0)
	return nil
}

// saveServerLog keeps a failed run's viewmatd output where the run
// directory's removal will not take it.
func saveServerLog(root string, w *workload, ch *child) {
	ch.kill() // the log buffer is complete only once the process is gone
	path := filepath.Join(outDir(root), "viewmatd-"+w.name+".log")
	if err := os.WriteFile(path, ch.log.Bytes(), 0o644); err == nil {
		fmt.Fprintf(os.Stderr, "bench: viewmatd output kept in %s\n", path)
	}
}
