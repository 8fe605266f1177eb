package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"viewmat/internal/client"
)

// sample is one executed op as its client saw it.
type sample struct {
	class      opClass
	start, end time.Time
}

// driver is one closed-loop client: its backend, its position in its
// seed-derived op stream, and what it has observed.
type driver struct {
	idx     int
	be      backend
	rng     *rand.Rand
	next    int // index of the next op in the stream
	samples []sample
	failed  int
	busy    int // failures that were CodeBusy rejections
	// firstErr keeps the first failure for the report.
	firstErr error
	// before and after, when set, run around each op outside its
	// timing; the traced run uses them to tag the request and to
	// collect what the decorated connection saw.
	before, after func(d *driver, o op)
}

func newDriver(idx int, be backend, seed int64) *driver {
	return &driver{idx: idx, be: be, rng: opRand(seed, idx)}
}

// run executes the client's next n ops. A wrong answer, a CodeBusy or a
// transport error is a failed op; the loop carries on so one failure
// does not hide the rest.
func (d *driver) run(w *workload, s *shadow, n int) {
	for j := 0; j < n; j++ {
		o := w.gen(w, d.rng, d.idx, d.next)
		if d.before != nil {
			d.before(d, o)
		}
		start := time.Now()
		err := s.do(d.be, o)
		d.samples = append(d.samples, sample{class: o.class, start: start, end: time.Now()})
		if d.after != nil {
			d.after(d, o)
		}
		d.next++
		if err != nil {
			d.failed++
			if errors.Is(err, client.ErrBusy) {
				d.busy++
			}
			if d.firstErr == nil {
				d.firstErr = fmt.Errorf("client %d op %d (%s): %w", d.idx, d.next-1, classNames[o.class], err)
			}
		}
	}
}

// phase is the outcome of one measured sequence of rounds.
type phase struct {
	ops     int
	wall    time.Duration // Σ round wall time, probes excluded
	probes  []probeSample // roundSamples per round
	samples []sample      // every client's samples of this phase
	failed  int
	busy    int
	err     error
}

// latenciesMs returns the phase's raw latencies of one class (or of all
// classes matching keep).
func (p *phase) latenciesMs(keep func(opClass) bool) []float64 {
	var out []float64
	for _, s := range p.samples {
		if keep(s.class) {
			out = append(out, float64(s.end.Sub(s.start))/float64(time.Millisecond))
		}
	}
	return out
}

func (p *phase) commits() int {
	n := 0
	for _, s := range p.samples {
		if s.class == classCommit {
			n++
		}
	}
	return n
}

// merge pools another phase's outcome into p.
func (p *phase) merge(o *phase) {
	p.ops += o.ops
	p.wall += o.wall
	p.probes = append(p.probes, o.probes...)
	p.samples = append(p.samples, o.samples...)
	p.failed += o.failed
	p.busy += o.busy
	if p.err == nil {
		p.err = o.err
	}
}

// A stream's length is fixed by constants, never by the clock: a run
// of nominal length `seconds` is streamRounds(seconds) rounds of
// roundOps(w) ops per client, whatever the machine's or the build's
// speed, so a before/after pair executes the very same ops.
const roundsPerSec = 8

// roundOps sizes a round to last about 125 ms at the workload's nominal
// rate: long enough that the barrier cost is noise, short enough that a
// probe sits right beside the ops it normalises.
func roundOps(w *workload) int {
	return max(1, int(w.opsPerSec/roundsPerSec/clients+0.5))
}

func streamRounds(seconds float64) int {
	return max(1, int(seconds*roundsPerSec+0.5))
}

// runAll has every client execute its next n ops at once and returns
// the wall time until the last one finished.
func runAll(w *workload, s *shadow, ds []*driver, n int) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for _, d := range ds {
		wg.Add(1)
		go func(d *driver) {
			defer wg.Done()
			d.run(w, s, n)
		}(d)
	}
	wg.Wait()
	return time.Since(start)
}

// runRounds drives the clients through the given number of rounds of
// perClient ops each: barrier, probe, ops, barrier.
func runRounds(w *workload, s *shadow, ds []*driver, perClient, rounds int, pr *prober) (*phase, error) {
	p := &phase{}
	first := make([]int, len(ds))
	for i, d := range ds {
		first[i] = len(d.samples)
		p.failed -= d.failed
		p.busy -= d.busy
	}
	for r := 0; r < rounds; r++ {
		ps, err := pr.samples(roundSamples)
		if err != nil {
			return nil, err
		}
		p.probes = append(p.probes, ps...)
		p.wall += runAll(w, s, ds, perClient)
		p.ops += perClient * len(ds)
	}
	for i, d := range ds {
		p.samples = append(p.samples, d.samples[first[i]:]...)
		p.failed += d.failed
		p.busy += d.busy
		if p.err == nil {
			p.err = d.firstErr
		}
	}
	return p, nil
}
