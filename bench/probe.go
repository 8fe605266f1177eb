package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The speed probe. This sandbox's VM drifts in speed by 20–30 % over
// minutes, and every timing drifts with it; the probe is a fixed piece
// of work whose duration, measured right beside the ops it normalises,
// says how fast the machine is *now*. It imports nothing from the
// repository and must never change: every number in baseline.json and
// every later before/after is divided by it.
//
// It has three kernels, because the drift does not hit all work alike
// (README.md has the measurements): a compute kernel, which tracks the
// engine-bound workloads; a loopback ping-pong, which tracks the
// hand-off between threads that every request/response exchange pays;
// and a small durable write, because the sandbox disk's fsync latency
// has episodes of its own that no CPU kernel sees. CPU time is
// normalised by the geometric mean of the first two kernels'
// slowdowns; wall time by that mean and the third kernel's slowdown,
// weighted by the share of its time the work spends waiting for the
// disk.
const (
	// The kernels' durations on this sandbox at its usual speed. A
	// factor above 1 means the machine is slow right now.
	sortRefMs = 3.5
	pingRefMs = 0.42
	syncRefMs = 0.40

	// sortThreads goroutines run the compute kernel at once: a lone
	// probe misses contention from the sibling core, which the
	// two-client closed loop always feels.
	sortThreads = 2
	sortInts    = 16 << 10
	sortMapOps  = 2048
	sortMapReps = 4
	sortOuter   = 2

	pingTrips = 30 // 8-byte round trips per sample
	pingBytes = 8

	syncBytes = 4096 // written at offset 0 and fsynced, once per sample

	// probeIOBytes is what one sample adds to the harness's own
	// rchar+wchar: the ping-pong crosses its sockets four times per
	// trip, and the durable write goes through write(2).
	probeIOBytes = 4*pingTrips*pingBytes + syncBytes

	// roundSamples is how many samples the probe takes before each
	// round. One sample's quartiles sit 25 % apart, and over a run the
	// probes' median was a larger share of the run-to-run spread than
	// the ops themselves.
	roundSamples = 2
)

// probeSample is one probe: the three kernels' durations in
// milliseconds.
type probeSample struct{ sortMs, pingMs, syncMs float64 }

// sortKernel is one thread's share of the compute kernel: sortOuter ×
// {xorshift-fill sortInts ints, sort them, sortMapReps × sortMapOps map
// increments} — ALU, branchy compares, cache misses and allocation in
// roughly the mix the engine's own ops have.
func sortKernel(seed uint64) int {
	buf := make([]int, sortInts)
	acc := 0
	x := seed | 1
	for o := 0; o < sortOuter; o++ {
		for j := range buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[j] = int(x >> 1)
		}
		sort.Ints(buf)
		for r := 0; r < sortMapReps; r++ {
			m := make(map[int]int, 256)
			for j := 0; j < sortMapOps; j++ {
				m[buf[j*7+r]&1023]++
			}
			acc += len(m)
		}
		acc += buf[0] & 1
	}
	return acc
}

// prober owns the probe's loopback connection, its echo goroutine and
// the file of its durable write.
type prober struct {
	file *os.File
	near net.Conn
	done chan struct{} // closed when the echo goroutine has ended
	sink int           // keeps the compute kernel's result alive
}

// newProber creates a prober whose durable write goes to a file in
// dir: the directory the measured server's own files live under, so
// both wait for the same disk.
func newProber(dir string) (*prober, error) {
	file, err := os.Create(filepath.Join(dir, "probe-sync"))
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		file.Close()
		return nil, fmt.Errorf("probe: %w", err)
	}
	defer lis.Close()
	near, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		file.Close()
		return nil, fmt.Errorf("probe: %w", err)
	}
	far, err := lis.Accept() // the dial above already completed the handshake
	if err != nil {
		near.Close()
		file.Close()
		return nil, fmt.Errorf("probe: %w", err)
	}
	p := &prober{file: file, near: near, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		defer far.Close()
		b := make([]byte, pingBytes)
		for {
			if _, err := io.ReadFull(far, b); err != nil {
				return // the near end closed
			}
			if _, err := far.Write(b); err != nil {
				return
			}
		}
	}()
	return p, nil
}

// close hangs up, waits for the echo goroutine to end and closes the
// file.
func (p *prober) close() {
	p.near.Close()
	<-p.done
	p.file.Close()
}

// sample runs the three kernels once.
func (p *prober) sample() (probeSample, error) {
	var s probeSample

	var wg sync.WaitGroup
	var durs [sortThreads]time.Duration
	var sinks [sortThreads]int
	for t := 0; t < sortThreads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			start := time.Now()
			sinks[t] = sortKernel(uint64(t)*0x9e3779b97f4a7c15 + 1)
			durs[t] = time.Since(start)
		}(t)
	}
	wg.Wait()
	for t := range durs {
		s.sortMs += float64(durs[t]) / float64(time.Millisecond) / sortThreads
		p.sink += sinks[t]
	}

	b := make([]byte, pingBytes)
	start := time.Now()
	for i := 0; i < pingTrips; i++ {
		if _, err := p.near.Write(b); err != nil {
			return s, fmt.Errorf("probe: %w", err)
		}
		if _, err := io.ReadFull(p.near, b); err != nil {
			return s, fmt.Errorf("probe: %w", err)
		}
	}
	s.pingMs = float64(time.Since(start)) / float64(time.Millisecond)

	var blk [syncBytes]byte
	binary.LittleEndian.PutUint64(blk[:], uint64(p.sink)) // a block the disk has not seen
	start = time.Now()
	if _, err := p.file.WriteAt(blk[:], 0); err != nil {
		return s, fmt.Errorf("probe: %w", err)
	}
	if err := p.file.Sync(); err != nil {
		return s, fmt.Errorf("probe: %w", err)
	}
	s.syncMs = float64(time.Since(start)) / float64(time.Millisecond)
	return s, nil
}

// samples runs the kernels n times.
func (p *prober) samples(n int) ([]probeSample, error) {
	out := make([]probeSample, 0, n)
	for i := 0; i < n; i++ {
		s, err := p.sample()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// cpuSpeed turns probe samples into the factor CPU time is divided by:
// the geometric mean of the compute and exchange kernels' median
// slowdowns.
func cpuSpeed(samples []probeSample) float64 {
	sortMs, pingMs, _ := kernelsMs(samples)
	return cpuSpeedFrom(median(sortMs), median(pingMs))
}

func cpuSpeedFrom(sortMs, pingMs float64) float64 {
	return math.Sqrt(sortMs / sortRefMs * pingMs / pingRefMs)
}

// wallSpeed is the factor wall time is divided by, for work that
// spends diskShare of its time waiting for durable writes.
func wallSpeed(samples []probeSample, diskShare float64) float64 {
	sortMs, pingMs, syncMs := kernelsMs(samples)
	return wallSpeedFrom(median(sortMs), median(pingMs), median(syncMs), diskShare)
}

func wallSpeedFrom(sortMs, pingMs, syncMs, diskShare float64) float64 {
	return math.Pow(cpuSpeedFrom(sortMs, pingMs), 1-diskShare) * math.Pow(syncMs/syncRefMs, diskShare)
}

// kernelsMs splits probe samples into the three kernels' series.
func kernelsMs(samples []probeSample) (sortMs, pingMs, syncMs []float64) {
	for _, s := range samples {
		sortMs = append(sortMs, s.sortMs)
		pingMs = append(pingMs, s.pingMs)
		syncMs = append(syncMs, s.syncMs)
	}
	return sortMs, pingMs, syncMs
}
