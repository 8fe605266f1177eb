package storage

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// A slow miss must not delay a hit on a different page: the miss's
// disk read and latency sleep happen with no shard lock held. This is
// the regression test for the old pool, which performed the read while
// holding the (only) pool mutex.
func TestPoolSlowMissDoesNotBlockOtherPages(t *testing.T) {
	d := NewDisk(64)
	m := NewMeter()
	p := NewPool(d, m, 8)
	f := d.Open("r")
	slow, hot := f.Alloc(), f.Alloc()

	fr, err := p.Get(f, hot) // make hot resident
	if err != nil {
		t.Fatal(err)
	}
	p.Release(fr)

	const lat = 300 * time.Millisecond
	d.SetIOLatency(lat)
	defer d.SetIOLatency(0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fr, err := p.Get(f, slow)
		if err == nil {
			p.Release(fr)
		}
	}()
	// The leader charges its read before sleeping the latency, so once
	// the count reaches 2 the miss is in flight (inside its sleep or
	// about to be).
	for m.Snapshot().Reads < 2 {
		runtime.Gosched()
	}
	start := time.Now()
	fr, err = p.Get(f, hot)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(fr)
	wg.Wait()
	if elapsed > lat/2 {
		t.Errorf("hit on another page took %v while a miss slept %v: miss I/O blocks the pool", elapsed, lat)
	}
}

// Concurrent missers of the same page coalesce on one flight: exactly
// one read is charged and every caller gets the frame.
func TestPoolSingleflightChargesOneRead(t *testing.T) {
	d := NewDisk(64)
	m := NewMeter()
	p := NewPool(d, m, 8)
	f := d.Open("r")
	pn := f.Alloc()
	d.SetIOLatency(20 * time.Millisecond)
	defer d.SetIOLatency(0)

	const workers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			fr, err := p.Get(f, pn)
			if err != nil {
				errs <- err
				return
			}
			errs <- p.Release(fr)
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Snapshot().Reads; got != 1 {
		t.Errorf("reads = %d, want 1 (singleflight must coalesce concurrent misses)", got)
	}
}

// GetBatch charges exactly what per-page Gets would: one read per miss,
// nothing for hits.
func TestPoolGetBatchChargesLikeGets(t *testing.T) {
	d := NewDisk(64)
	m := NewMeter()
	p := NewPool(d, m, 64)
	f := d.Open("r")
	const n = 10
	for i := 0; i < n; i++ {
		f.Alloc()
	}
	fr, err := p.Get(f, 3) // pre-warm one page of the run
	if err != nil {
		t.Fatal(err)
	}
	p.Release(fr)

	run := make([]PageNum, n)
	for i := range run {
		run[i] = PageNum(i)
	}
	frames, err := p.GetBatch(f, run)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != n {
		t.Fatalf("GetBatch returned %d frames, want %d", len(frames), n)
	}
	for i, fr := range frames {
		if fr.PageNum() != PageNum(i) {
			t.Errorf("frame %d has page %d", i, fr.PageNum())
		}
		if err := p.Release(fr); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Snapshot().Reads; got != n {
		t.Errorf("reads = %d, want %d (9 cold misses + 1 earlier warm read, hit uncharged)", got, n)
	}
	// A second run over resident pages charges nothing.
	frames, err = p.GetBatch(f, run)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range frames {
		p.Release(fr)
	}
	if got := m.Snapshot().Reads; got != n {
		t.Errorf("reads after warm rerun = %d, want %d", got, n)
	}
}

// A batch insert evicts the same victims sequential Gets would: the
// globally least-recently-used unpinned frames, regardless of shard.
func TestPoolGetBatchEvictsGlobalLRU(t *testing.T) {
	d := NewDisk(64)
	m := NewMeter()
	p := NewPool(d, m, 4)
	f := d.Open("r")
	const n = 6
	for i := 0; i < n; i++ {
		f.Alloc()
	}
	for i := 0; i < 4; i++ { // residents p0..p3, oldest first
		fr, err := p.Get(f, PageNum(i))
		if err != nil {
			t.Fatal(err)
		}
		p.Release(fr)
	}
	frames, err := p.GetBatch(f, []PageNum{4, 5}) // must evict p0 and p1
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range frames {
		p.Release(fr)
	}
	reads := m.Snapshot().Reads // 6 so far
	for _, pn := range []PageNum{2, 3} {
		fr, err := p.Get(f, pn)
		if err != nil {
			t.Fatal(err)
		}
		p.Release(fr)
	}
	if got := m.Snapshot().Reads; got != reads {
		t.Errorf("p2/p3 were evicted (reads %d → %d); batch must evict the oldest frames", reads, got)
	}
	fr, err := p.Get(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(fr)
	if got := m.Snapshot().Reads; got != reads+1 {
		t.Errorf("p0 still resident (reads %d); batch evicted the wrong victim", got)
	}
}

// A pool stuck over capacity with every frame pinned reports which
// files hold the pins.
func TestPoolPinnedFullErrorListsFiles(t *testing.T) {
	d := NewDisk(64)
	p := NewPool(d, NewMeter(), 1)
	fa, fb := d.Open("alpha"), d.Open("beta")
	a, b := fa.Alloc(), fb.Alloc()
	frA, err := p.Get(fa, a)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Get(fb, b)
	if err == nil {
		t.Fatal("expected pinned-full error")
	}
	for _, want := range []string{"alpha", "beta", "pinned"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	p.Release(frA)
}

func TestPoolAssertUnpinnedDetectsLeak(t *testing.T) {
	d := NewDisk(64)
	p := NewPool(d, NewMeter(), 8)
	f := d.Open("r")
	fr, err := p.Get(f, f.Alloc())
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingT{}
	p.AssertUnpinned(rec)
	if rec.failures != 1 {
		t.Errorf("AssertUnpinned with a pinned frame reported %d failures, want 1", rec.failures)
	}
	p.Release(fr)
	p.AssertUnpinned(t) // no leak now; must not fail the test
}

type recordingT struct{ failures int }

func (r *recordingT) Helper()               {}
func (r *recordingT) Errorf(string, ...any) { r.failures++ }

// Discard racing Get/Release on the same key must be memory-safe:
// pinned frames are orphaned, and an orphaned frame's final release
// never writes back. Run under -race.
func TestPoolDiscardGetRaceStress(t *testing.T) {
	d := NewDisk(64)
	m := NewMeter()
	p := NewPool(d, m, 16)
	f := d.Open("r")
	pn := f.Alloc()

	const workers = 4
	const iters = 300
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (w + i) % 3 {
				case 0:
					p.Discard(f, pn)
				default:
					fr, err := p.Get(f, pn)
					if err != nil {
						errs <- err
						return
					}
					if w == 0 {
						// One writer: two pins on the shared frame
						// writing its bytes would race in the test itself.
						fr.Data[0] = byte(i)
						fr.MarkDirty()
					}
					if err := p.Release(fr); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	p.Discard(f, pn)
	if got := p.Resident(); got != 0 {
		t.Errorf("resident after final discard = %d, want 0", got)
	}
	p.AssertUnpinned(t)
}
