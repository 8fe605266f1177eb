package storage

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// A slow miss must not delay a hit on a different page: the miss's
// disk read and latency sleep happen with no pool lock held. This is
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

// ReadBatch charges exactly what per-page Gets would: one read per miss,
// nothing for hits; and it hands fn each page of the window, in order.
func TestPoolGetBatchChargesLikeGets(t *testing.T) {
	d := NewDisk(64)
	m := NewMeter()
	p := NewPool(d, m, 64)
	f := d.Open("r")
	const n = 10
	run := make([]PageNum, n)
	for i := range run {
		run[i] = f.Alloc()
		if err := f.writePage(run[i], bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	fr, err := p.Get(f, 3) // pre-warm one page of the run
	if err != nil {
		t.Fatal(err)
	}
	p.Release(fr)

	seen := 0
	if err := p.ReadBatch(f, run, func(i int, page []byte) error {
		if i != seen || page[0] != byte(i) {
			t.Errorf("call %d: fn(%d) on a page holding %d", seen, i, page[0])
		}
		seen++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("ReadBatch ran fn on %d pages, want %d", seen, n)
	}
	if got := m.Snapshot().Reads; got != n {
		t.Errorf("reads = %d, want %d (9 cold misses + 1 earlier warm read, hit uncharged)", got, n)
	}
	// A second run over resident pages charges nothing.
	if err := p.ReadBatch(f, run, func(int, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	p.AssertUnpinned(t)
	if got := m.Snapshot().Reads; got != n {
		t.Errorf("reads after warm rerun = %d, want %d", got, n)
	}
}

// A batch insert evicts the same victims sequential Gets would: the
// least-recently-used unpinned frames. TestPoolMatchesOneListLRU checks
// the same on random scripts.
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
	// must evict p0 and p1
	if err := p.ReadBatch(f, []PageNum{4, 5}, func(int, []byte) error { return nil }); err != nil {
		t.Fatal(err)
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

// Discard racing Get/Release on the same keys must be memory-safe:
// pinned frames are orphaned, an orphaned frame's final release never
// writes back, and a holder's bytes stay its page's until its own
// Release — a slot recycled early would read as poison or as the other
// page. Run under -race.
func TestPoolDiscardGetRaceStress(t *testing.T) {
	d := NewDisk(64)
	m := NewMeter()
	p := NewPool(d, m, 16)
	f := d.Open("r")
	pns := []PageNum{f.Alloc(), f.Alloc()}
	fills := []byte{0x5A, 0x3C} // bytes 8.. of each page; byte 0 is the writer's
	for i, pn := range pns {
		if err := f.writePage(pn, bytes.Repeat([]byte{fills[i]}, 64)); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 4
	const iters = 300
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				pg := (w + i/3) % 2
				switch (w + i) % 3 {
				case 0:
					p.Discard(f, pns[pg])
				default:
					fr, err := p.Get(f, pns[pg])
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
					runtime.Gosched() // let a Discard land while pinned
					if len(fr.Data) != 64 || !bytes.Equal(fr.Data[8:], bytes.Repeat([]byte{fills[pg]}, 56)) {
						errs <- fmt.Errorf("worker %d: page %d's holder reads %x", w, pns[pg], fr.Data)
						return
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
	for _, pn := range pns {
		p.Discard(f, pn)
	}
	if got := p.Resident(); got != 0 {
		t.Errorf("resident after final discard = %d, want 0", got)
	}
	p.AssertUnpinned(t)
}

// Two readers ReadBatch overlapping windows of one file while a writer
// Gets, dirties, Releases and Discards other pages of it, and now and
// then Discards a page the readers are reading (orphaning their
// in-place pins). Windows, writer frames and orphans share the one list,
// so each reader's eviction pass writes back and recycles the writer's
// frames and the writer's misses evict the readers' entries. Every read
// must see its page's bytes, every writer Get the value it last wrote
// (each write is its own scope, flushed to the image before any Discard
// can drop it), and the pool
// must end unpinned and within capacity, its entry table agreeing with
// its list. Run under -race.
func TestPoolReadBatchDiscardRaceStress(t *testing.T) {
	const readPages, writePages, window, capacity = 40, 8, 6, 2*6 + 4
	d := NewDisk(64)
	p := NewPool(d, NewMeter(), capacity)
	f := d.Open("r")
	image := func(pn PageNum) []byte {
		page := bytes.Repeat([]byte{0x5A}, 64)
		page[1] = byte(pn)
		return page
	}
	for pn := PageNum(0); pn < readPages+writePages; pn++ {
		if err := f.writePage(f.Alloc(), image(pn)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			pns := make([]PageNum, window)
			for lo := 0; lo < 100*readPages; lo += window / 2 {
				for k := range pns {
					pns[k] = PageNum((lo + k + s*window/2) % readPages)
				}
				if err := p.ReadBatch(f, pns, func(i int, page []byte) error {
					if !bytes.Equal(page, image(pns[i])) {
						return fmt.Errorf("reader %d: page %d reads %x", s, pns[i], page)
					}
					return nil
				}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := bytes.Repeat([]byte{0x5A}, writePages) // each page's byte 0
		for i := 0; i < 3000; i++ {
			w := i % writePages
			pn := PageNum(readPages + w)
			if i%7 == 0 {
				p.Discard(f, PageNum(i%readPages))
			}
			fr, err := p.Get(f, pn)
			if err != nil {
				errs <- err
				return
			}
			want := image(pn)
			want[0] = last[w]
			if !bytes.Equal(fr.Data, want) {
				errs <- fmt.Errorf("writer: page %d reads %x, want %x", pn, fr.Data, want)
				return
			}
			last[w] = byte(i)
			fr.Data[0] = last[w]
			fr.MarkDirty()
			runtime.Gosched()
			if err := p.Release(fr); err != nil {
				errs <- err
				return
			}
			if err := p.FlushAll(); err != nil {
				errs <- err
				return
			}
			if i%3 == 0 {
				p.Discard(f, pn)
			}
		}
		errs <- nil
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	p.AssertUnpinned(t)
	if got := p.Resident(); got > p.Capacity() {
		t.Errorf("resident %d over capacity %d", got, p.Capacity())
	}
	if err := p.checkTable(f); err != nil {
		t.Error(err)
	}
}

// arena reports the page buffers the pool holds now and at most, and
// how many of them are free.
func (p *Pool) arena() (live, peak, free int) {
	p.slotMu.Lock()
	defer p.slotMu.Unlock()
	return p.live, p.peak, len(p.slots)
}

// The arena stays bounded through everything that moves frames: a bulk
// load of ten times the capacity, concurrent cold scans in windows,
// EvictAll, and Discard of a pinned frame. A buffer is made only when
// none is free, i.e. when every one is in a frame, and frames exceed
// the capacity only by the windows concurrent batches insert before
// their eviction pass (a single Get or Alloc is a window of one).
func TestPoolArenaBounded(t *testing.T) {
	const capacity, scanners, window = 16, 2, 4
	const pages = 10 * capacity
	d := NewDisk(64)
	p := NewPool(d, NewMeter(), capacity)
	f := d.Open("r")
	check := func(stage string) {
		t.Helper()
		if _, peak, free := p.arena(); peak > capacity+scanners*window || free > capacity {
			t.Fatalf("%s: up to %d buffers held (bound %d), %d free (bound %d)",
				stage, peak, capacity+scanners*window, free, capacity)
		}
	}
	for i := 0; i < pages; i++ {
		fr, err := p.Alloc(f)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data[0], fr.Data[1] = byte(i), byte(i>>8)
		fr.MarkDirty()
		if err := p.Release(fr); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	check("bulk load")
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	check("EvictAll after the load")

	var wg sync.WaitGroup
	for s := 0; s < scanners; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			pns := make([]PageNum, window)
			for lo := 0; lo < 3*pages; lo += window {
				for k := range pns {
					pns[k] = PageNum((lo + k + s*pages/2) % pages)
				}
				if err := p.ReadBatch(f, pns, func(i int, page []byte) error {
					if got := PageNum(page[0]) | PageNum(page[1])<<8; got != pns[i] {
						t.Errorf("page %d reads as page %d", pns[i], got)
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	check("concurrent cold scans")
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	check("EvictAll after the scans")

	fr, err := p.Get(f, 7)
	if err != nil {
		t.Fatal(err)
	}
	p.Discard(f, 7)
	if err := p.Release(fr); err != nil {
		t.Fatal(err)
	}
	check("Discard of a pinned frame")
	if live, _, free := p.arena(); p.Resident() != 0 || free != live || live > capacity {
		t.Errorf("idle pool: %d resident, %d of %d buffers free (cap %d)", p.Resident(), free, live, capacity)
	}
}

// An orphan (a frame discarded while pinned) keeps its slot, bytes
// intact, for as long as any holder has it: the slot returns at the
// final Release, not at Discard and not at an earlier one.
func TestPoolArenaOrphanSlotReturnsAtFinalRelease(t *testing.T) {
	d := NewDisk(64)
	p := NewPool(d, NewMeter(), 4)
	f := d.Open("r")
	pn := f.Alloc()
	if err := f.writePage(pn, bytes.Repeat([]byte{7}, 64)); err != nil {
		t.Fatal(err)
	}
	a, err := p.Get(f, pn)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Get(f, pn)
	if err != nil {
		t.Fatal(err)
	}
	_, _, free0 := p.arena()
	p.Discard(f, pn)
	if _, _, free := p.arena(); free != free0 {
		t.Fatalf("Discard of a pinned frame freed its slot (%d → %d free)", free0, free)
	}
	if err := p.Release(a); err != nil {
		t.Fatal(err)
	}
	if _, _, free := p.arena(); free != free0 || !bytes.Equal(b.Data, bytes.Repeat([]byte{7}, 64)) {
		t.Fatalf("after the first of two releases: %d free (want %d), holder reads %x", free, free0, b.Data)
	}
	if err := p.Release(b); err != nil {
		t.Fatal(err)
	}
	if _, _, free := p.arena(); free != free0+1 || b.Data != nil {
		t.Fatalf("after the final release: %d free (want %d), Data nil %v", free, free0+1, b.Data == nil)
	}
}

// Alloc hands out a zeroed page even when its slot last held a dirty
// page (and, in a test binary, poison).
func TestPoolArenaAllocZeroesRecycledSlot(t *testing.T) {
	d := NewDisk(64)
	p := NewPool(d, NewMeter(), 4)
	f := d.Open("r")
	fr, err := p.Alloc(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fr.Data {
		fr.Data[i] = 0xFF
	}
	fr.MarkDirty()
	if err := p.Release(fr); err != nil {
		t.Fatal(err)
	}
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	live, _, free := p.arena()
	if free != 1 {
		t.Fatalf("%d free slots after evicting the one frame", free)
	}
	fr, err = p.Alloc(f)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(fr)
	if again, _, _ := p.arena(); again != live {
		t.Fatalf("Alloc made a buffer (%d → %d held) instead of reusing the free slot", live, again)
	}
	if !bytes.Equal(fr.Data, make([]byte, 64)) {
		t.Fatalf("Alloc on a recycled slot: %x, want zeros", fr.Data)
	}
}

// A read of a frame after its last unpin is caught at every point a
// frame leaves the table: the frame's Data is nil, so a read through it
// panics, and the slice a careless reader kept reads poison, not the
// page (nor, once the slot is reused, silently another page).
func TestPoolArenaStaleReadCaught(t *testing.T) {
	if !poisonSlots {
		t.Fatal("poison-on-recycle is off in a test binary")
	}
	release := func(t *testing.T, p *Pool, fr *Frame) {
		if err := p.Release(fr); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name  string
		leave func(t *testing.T, p *Pool, f *File, fr *Frame)
	}{
		{"EvictAll", func(t *testing.T, p *Pool, f *File, fr *Frame) {
			release(t, p, fr)
			if err := p.EvictAll(); err != nil {
				t.Fatal(err)
			}
		}},
		{"eviction", func(t *testing.T, p *Pool, f *File, fr *Frame) {
			release(t, p, fr)
			for pn := PageNum(1); pn <= 2; pn++ { // a two-frame pool
				g, err := p.Get(f, pn)
				if err != nil {
					t.Fatal(err)
				}
				release(t, p, g)
			}
		}},
		{"Discard", func(t *testing.T, p *Pool, f *File, fr *Frame) {
			release(t, p, fr)
			p.Discard(f, fr.PageNum())
		}},
		{"orphan's final Release", func(t *testing.T, p *Pool, f *File, fr *Frame) {
			p.Discard(f, fr.PageNum())
			release(t, p, fr)
		}},
		{"Alloc over a stale frame", func(t *testing.T, p *Pool, f *File, fr *Frame) {
			release(t, p, fr)
			f.Free(fr.PageNum()) // freed without Discard: the frame goes stale
			g, err := p.Alloc(f)
			if err != nil || g.PageNum() != fr.PageNum() {
				t.Fatalf("Alloc = page %v, %v; want the freed page %d", g, err, fr.PageNum())
			}
			release(t, p, g)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := NewDisk(64)
			p := NewPool(d, NewMeter(), 2)
			f := d.Open("r")
			for i := 0; i < 3; i++ {
				if err := f.writePage(f.Alloc(), bytes.Repeat([]byte{0x11}, 64)); err != nil {
					t.Fatal(err)
				}
			}
			fr, err := p.Get(f, 0)
			if err != nil {
				t.Fatal(err)
			}
			kept := fr.Data
			c.leave(t, p, f, fr)
			if fr.Data != nil {
				t.Fatal("a recycled frame kept its Data")
			}
			if !bytes.Equal(kept, bytes.Repeat([]byte{poisonByte}, 64)) {
				t.Fatalf("the slice kept past Release reads %x, not poison", kept)
			}
			defer func() {
				if recover() == nil {
					t.Error("a read through a recycled frame did not panic")
				}
			}()
			_ = fr.Data[0]
		})
	}
}
