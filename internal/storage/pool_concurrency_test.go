package storage

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// ReadBatch charges exactly what per-page Gets would: one read per miss,
// nothing for hits; and it hands fn each page of the window, in order.
func TestPoolGetBatchChargesLikeGets(t *testing.T) {
	d := NewDisk(64)
	m := NewMeter()
	p := NewArena(d, 64).NewPool(m)
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
	p := NewArena(d, 4).NewPool(m)
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
	p := NewArena(d, 1).NewPool(NewMeter())
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
	p := NewArena(d, 8).NewPool(NewMeter())
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

// arena reports the page buffers the pool's arena holds now and at
// most, and how many of them are free.
func (p *Pool) arenaState() (live, peak, free int) {
	a := p.arena
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.live, a.peak, len(a.slots)
}

// The arena the pools of a disk share stays bounded through everything
// that moves frames: a bulk load of ten times the capacity, writers on
// pools of their own at once, each evicting its dirty frames to the
// other's next Get, Close, and Discard of a pinned frame. A buffer is
// made only when none is free, i.e. when every one is in a frame, and a
// pool holds more frames than its capacity only between a Get's insert
// and its eviction pass. The arena's count of resident entries covers
// every pool and reads 0 once all are closed. Run under -race.
func TestPoolArenaBounded(t *testing.T) {
	const capacity, writers = 16, 2
	const pages = 10 * capacity
	const bound = writers * (capacity + 1)
	d := NewDisk(64)
	a := NewArena(d, capacity)
	p := a.NewPool(NewMeter())
	f := d.Open("r")
	check := func(stage string) {
		t.Helper()
		if _, peak, free := p.arenaState(); peak > bound || free > capacity {
			t.Fatalf("%s: up to %d buffers held (bound %d), %d free (bound %d)",
				stage, peak, bound, free, capacity)
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
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	check("Close after the load")

	var wg sync.WaitGroup
	for s := 0; s < writers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			q := a.NewPool(NewMeter())
			const own = pages / writers
			for i := 0; i < 3*own; i++ {
				pn := PageNum(s*own + i%own)
				fr, err := q.Get(f, pn)
				if err != nil {
					t.Error(err)
					return
				}
				if got := PageNum(fr.Data[0]) | PageNum(fr.Data[1])<<8; got != pn {
					t.Errorf("page %d reads as page %d", pn, got)
				}
				fr.Data[2]++
				fr.MarkDirty()
				if err := q.Release(fr); err != nil {
					t.Error(err)
					return
				}
			}
			if err := q.Close(); err != nil {
				t.Error(err)
			}
		}(s)
	}
	wg.Wait()
	check("writers on pools of their own")
	if n := a.Resident(); n != 0 {
		t.Errorf("%d entries resident with every pool closed", n)
	}
	for pn := PageNum(0); pn < pages; pn++ {
		if page, _ := f.Peek(pn); page[2] != 3 {
			t.Fatalf("page %d holds %d of its 3 writes", pn, page[2])
		}
	}

	fr, err := p.Get(f, 7)
	if err != nil {
		t.Fatal(err)
	}
	p.Discard(f, 7)
	if err := p.Release(fr); err != nil {
		t.Fatal(err)
	}
	check("Discard of a pinned frame")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if live, _, free := p.arenaState(); a.Resident() != 0 || free != live || live > capacity {
		t.Errorf("idle arena: %d resident, %d of %d buffers free (cap %d)", a.Resident(), free, live, capacity)
	}
}

// An orphan (a frame discarded while pinned) keeps its slot, bytes
// intact, for as long as any holder has it: the slot returns at the
// final Release, not at Discard and not at an earlier one.
func TestPoolArenaOrphanSlotReturnsAtFinalRelease(t *testing.T) {
	d := NewDisk(64)
	p := NewArena(d, 4).NewPool(NewMeter())
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
	_, _, free0 := p.arenaState()
	p.Discard(f, pn)
	if _, _, free := p.arenaState(); free != free0 {
		t.Fatalf("Discard of a pinned frame freed its slot (%d → %d free)", free0, free)
	}
	if err := p.Release(a); err != nil {
		t.Fatal(err)
	}
	if _, _, free := p.arenaState(); free != free0 || !bytes.Equal(b.Data, bytes.Repeat([]byte{7}, 64)) {
		t.Fatalf("after the first of two releases: %d free (want %d), holder reads %x", free, free0, b.Data)
	}
	if err := p.Release(b); err != nil {
		t.Fatal(err)
	}
	if _, _, free := p.arenaState(); free != free0+1 || b.Data != nil {
		t.Fatalf("after the final release: %d free (want %d), Data nil %v", free, free0+1, b.Data == nil)
	}
}

// Alloc hands out a zeroed page even when its slot last held a dirty
// page (and, in a test binary, poison).
func TestPoolArenaAllocZeroesRecycledSlot(t *testing.T) {
	d := NewDisk(64)
	p := NewArena(d, 4).NewPool(NewMeter())
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
	live, _, free := p.arenaState()
	if free != 1 {
		t.Fatalf("%d free slots after evicting the one frame", free)
	}
	fr, err = p.Alloc(f)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(fr)
	if again, _, _ := p.arenaState(); again != live {
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
			p := NewArena(d, 2).NewPool(NewMeter())
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
