package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// refLRU is the pool the Pool must equal on a serial script, written
// for plainness rather than speed: one recency slice and one lock, a
// victim found by searching the slice from its old end, an eviction per
// overflowing entry. It models page contents as
// each page's first byte, on disk and in each entry.
type refLRU struct {
	mu       sync.Mutex
	capacity int
	lru      []*refEntry // oldest first
	disk     []byte      // each page's first byte
	stats    Stats
	events   []string // "r<pn>" per charged read, "w<pn>" per write-back
}

type refEntry struct {
	pn     PageNum
	pins   int
	dirty  bool
	orphan bool
	val    byte
}

func (r *refLRU) find(pn PageNum) int {
	return slices.IndexFunc(r.lru, func(e *refEntry) bool { return e.pn == pn })
}

// pin touches pn's entry, or charges a read and inserts one.
func (r *refLRU) pin(pn PageNum) *refEntry {
	if i := r.find(pn); i >= 0 {
		e := r.lru[i]
		r.lru = append(slices.Delete(r.lru, i, i+1), e)
		e.pins++
		return e
	}
	r.stats.Reads++
	r.events = append(r.events, fmt.Sprintf("r%d", pn))
	e := &refEntry{pn: pn, pins: 1, val: r.disk[pn]}
	r.lru = append(r.lru, e)
	return e
}

func (r *refLRU) writeBack(e *refEntry) {
	r.disk[e.pn] = e.val
	e.dirty = false
	r.stats.Writes++
	r.events = append(r.events, fmt.Sprintf("w%d", e.pn))
}

// evict drops the oldest unpinned entry while the list is over capacity.
func (r *refLRU) evict() error {
	for len(r.lru) > r.capacity {
		i := slices.IndexFunc(r.lru, func(e *refEntry) bool { return e.pins == 0 })
		if i < 0 {
			return fmt.Errorf("reference pool full of pinned entries")
		}
		if e := r.lru[i]; e.dirty {
			r.writeBack(e)
		}
		r.lru = slices.Delete(r.lru, i, i+1)
	}
	return nil
}

func (r *refLRU) release(e *refEntry) { e.pins-- }

// flush writes back every dirty unpinned entry, newest first.
func (r *refLRU) flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.lru) - 1; i >= 0; i-- {
		if e := r.lru[i]; e.pins == 0 && e.dirty {
			r.writeBack(e)
		}
	}
}

func (r *refLRU) get(pn PageNum) (*refEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.pin(pn)
	return e, r.evict()
}

func (r *refLRU) read(pns []PageNum) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	held := make([]*refEntry, len(pns))
	for i, pn := range pns {
		held[i] = r.pin(pn)
	}
	err := r.evict()
	vals := make([]byte, len(pns))
	for i, e := range held {
		vals[i] = e.val
		r.release(e)
	}
	return vals, err
}

func (r *refLRU) alloc() (*refEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.disk = append(r.disk, 0)
	e := &refEntry{pn: PageNum(len(r.disk) - 1), pins: 1, dirty: true}
	r.lru = append(r.lru, e)
	return e, r.evict()
}

func (r *refLRU) discard(pn PageNum) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := r.find(pn); i >= 0 {
		e := r.lru[i]
		e.dirty, e.orphan = false, e.pins > 0
		r.lru = slices.Delete(r.lru, i, i+1)
	}
}

func (r *refLRU) evictAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.lru[:0]
	for _, e := range r.lru {
		if e.pins > 0 {
			kept = append(kept, e)
			continue
		}
		if e.dirty {
			r.writeBack(e)
		}
	}
	r.lru = kept
}

// state renders the reference's resident entries oldest first.
func (r *refLRU) state() string {
	var b strings.Builder
	for _, e := range r.lru {
		fmt.Fprintf(&b, "%d(pins=%d dirty=%v) ", e.pn, e.pins, e.dirty)
	}
	return b.String()
}

// modelState renders a pool's resident entries in recency order, oldest
// first — the order the reference's list keeps.
func (p *Pool) modelState() string {
	var b strings.Builder
	for fr := p.lru; fr != nil; fr = fr.newer {
		fmt.Fprintf(&b, "%d(pins=%d dirty=%v) ", fr.pn, fr.pins, fr.dirty.Load())
	}
	return b.String()
}

// checkTable checks that the pool's entry tables and the recency list
// agree: every list entry sits in its file's table at its page, every
// entry in the tables of files is on the list, and Resident is the
// list's length. Every list entry must belong to one of files.
func (p *Pool) checkTable(files ...*File) error {
	listed := map[*Frame]bool{}
	for fr := p.mru; fr != nil; fr = fr.older {
		if !slices.Contains(files, fr.file) {
			return fmt.Errorf("list entry %v belongs to no file checked", fr.key())
		}
		if p.lookup(fr.file, fr.pn) != fr {
			return fmt.Errorf("list entry %v is not in its file's slot", fr.key())
		}
		listed[fr] = true
	}
	for _, f := range files {
		for pn, fr := range p.tables[p.table(f)].frames {
			if fr == nil {
				continue
			}
			if fr.file != f || fr.pn != PageNum(pn) {
				return fmt.Errorf("slot %s:%d holds entry %v", f.name, pn, fr.key())
			}
			if !listed[fr] {
				return fmt.Errorf("slot %s:%d holds an entry that is not on the list", f.name, pn)
			}
		}
	}
	if p.resident != len(listed) {
		return fmt.Errorf("resident %d, list length %d", p.resident, len(listed))
	}
	return nil
}

// lookup returns the pool's entry for (f, pn), nil when there is none.
func (p *Pool) lookup(f *File, pn PageNum) *Frame { return p.entry(p.table(f), pn) }

// EvictAll is the flush and drop Close runs, without Close's pin check
// and table reset: it writes back every dirty unpinned frame and drops
// every unpinned entry. The one-list scripts step through it with
// frames still held; the reference's evictAll is its model.
func (p *Pool) EvictAll() error { return p.evictAll() }

// modelPool is a pool under a differential script with what it charged.
type modelPool struct {
	p      *Pool
	f      *File
	m      *Meter
	events []string
}

func newModelPool(capacity, pages int) *modelPool {
	d := NewDisk(16)
	mp := &modelPool{m: NewMeter(), f: d.Open("r")}
	mp.p = NewArena(d, capacity).NewPool(mp.m)
	mp.p.traceIO = func(write bool, key frameKey) {
		op := "r"
		if write {
			op = "w"
		}
		mp.events = append(mp.events, fmt.Sprintf("%s%d", op, key.pn))
	}
	for i := 0; i < pages; i++ {
		if err := mp.f.writePage(mp.f.Alloc(), bytes.Repeat([]byte{byte(i + 1)}, 16)); err != nil {
			panic(err)
		}
	}
	return mp
}

// diskState renders the first byte of every page image.
func (mp *modelPool) diskState() []byte {
	out := make([]byte, mp.f.Extent())
	for pn := range out {
		_ = mp.f.View(PageNum(pn), func(page []byte) error {
			out[pn] = page[0]
			return nil
		})
	}
	return out
}

// The pool is the reference's one-list LRU: on random serial scripts of
// every pool operation — Get, Read, ReadBatch, Alloc, writes with
// MarkDirty, Release, EvictAll, FlushAll, Discard — it charges
// the same hits and misses in the same order, evicts the same victims,
// writes back in the same order (EvictAll in the same set), reads the
// same bytes, keeps the same entries in the same recency order and
// meters the same Stats as the reference; after every step the pool's
// page-indexed entry table agrees with its list. The ReadBatch windows include
// ones that repeat a page and ones whose misses overflow the capacity by
// more than one page, so one eviction pass takes several victims. Reads
// run in place on the image and writers on frame bytes, so the bytes
// each Read sees also check that a dirty frame is never read from its
// stale image.
func TestPoolMatchesOneListLRU(t *testing.T) {
	const scripts, steps = 300, 80
	const capacity, pages, maxHeld = 6, 14, 2
	repeats, overflows := 0, 0 // windows that repeat a page; that overflow by more than one
	for seed := int64(1); seed <= scripts; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := &refLRU{capacity: capacity}
		for i := 0; i < pages; i++ {
			ref.disk = append(ref.disk, byte(i+1))
		}
		mp := newModelPool(capacity, pages)
		type handle struct {
			ref   *refEntry
			frame *Frame
		}
		var held []handle
		var log []string
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d, step %d (%s): %s", seed, len(log), strings.Join(log, "; "), fmt.Sprintf(format, args...))
		}
		pagePick := func() PageNum { return PageNum(rng.Intn(len(ref.disk))) }
		for step := 0; step < steps; step++ {
			mp.events = mp.events[:0]
			ref.events = ref.events[:0]
			sortEvents := false
			switch op := rng.Intn(10); {
			case op == 0 && len(held) < maxHeld: // Get
				pn := pagePick()
				log = append(log, fmt.Sprintf("get %d", pn))
				e, err := ref.get(pn)
				if err != nil {
					fail("%v", err)
				}
				fr, err := mp.p.Get(mp.f, pn)
				if err != nil {
					fail("%v", err)
				}
				if fr.Data[0] != e.val {
					fail("Get of page %d reads %d, want %d", pn, fr.Data[0], e.val)
				}
				held = append(held, handle{e, fr})
			case op == 1 && len(held) < maxHeld: // Alloc
				log = append(log, "alloc")
				e, err := ref.alloc()
				if err != nil {
					fail("%v", err)
				}
				fr, err := mp.p.Alloc(mp.f)
				if err != nil {
					fail("%v", err)
				}
				if fr.PageNum() != e.pn {
					fail("Alloc gave page %d, want %d", fr.PageNum(), e.pn)
				}
				held = append(held, handle{e, fr})
			case op == 2 && len(held) > 0: // a holder writes its page
				i, v := rng.Intn(len(held)), byte(100+rng.Intn(100))
				h := held[i]
				log = append(log, fmt.Sprintf("write %d=%d", h.ref.pn, v))
				h.ref.val, h.ref.dirty = v, !h.ref.orphan
				h.frame.Data[0] = v
				h.frame.MarkDirty()
			case op == 3 && len(held) > 0: // Release
				i := rng.Intn(len(held))
				h := held[i]
				held = slices.Delete(held, i, i+1)
				log = append(log, fmt.Sprintf("release %d", h.ref.pn))
				ref.release(h.ref)
				if err := mp.p.Release(h.frame); err != nil {
					fail("%v", err)
				}
			case op == 4: // EvictAll
				log = append(log, "evictall")
				sortEvents = true
				ref.evictAll()
				if err := mp.p.EvictAll(); err != nil {
					fail("%v", err)
				}
			case op == 5: // FlushAll
				log = append(log, "flush")
				ref.flush()
				if err := mp.p.FlushAll(); err != nil {
					fail("%v", err)
				}
			case op == 6: // Discard
				pn := pagePick()
				log = append(log, fmt.Sprintf("discard %d", pn))
				ref.discard(pn)
				mp.p.Discard(mp.f, pn)
			case op <= 7: // Read
				pn := pagePick()
				log = append(log, fmt.Sprintf("read %d", pn))
				want, err := ref.read([]PageNum{pn})
				if err != nil {
					fail("%v", err)
				}
				if err := mp.p.Read(mp.f, pn, func(page []byte) error {
					if page[0] != want[0] {
						return fmt.Errorf("Read of page %d reads %d, want %d", pn, page[0], want[0])
					}
					return nil
				}); err != nil {
					fail("%v", err)
				}
			default: // ReadBatch of up to capacity−maxHeld pages, some repeated
				pns := make([]PageNum, 1+rng.Intn(capacity-maxHeld))
				misses := map[PageNum]bool{}
				for i := range pns {
					if pns[i] = pagePick(); i > 0 && rng.Intn(4) == 0 {
						pns[i] = pns[rng.Intn(i)]
						repeats++
					}
					misses[pns[i]] = ref.find(pns[i]) < 0
				}
				extra := len(ref.lru) - capacity
				for _, miss := range misses {
					if miss {
						extra++
					}
				}
				if extra > 1 {
					overflows++
				}
				log = append(log, fmt.Sprintf("readbatch %v", pns))
				want, err := ref.read(pns)
				if err != nil {
					fail("%v", err)
				}
				if err := mp.p.ReadBatch(mp.f, pns, func(i int, page []byte) error {
					if page[0] != want[i] {
						return fmt.Errorf("ReadBatch of page %d reads %d, want %d", pns[i], page[0], want[i])
					}
					return nil
				}); err != nil {
					fail("%v", err)
				}
			}
			wantEvents, got := ref.events, mp.events
			if sortEvents {
				slices.Sort(wantEvents)
				slices.Sort(got)
			}
			if !slices.Equal(got, wantEvents) {
				fail("charged %v, reference %v", got, wantEvents)
			}
			if got, want := mp.m.Snapshot(), ref.stats; got != want {
				fail("stats %v, reference %v", got, want)
			}
			if got, want := mp.p.modelState(), ref.state(); got != want {
				fail("resident %s\nreference %s", got, want)
			}
			if got := mp.diskState(); !bytes.Equal(got, ref.disk) {
				fail("disk %v, reference %v", got, ref.disk)
			}
			if err := mp.p.checkTable(mp.f); err != nil {
				fail("%v", err)
			}
			// The pool's dirty count: the reference's dirty entries, and
			// any orphan a holder dirtied after its Discard.
			dirty := int64(0)
			for _, e := range ref.lru {
				if e.dirty {
					dirty++
				}
			}
			orphans := map[*Frame]bool{} // two handles may hold one frame
			for _, h := range held {
				if h.ref.orphan && h.frame.dirty.Load() && !orphans[h.frame] {
					orphans[h.frame] = true
					dirty++
				}
			}
			if got := mp.p.dirty.Load(); got != dirty {
				fail("dirty count %d, want %d", got, dirty)
			}
		}
		for _, h := range held {
			if err := mp.p.Release(h.frame); err != nil {
				t.Fatal(err)
			}
		}
		mp.p.AssertUnpinned(t)
		if err := mp.p.EvictAll(); err != nil {
			t.Fatal(err)
		}
		if got := mp.p.dirty.Load(); got != 0 {
			t.Fatalf("seed %d: dirty count %d after EvictAll, want 0", seed, got)
		}
	}
	if repeats == 0 || overflows == 0 {
		t.Fatalf("the scripts ran %d windows repeating a page and %d overflowing by more than one; want both", repeats, overflows)
	}
}

// In-place soundness, violation one: a write-back of a page while an
// in-place read of it is pinned. No pool path writes back a pinned
// frame, so the test calls writeBack itself, as a future path that did
// would; the check fails it before the image is touched.
func TestPoolInPlaceWriteBackCaught(t *testing.T) {
	if !checkInPlace {
		t.Fatal("the in-place checks are off in a test binary")
	}
	d := NewDisk(64)
	p := NewArena(d, 4).NewPool(NewMeter())
	f := d.Open("r")
	pn := f.Alloc()
	err := p.Read(f, pn, func([]byte) error {
		fr := p.lookup(f, pn)
		fr.Data = bytes.Repeat([]byte{9}, 64) // as if a writer had filled it
		return p.writeBack(fr)
	})
	if err == nil || !strings.Contains(err.Error(), "in-place read") {
		t.Fatalf("write-back under an in-place read: %v, want it caught", err)
	}
	if page, _ := f.Peek(pn); page[0] != 0 {
		t.Fatal("the caught write-back reached the image")
	}
	p.AssertUnpinned(t)
}

// In-place soundness, violation two: a page with a dirty frame read from
// its image. A writer that gets and dirties the page while a read of it
// runs in place (which the engine's lock rules out) is caught when the
// read ends.
func TestPoolInPlaceReadOfDirtyFrameCaught(t *testing.T) {
	if !checkInPlace {
		t.Fatal("the in-place checks are off in a test binary")
	}
	d := NewDisk(64)
	p := NewArena(d, 4).NewPool(NewMeter())
	f := d.Open("r")
	pn := f.Alloc()
	var w *Frame
	err := p.Read(f, pn, func([]byte) error {
		var err error
		if w, err = p.Get(f, pn); err != nil {
			return err
		}
		w.Data[0] = 9
		w.MarkDirty()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "dirtied") {
		t.Fatalf("in-place read of a page dirtied under it: %v, want it caught", err)
	}
	if err := p.Release(w); err != nil {
		t.Fatal(err)
	}
	p.AssertUnpinned(t)
}

// A page a writer released dirty — its image stale until the flush —
// reads as the frame's bytes through Read and ReadBatch, and through
// either as the image once EvictAll has flushed it and dropped the frame.
func TestPoolInPlaceReadOfBulkDirtyPage(t *testing.T) {
	d := NewDisk(64)
	m := NewMeter()
	p := NewArena(d, 8).NewPool(m)
	f := d.Open("r")
	pn, other := f.Alloc(), f.Alloc()
	fr, err := p.Get(f, pn)
	if err != nil {
		t.Fatal(err)
	}
	fr.Data[0] = 7
	fr.MarkDirty()
	if err := p.Release(fr); err != nil {
		t.Fatal(err)
	}
	if page, _ := f.Peek(pn); page[0] != 0 {
		t.Fatal("a released write reached the image before the flush")
	}
	first := func(want byte) func(int, []byte) error {
		return func(i int, page []byte) error {
			if i == 0 && page[0] != want {
				return fmt.Errorf("page %d reads %d, want %d", pn, page[0], want)
			}
			return nil
		}
	}
	check := func(stage string, want byte) {
		t.Helper()
		if err := p.Read(f, pn, func(page []byte) error { return first(want)(0, page) }); err != nil {
			t.Fatalf("%s: Read: %v", stage, err)
		}
		if err := p.ReadBatch(f, []PageNum{pn, other}, first(want)); err != nil {
			t.Fatalf("%s: ReadBatch: %v", stage, err)
		}
	}
	check("dirty frame", 7)
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	if p.Resident() != 0 || m.Snapshot().Writes != 1 {
		t.Fatalf("EvictAll left %d resident after %d writes", p.Resident(), m.Snapshot().Writes)
	}
	check("flushed", 7)
	p.AssertUnpinned(t)
}

// A file removed and reopened under the same name is a new, empty file
// to the pool: an entry of the removed file's page never answers a read
// of the new file's. The read of the new file's page 0 fails until the
// page is allocated, and then reads the new bytes, charged as a miss.
func TestPoolTableRemovedFileReopened(t *testing.T) {
	d := NewDisk(64)
	m := NewMeter()
	p := NewArena(d, 4).NewPool(m)
	old := d.Open("x")
	if err := old.writePage(old.Alloc(), bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := p.Read(old, 0, func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	d.Remove("x")
	f := d.Open("x")
	before := m.Snapshot()
	err := p.Read(f, 0, func(page []byte) error {
		return fmt.Errorf("the new, empty file read page 0 as %x", page)
	})
	if err == nil || !strings.Contains(err.Error(), "has no page 0") {
		t.Fatalf("read of the reopened file's page 0: %v, want \"has no page 0\"", err)
	}
	if got := m.Snapshot().Sub(before); got != (Stats{}) {
		t.Fatalf("the failed read charged %v", got)
	}
	if err := f.writePage(f.Alloc(), bytes.Repeat([]byte{2}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := p.Read(f, 0, func(page []byte) error {
		if page[0] != 2 {
			return fmt.Errorf("the reopened file's page 0 reads %d, want 2", page[0])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Sub(before).Reads; got != 1 {
		t.Fatalf("the new page's read charged %d reads, want 1", got)
	}
	if err := p.checkTable(old, f); err != nil {
		t.Fatal(err)
	}
	p.AssertUnpinned(t)
}

// A read whose function panics lets go of the file's read lock, as
// File.View always did: a caller that recovers (the server turns a
// request's panic into an error) can still write the file. The panicked
// window's pins stay, as they always have.
func TestPoolReadPanicReleasesFileLock(t *testing.T) {
	d := NewDisk(64)
	p := NewArena(d, 4).NewPool(NewMeter())
	f := d.Open("r")
	pn := f.Alloc()
	func() {
		defer func() { _ = recover() }()
		_ = p.Read(f, pn, func([]byte) error { panic("decode failed") })
	}()
	done := make(chan struct{})
	go func() {
		f.Alloc() // takes the file's write lock
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the file's read lock is still held after a read's panic")
	}
}
