package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// refLRU is the pool the sharded one must equal on a serial script: one
// recency list and one lock, a victim found by walking the list from its
// old end, an eviction per overflowing entry. It models page contents as
// each page's first byte, on disk and in each entry.
type refLRU struct {
	mu       sync.Mutex
	capacity int
	lru      []*refEntry // oldest first
	disk     []byte      // each page's first byte
	bulk     int
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

func (r *refLRU) release(e *refEntry) {
	e.pins--
	if e.pins == 0 && !e.orphan && e.dirty && r.bulk == 0 {
		r.writeBack(e)
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

// modelState renders a pool's resident entries in pool-wide recency
// order, oldest first — the order the reference's one list keeps.
func (p *Pool) modelState() string {
	var all []*Frame
	for i := range p.shards {
		for fr := p.shards[i].mru; fr != nil; fr = fr.older {
			all = append(all, fr)
		}
	}
	slices.SortFunc(all, func(a, b *Frame) int { return int(a.lastUsed - b.lastUsed) })
	var b strings.Builder
	for _, fr := range all {
		fmt.Fprintf(&b, "%d(pins=%d dirty=%v) ", fr.key.pn, fr.pins.Load(), fr.dirty.Load())
	}
	return b.String()
}

// modelPool is a pool under a differential script with what it charged.
type modelPool struct {
	name   string
	p      *Pool
	f      *File
	m      *Meter
	events []string
}

func newModelPool(name string, shards, capacity, pages int) *modelPool {
	d := NewDisk(16)
	mp := &modelPool{name: name, m: NewMeter(), f: d.Open("r")}
	mp.p = newPoolShards(d, mp.m, capacity, shards)
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

// The sharded pool is a one-list LRU: on random serial scripts of every
// pool operation — Get, Read, ReadBatch, Alloc, writes with MarkDirty,
// Release, EvictAll, BeginBulk/EndBulk, Discard — pools of 1 and 16
// shards charge the same hits and misses in the same order, evict the
// same victims, write back in the same order (EvictAll, which flushes
// shard by shard, in the same set), read the same bytes, keep the same
// entries in the same recency order and meter the same Stats as the
// reference. Reads run in place on the image and writers on frame
// bytes, so the bytes each Read sees also check that a dirty frame is
// never read from its stale image.
func TestPoolMatchesOneListLRU(t *testing.T) {
	const scripts, steps = 300, 80
	const capacity, pages, maxHeld = 5, 12, 2
	for seed := int64(1); seed <= scripts; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := &refLRU{capacity: capacity}
		for i := 0; i < pages; i++ {
			ref.disk = append(ref.disk, byte(i+1))
		}
		pools := []*modelPool{
			newModelPool("1 shard", 1, capacity, pages),
			newModelPool("16 shards", 16, capacity, pages),
		}
		type handle struct {
			ref    *refEntry
			frames []*Frame
		}
		var held []handle
		var log []string
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d, step %d (%s): %s", seed, len(log), strings.Join(log, "; "), fmt.Sprintf(format, args...))
		}
		pagePick := func() PageNum { return PageNum(rng.Intn(len(ref.disk))) }
		for step := 0; step < steps; step++ {
			for _, mp := range pools {
				mp.events = mp.events[:0]
			}
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
				h := handle{ref: e}
				for _, mp := range pools {
					fr, err := mp.p.Get(mp.f, pn)
					if err != nil {
						fail("%s: %v", mp.name, err)
					}
					if fr.Data[0] != e.val {
						fail("%s: Get of page %d reads %d, want %d", mp.name, pn, fr.Data[0], e.val)
					}
					h.frames = append(h.frames, fr)
				}
				held = append(held, h)
			case op == 1 && len(held) < maxHeld: // Alloc
				log = append(log, "alloc")
				e, err := ref.alloc()
				if err != nil {
					fail("%v", err)
				}
				h := handle{ref: e}
				for _, mp := range pools {
					fr, err := mp.p.Alloc(mp.f)
					if err != nil {
						fail("%s: %v", mp.name, err)
					}
					if fr.PageNum() != e.pn {
						fail("%s: Alloc gave page %d, want %d", mp.name, fr.PageNum(), e.pn)
					}
					h.frames = append(h.frames, fr)
				}
				held = append(held, h)
			case op == 2 && len(held) > 0: // a holder writes its page
				i, v := rng.Intn(len(held)), byte(100+rng.Intn(100))
				h := held[i]
				log = append(log, fmt.Sprintf("write %d=%d", h.ref.pn, v))
				h.ref.val, h.ref.dirty = v, !h.ref.orphan
				for _, fr := range h.frames {
					fr.Data[0] = v
					fr.MarkDirty()
				}
			case op == 3 && len(held) > 0: // Release
				i := rng.Intn(len(held))
				h := held[i]
				held = slices.Delete(held, i, i+1)
				log = append(log, fmt.Sprintf("release %d", h.ref.pn))
				ref.release(h.ref)
				for k, mp := range pools {
					if err := mp.p.Release(h.frames[k]); err != nil {
						fail("%s: %v", mp.name, err)
					}
				}
			case op == 4: // EvictAll
				log = append(log, "evictall")
				sortEvents = true
				ref.evictAll()
				for _, mp := range pools {
					if err := mp.p.EvictAll(); err != nil {
						fail("%s: %v", mp.name, err)
					}
				}
			case op == 5: // BeginBulk or EndBulk
				if rng.Intn(2) == 0 {
					log = append(log, "beginbulk")
					ref.bulk++
					for _, mp := range pools {
						mp.p.BeginBulk()
					}
				} else {
					log = append(log, "endbulk")
					ref.bulk = max(ref.bulk-1, 0)
					for _, mp := range pools {
						mp.p.EndBulk()
					}
				}
			case op == 6: // Discard
				pn := pagePick()
				log = append(log, fmt.Sprintf("discard %d", pn))
				ref.discard(pn)
				for _, mp := range pools {
					mp.p.Discard(mp.f, pn)
				}
			case op <= 7: // Read
				pn := pagePick()
				log = append(log, fmt.Sprintf("read %d", pn))
				want, err := ref.read([]PageNum{pn})
				if err != nil {
					fail("%v", err)
				}
				for _, mp := range pools {
					if err := mp.p.Read(mp.f, pn, func(page []byte) error {
						if page[0] != want[0] {
							return fmt.Errorf("Read of page %d reads %d, want %d", pn, page[0], want[0])
						}
						return nil
					}); err != nil {
						fail("%s: %v", mp.name, err)
					}
				}
			default: // ReadBatch, a page maybe repeated
				pns := make([]PageNum, 1+rng.Intn(3))
				for i := range pns {
					pns[i] = pagePick()
				}
				log = append(log, fmt.Sprintf("readbatch %v", pns))
				want, err := ref.read(pns)
				if err != nil {
					fail("%v", err)
				}
				for _, mp := range pools {
					if err := mp.p.ReadBatch(mp.f, pns, func(i int, page []byte) error {
						if page[0] != want[i] {
							return fmt.Errorf("ReadBatch of page %d reads %d, want %d", pns[i], page[0], want[i])
						}
						return nil
					}); err != nil {
						fail("%s: %v", mp.name, err)
					}
				}
			}
			wantEvents := ref.events
			if sortEvents {
				slices.Sort(wantEvents)
			}
			for _, mp := range pools {
				got := mp.events
				if sortEvents {
					slices.Sort(got)
				}
				if !slices.Equal(got, wantEvents) {
					fail("%s: charged %v, reference %v", mp.name, got, wantEvents)
				}
				if got, want := mp.m.Snapshot(), ref.stats; got != want {
					fail("%s: stats %v, reference %v", mp.name, got, want)
				}
				if got, want := mp.p.modelState(), ref.state(); got != want {
					fail("%s: resident %s\nreference %s", mp.name, got, want)
				}
				if got := mp.diskState(); !bytes.Equal(got, ref.disk) {
					fail("%s: disk %v, reference %v", mp.name, got, ref.disk)
				}
			}
		}
		for _, h := range held {
			for k, mp := range pools {
				if err := mp.p.Release(h.frames[k]); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, mp := range pools {
			mp.p.AssertUnpinned(t)
		}
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
	p := NewPool(d, NewMeter(), 4)
	f := d.Open("r")
	pn := f.Alloc()
	err := p.Read(f, pn, func([]byte) error {
		key := frameKey{f.Name(), pn}
		sh := p.shardOf(key)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		fr := sh.frames[key]
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
	p := NewPool(d, NewMeter(), 4)
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

// A page a bulk writer left dirty — its image stale until the flush —
// reads as the frame's bytes through Read and ReadBatch, and through
// either as the image once EvictAll has flushed it and dropped the frame.
func TestPoolInPlaceReadOfBulkDirtyPage(t *testing.T) {
	d := NewDisk(64)
	m := NewMeter()
	p := NewPool(d, m, 8)
	f := d.Open("r")
	pn, other := f.Alloc(), f.Alloc()
	p.BeginBulk()
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
		t.Fatal("a bulk write reached the image before the flush")
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
	p.EndBulk()
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	if p.Resident() != 0 || m.Snapshot().Writes != 1 {
		t.Fatalf("EvictAll left %d resident after %d writes", p.Resident(), m.Snapshot().Writes)
	}
	check("flushed", 7)
	p.AssertUnpinned(t)
}
