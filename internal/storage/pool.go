package storage

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Pool is an LRU buffer pool with pinning: one operation's. All page
// access in the engine goes through a Pool, which charges its Meter: one
// read per miss, one write per dirty page written back.
//
// Write policy: write-back, and nothing else. A release never writes;
// a dirty frame is written back when it is evicted, at FlushAll, which
// is how a caller closes a write scope, or at Close: every page the
// scope dirtied is written once, however many times its rows touched it
// — one write per block, the charge Yao's y(n, m, k) prices a batch at.
// A pool-wide dirty count makes the FlushAll of a scope that dirtied
// nothing free: it walks no entry.
//
// Cost-model fidelity: Hanson's formulas count *distinct* pages touched
// per operation (that is what the Yao function estimates) and assume
// pages read for one phase of an operation stay resident for the rest
// of it (e.g. R2's pages persist across the A-join and D-join of a
// refresh, §3.4.1), with nothing carried over from one operation to the
// next. A pool belongs to one operation and is cold when the operation
// takes it, so it reproduces exactly that accounting: what an operation
// is charged depends on its own page accesses alone, never on another
// operation's, whether the two run one after the other or at once. At
// its end the operation Closes the pool — its dirty frames written back,
// every entry dropped — and the next operation may take it again, cold.
//
// Readers pin page numbers; only writers get bytes. The charge depends
// only on which pages are resident, in LRU order, so the pool keeps an
// entry per resident page, and a frame buffer only where a writer needs
// one. Read and ReadBatch pin an entry exactly as Get does — same
// recency position, capacity slot and one metered read per miss — and
// run the caller's function on the page while it is pinned: on the
// entry's bytes when a writer gave it some (Alloc, a dirty frame, a
// Get), on the on-disk image in place, under the file's read lock,
// otherwise. So a clean miss copies nothing, and a page whose frame is
// newer than its image is never read from the image. Get and Alloc are
// the writer API: they return a *Frame whose Data is the page, and a Get
// that hits a reader's entry fills it from the image — a hit, charged
// nothing.
//
// Entries are indexed by page number: the pool keeps one table per file
// it has touched, a slice of its resident pages by page number, found by
// comparing the file with the last one looked up and then with each
// table in turn (an operation touches a handful of files). So a lookup,
// an insert and a drop index an array and hash nothing. A table is sized
// from its file's page count at first use and doubles when the file
// outgrows it; Close keeps the arrays for the operation that takes the
// pool next.
//
// Concurrency: a pool serves one goroutine and takes no lock of its own.
// Operations that run at once have pools of their own over the shared
// page images, and the engine's reader/writer lock keeps a page's image
// from changing while another operation reads it: writers run alone, or
// on disjoint files. The file's read lock is taken for an in-place read,
// so that the values kept beside images (Derive) never straddle a
// change. No latency is slept under a lock.
//
// Frame arena: page buffers are shared by the pools of one disk (an
// Arena), guarded by the arena's lock; entries are per pool. A buffer
// goes back to the arena the moment its frame has left the table and has
// no pin — eviction, Close, Discard of an unpinned frame, the final
// Release of an orphan, Alloc replacing a stale frame — and the frame's
// Data is set to nil, so a writer that kept the frame past its last
// unpin panics instead of reading whatever page the slot holds next. In
// test binaries the buffer is also overwritten with a poison pattern, so
// a caller that kept the slice itself reads garbage. Only writers take
// buffers (Alloc, and a Get of a page with none), so the arena holds
// write frames only. The arena's free list and each pool's spare entries
// hold at most capacity of each; anything freed beyond the cap is left to
// the garbage collector.
type Pool struct {
	arena *Arena
	meter *Meter

	resident int    // entries in the tables, the list's length
	reported int    // resident as last added to the arena's count
	mru, lru *Frame // the recency list runs from mru through Frame.older to lru
	tables   []table
	last     int      // the table looked up last
	spare    []*Frame // recycled entries, at most capacity
	// dirty counts the dirty frames in the tables, as every file's
	// dirtyFrames counts its own.
	dirty atomic.Int64

	// traceIO, set only by the package's tests, hears every charged page
	// transfer in the order it is charged: a read per miss, a write per
	// write-back.
	traceIO func(write bool, key frameKey)
}

// table is a pool's entry table for one file: the entry of each resident
// page by page number, nil for the rest.
type table struct {
	file   *File
	frames []*Frame
}

// Arena is the page-buffer arena the pools of one disk share, and the
// count of the entries the pools it made hold.
type Arena struct {
	disk     *Disk
	capacity int

	mu     sync.Mutex // guards slots, live and peak
	slots  [][]byte   // recycled page buffers, at most capacity
	poison []byte     // one page of poisonByte, copied over each recycled slot; never written
	// Page buffers the arena holds — in frames, on their way into one,
	// or free — now and at most (the arena tests read them).
	live, peak int

	resident atomic.Int64
}

// poisonSlots turns on poison-on-recycle in every test binary, so every
// test that drives a pool — the property layers, the crash sweep, the
// race runs — reads a stale slot as garbage, never as a plausible page.
var poisonSlots = testing.Testing()

// checkInPlace turns on, in every test binary, the check of the rule
// that makes reading an image in place sound (see Read): no write-back
// of a page happens while an in-place read of it is pinned, and a page
// with a dirty frame is never read from its image. A violation fails
// the operation that commits it.
var checkInPlace = testing.Testing()

// poisonByte fills a recycled slot under test: as a page type byte it
// names no page the engine writes, so a stale decode fails loudly.
const poisonByte = 0xA5

// frameKey names a page for the trace and for messages.
type frameKey struct {
	file string
	pn   PageNum
}

// Frame is a page's entry in the pool. A writer's frame (from Get or
// Alloc) has Data, the mutable page image, an arena slot: callers that
// modify it must call MarkDirty, and every caller must keep the frame
// pinned while using it and keep neither the frame nor an alias of Data
// past its Release (both are recycled once the frame leaves the table
// unpinned). A reader's entry has no Data.
type Frame struct {
	pool  *Pool
	file  *File
	tab   int // the index of file's table in the pool
	pn    PageNum
	Data  []byte
	dirty atomic.Bool
	pins  int32
	// orphan marks a frame discarded while pinned: it is no longer in
	// the table and its final Release must not write it back (the page
	// may have been freed and reallocated).
	orphan bool
	// inPlace counts the pins of reads running on the image rather than
	// on Data.
	inPlace int32
	// derived is the value a reader derived from Data (Derive), or the
	// one a writer kept for the bytes it wrote (Keep); nil where there is
	// none: cleared by every Get, every MarkDirty and recycling, so it
	// never outlives the bytes it stands for. A reader's entry reads the
	// image and keeps none here; the image carries its own.
	derived atomic.Pointer[derivation]
	// newer and older link the entry into the recency list.
	newer, older *Frame
}

// DefaultPoolCapacity is the default number of resident frames: with
// 4000-byte pages this is ~1 MB, the paper's "very large main memory"
// that holds R2 during a nested-loop join (§3.4.3).
const DefaultPoolCapacity = 256

// NewArena creates the page-buffer arena of pools of capacity frames
// over the disk. capacity ≤ 0 selects DefaultPoolCapacity.
func NewArena(disk *Disk, capacity int) *Arena {
	if capacity <= 0 {
		capacity = DefaultPoolCapacity
	}
	a := &Arena{disk: disk, capacity: capacity}
	if poisonSlots {
		a.poison = bytes.Repeat([]byte{poisonByte}, disk.PageSize())
	}
	return a
}

// NewPool returns a cold pool of the arena's capacity charging meter.
func (a *Arena) NewPool(meter *Meter) *Pool {
	return &Pool{arena: a, meter: meter}
}

// Capacity returns the frame capacity of the arena's pools.
func (a *Arena) Capacity() int { return a.capacity }

// Resident returns the entries the arena's pools hold now: 0 when no
// operation is running.
func (a *Arena) Resident() int { return int(a.resident.Load()) }

// table returns the index of f's table, making one when the pool has
// none — on a table array an earlier operation left, when there is one.
// It compares f with the file looked up last, then with each table in
// turn.
func (p *Pool) table(f *File) int {
	if p.last < len(p.tables) && p.tables[p.last].file == f {
		return p.last
	}
	for i := range p.tables {
		if p.tables[i].file == f {
			p.last = i
			return i
		}
	}
	p.tables = slices.Grow(p.tables, 1)[:len(p.tables)+1]
	p.last = len(p.tables) - 1
	p.tables[p.last].file = f
	return p.last
}

// entry returns the entry in table t for page pn, nil when the page is
// not resident.
func (p *Pool) entry(t int, pn PageNum) *Frame {
	if frames := p.tables[t].frames; int(pn) < len(frames) {
		return frames[pn]
	}
	return nil
}

// insert enters fr in its file's table as the most recently used entry.
// A table too short for the page grows to at least the file's page
// count, pages (a lower bound will do), and at least doubles, so a file
// that grows a page at a time reallocates its table only O(log n) times.
func (p *Pool) insert(fr *Frame, pages int) {
	t := &p.tables[fr.tab]
	if int(fr.pn) >= len(t.frames) {
		grown := make([]*Frame, max(pages, int(fr.pn)+1, 2*len(t.frames)))
		copy(grown, t.frames)
		t.frames = grown
	}
	t.frames[fr.pn] = fr
	p.resident++
	p.pushFront(fr)
}

// touch moves a hit entry to the new end of the list.
func (p *Pool) touch(fr *Frame) {
	p.unlink(fr)
	p.pushFront(fr)
}

// pushFront links fr in as the most recently used entry.
func (p *Pool) pushFront(fr *Frame) {
	fr.newer, fr.older = nil, p.mru
	if p.mru != nil {
		p.mru.newer = fr
	} else {
		p.lru = fr
	}
	p.mru = fr
}

// unlink takes fr out of the recency list.
func (p *Pool) unlink(fr *Frame) {
	if fr.newer != nil {
		fr.newer.older = fr.older
	} else {
		p.mru = fr.older
	}
	if fr.older != nil {
		fr.older.newer = fr.newer
	} else {
		p.lru = fr.newer
	}
	fr.newer, fr.older = nil, nil
}

// report adds the change in resident entries since the last report to
// the arena's count: once a call, not once an entry.
func (p *Pool) report() {
	if d := p.resident - p.reported; d != 0 {
		p.arena.resident.Add(int64(d))
		p.reported = p.resident
	}
}

// Capacity returns the pool's frame capacity.
func (p *Pool) Capacity() int { return p.arena.capacity }

// PageSize returns the underlying disk's page size.
func (p *Pool) PageSize() int { return p.arena.disk.PageSize() }

// Resident returns the number of pages currently in the pool.
func (p *Pool) Resident() int { return p.resident }

// sleepIO simulates the wall-clock cost of n physical page transfers.
func (p *Pool) sleepIO(n int) {
	if n <= 0 {
		return
	}
	if d := p.arena.disk.IOLatency(); d > 0 {
		time.Sleep(time.Duration(n) * d)
	}
}

// Get pins and returns the frame for (file, pn) with the page's bytes,
// reading it from disk (one metered read) on a miss — the writer's
// access; readers use Read.
func (p *Pool) Get(f *File, pn PageNum) (*Frame, error) {
	fr, err := p.pinWrite(f, pn)
	wrote := 0
	if err == nil {
		wrote, err = p.evict()
	}
	p.report()
	p.sleepIO(wrote)
	if err != nil {
		return nil, err
	}
	return fr, nil
}

// Read runs fn on page (file, pn) while it is pinned, then releases it:
// a ReadBatch of one page. It is charged exactly as a Get followed by a
// Release: one read on a miss, with the same recency position and
// capacity slot. A page a writer gave bytes (Alloc, a dirty frame, a
// Get) is read from them; any other is read in place, from its image
// under the file's read lock, so a miss copies nothing. fn must keep
// nothing aliasing page and must not touch the pool or the file's pages.
//
// Reading an image in place is sound because a pin holds two things
// still. No write-back happens while the in-place pin is held: write-
// backs happen only at eviction and at a flush, both of which skip
// pinned frames. And a page with a dirty frame is
// never read from its image: the frame has bytes (only writers dirty a
// frame, and they get bytes), so the read runs on them. Every test
// binary checks both (checkInPlace).
func (p *Pool) Read(f *File, pn PageNum, fn func(page []byte) error) error {
	return p.ReadBatch(f, []PageNum{pn}, func(_ int, page []byte) error { return fn(page) })
}

// ReadBatch runs fn(i, page) on each page pns[i] in turn, the whole
// window pinned first. Each page is charged exactly as a separate Read
// would charge it — one read per miss, hits free, write-backs for
// whatever the inserts evict — but the window's misses are metered with
// one charge, and the simulated latency of all misses and eviction
// writes is slept once. That single combined sleep is the readahead win:
// a sequential scan pays one timer wait per window instead of one per
// page. Callers must keep the batch well under the pool capacity. After
// the first error fn runs no more.
//
// The file's read lock is taken twice: for the pin pass, where a miss
// checks that its page exists, and for the pass that runs fn. The
// victims are the same entries an insert-by-insert pass would have
// chosen: window entries are pinned and at the new end of the list, so
// they are never candidates, and the least-recently-used unpinned
// entries are evicted in the same order either way.
func (p *Pool) ReadBatch(f *File, pns []PageNum, fn func(i int, page []byte) error) error {
	return p.readBatch(f, pns, func(i int, page []byte, _ *atomic.Pointer[derivation]) error { return fn(i, page) })
}

// Derive runs fn on page (f, pn) as Read does, and keeps what fn makes of
// the page's bytes beside them, so that the next reader of the same bytes
// is handed it instead of deriving it again: a DeriveBatch of one page. d
// is the value published for the bytes fn reads, nil when there is none;
// fn returns the value they derive — d itself, when it has one — and
// Derive returns it. A value fn returns for a nil d is published unless fn
// fails; a nil one publishes nothing. The value must depend on the page's
// bytes alone, and no one may change it once published: concurrent
// readers share it.
//
// An in-place read publishes on the image, where the value lasts until
// the image changes (File.writePage, a freed page's reuse, Free; a
// restored disk starts with none), across operations and evictions. A
// read of a writer's bytes publishes on its frame, where every Get, every
// MarkDirty and the frame's recycling clear it.
//
// Every deriver shares the one slot an image (or a frame) has: a B+-tree
// descent keeps an internal page's node there, a read of a leaf its lanes
// (colpage's kept lanes). Each deriver ignores a value that is not its own — it
// derives afresh and publishes nothing, since the slot is taken.
func (p *Pool) Derive(f *File, pn PageNum, fn func(page []byte, d any) (any, error)) (v any, err error) {
	err = p.DeriveBatch(f, []PageNum{pn}, func(_ int, page []byte, d any) (any, error) {
		var err error
		v, err = fn(page, d)
		return v, err
	})
	return v, err
}

// DeriveBatch is Derive over a window: fn(i, page, d) runs on each page
// pns[i] in turn, pinned and charged exactly as ReadBatch pins and charges
// the window, with the value published for that page's bytes, and what it
// returns is published as Derive publishes it. After the first error fn
// runs no more.
func (p *Pool) DeriveBatch(f *File, pns []PageNum, fn func(i int, page []byte, d any) (any, error)) error {
	return p.readBatch(f, pns, func(i int, page []byte, slot *atomic.Pointer[derivation]) error {
		var d any
		if pub := slot.Load(); pub != nil {
			d = pub.v
		}
		v, err := fn(i, page, d)
		if err == nil && d == nil && v != nil {
			slot.Store(&derivation{v})
		}
		return err
	})
}

// readBatch is ReadBatch, handing fn each page's derived-value slot too:
// its frame's, or its image's for an in-place read.
func (p *Pool) readBatch(f *File, pns []PageNum, fn func(i int, page []byte, slot *atomic.Pointer[derivation]) error) error {
	var window [32]held // a scan window's cap (colpage.Scan): it stays on the stack
	pinned := window[:0]
	misses, wrote := 0, 0
	var err error
	t := p.table(f)
	f.mu.RLock()
	for _, pn := range pns {
		fr, inPlace, missed, perr := p.pinRead(t, f, pn)
		if perr != nil {
			err = perr
			break
		}
		if missed {
			misses++
		}
		pinned = append(pinned, held{fr, inPlace})
	}
	// A dirty victim's write-back takes its file's write lock.
	f.mu.RUnlock()
	if misses > 0 {
		p.meter.Read(int64(misses))
	}
	if err == nil {
		wrote, err = p.evict()
	}
	p.report()
	p.sleepIO(misses + wrote)
	if err == nil {
		err = p.viewWindow(f, pinned, fn)
	}
	for _, h := range pinned {
		if rerr := p.unpin(h.fr, h.inPlace); err == nil {
			err = rerr
		}
	}
	return err
}

// pinRead pins a reader's entry for (f, pn), f's table t, with f's read
// lock held. A miss does no I/O: it publishes an entry without bytes
// once the page is known to exist, and the caller charges the read and
// sleeps its latency. inPlace reports that the pinned entry has no bytes,
// so the reader runs on the image. The caller owns the eviction pass.
func (p *Pool) pinRead(t int, f *File, pn PageNum) (fr *Frame, inPlace, missed bool, err error) {
	if hit := p.entry(t, pn); hit != nil {
		p.touch(hit)
		hit.pins++
		if inPlace = hit.Data == nil; inPlace {
			hit.inPlace++
		}
		return hit, inPlace, false, nil
	}
	if _, err := f.pageLocked(pn); err != nil {
		return nil, false, false, err
	}
	if p.traceIO != nil {
		p.traceIO(false, frameKey{f.name, pn})
	}
	fr = p.newFrame(f, t, pn, nil)
	fr.pins, fr.inPlace = 1, 1
	p.insert(fr, len(f.pages))
	return fr, true, true, nil
}

// pinWrite pins the frame for (f, pn) with the page's bytes. A miss
// copies the image into an arena slot, charging one read and sleeping
// its latency; a hit on a reader's entry fills it from the image,
// uncharged. The caller owns the eviction pass.
func (p *Pool) pinWrite(f *File, pn PageNum) (fr *Frame, err error) {
	t := p.table(f)
	if hit := p.entry(t, pn); hit != nil {
		if hit.Data == nil {
			// A reader's entry: fill it for the writer, charging nothing.
			if hit.Data, err = p.readImage(f, pn); err != nil {
				return nil, err
			}
		}
		// The writer may change the bytes a reader derived from.
		hit.derived.Store(nil)
		p.touch(hit)
		hit.pins++
		return hit, nil
	}
	buf, err := p.readImage(f, pn)
	if err != nil {
		return nil, err
	}
	p.meter.Read(1)
	if p.traceIO != nil {
		p.traceIO(false, frameKey{f.name, pn})
	}
	p.sleepIO(1)
	fr = p.newFrame(f, t, pn, buf)
	fr.pins = 1
	p.insert(fr, int(pn)+1)
	return fr, nil
}

// readImage copies page pn's image into an arena slot, under the
// file's read lock.
func (p *Pool) readImage(f *File, pn PageNum) ([]byte, error) {
	buf := p.arena.takeSlot()
	if err := f.View(pn, func(src []byte) error {
		copy(buf, src)
		return nil
	}); err != nil {
		p.arena.putSlot(buf)
		return nil, err
	}
	return buf, nil
}

// held is one pinned page of a ReadBatch window.
type held struct {
	fr      *Frame
	inPlace bool
}

// viewWindow runs fn(i, page, slot) on each page of a pinned window of
// f, in order, under one hold of f's read lock (released even if fn
// panics), until fn fails.
func (p *Pool) viewWindow(f *File, pinned []held, fn func(i int, page []byte, slot *atomic.Pointer[derivation]) error) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for i, h := range pinned {
		if err := p.viewLocked(h.fr, h.inPlace, i, fn); err != nil {
			return err
		}
	}
	return nil
}

// viewLocked runs fn(i, page, slot) on a pinned entry's page, with its
// file's read lock held: on its bytes and with its frame's slot, or in
// place on the image, with the image's slot, when the pin is an in-place
// one.
func (p *Pool) viewLocked(fr *Frame, inPlace bool, i int, fn func(i int, page []byte, slot *atomic.Pointer[derivation]) error) error {
	if !inPlace {
		return fn(i, fr.Data, &fr.derived)
	}
	page, err := fr.file.pageLocked(fr.pn)
	if err == nil {
		err = fn(i, page, &fr.file.derived[fr.pn])
	}
	// The pin keeps the frame from being written back, so a dirty bit
	// seen now was set while the image was being read: a writer changed
	// the page under an in-place read of it.
	if checkInPlace && err == nil && fr.dirty.Load() {
		err = fmt.Errorf("storage: page %v read in place while a writer dirtied its frame", fr.key())
	}
	return err
}

// Alloc allocates a fresh page in the file and returns it pinned. The
// page is born dirty (it must eventually be written) but its first
// write is charged like any other: at its eviction or the flush that
// closes its scope. No read is charged for a newborn page, which
// is zeroed like the disk's, whatever its slot held before.
func (p *Pool) Alloc(f *File) (*Frame, error) {
	pn := f.Alloc()
	buf := p.arena.takeSlot()
	clear(buf)
	t := p.table(f)
	fr := p.newFrame(f, t, pn, buf)
	fr.pins = 1
	fr.MarkDirty()
	if stale := p.entry(t, pn); stale != nil {
		// A stale entry for a previously freed page number that was
		// never discarded; drop it rather than leaking a list entry.
		p.drop(stale)
	}
	p.insert(fr, int(pn)+1)
	wrote, err := p.evict()
	p.report()
	p.sleepIO(wrote)
	if err != nil {
		return nil, err
	}
	return fr, nil
}

// PageNum returns the page number of the frame.
func (fr *Frame) PageNum() PageNum { return fr.pn }

// key names the frame's page for the trace and for messages.
func (fr *Frame) key() frameKey {
	var name string
	if fr.file != nil { // nil once recycled
		name = fr.file.name
	}
	return frameKey{name, fr.pn}
}

// MarkDirty records that the frame's data has been modified, and drops
// the value a reader derived from it. The first marking also bumps the
// file's dirty-frame count, which gates the unmetered readahead walks
// (see File.HasDirtyFrames), and the pool's.
func (fr *Frame) MarkDirty() {
	fr.derived.Store(nil)
	if fr.dirty.CompareAndSwap(false, true) {
		fr.file.dirtyFrames.Add(1)
		fr.pool.dirty.Add(1)
	}
}

// Keep publishes v as the value derived from the frame's bytes (see
// Derive), for a writer that has just written them from v: the next
// reader of the frame is handed v instead of deriving it. Call it after
// the last MarkDirty of the write, which would drop it; the rules of
// Derive's values hold for v.
func (fr *Frame) Keep(v any) { fr.derived.Store(&derivation{v}) }

// clean clears the frame's dirty bit and both counts it bumped.
func (fr *Frame) clean() {
	if fr.dirty.CompareAndSwap(true, false) {
		fr.file.dirtyFrames.Add(-1)
		fr.pool.dirty.Add(-1)
	}
}

// Release unpins a frame obtained from Get or Alloc. It writes nothing:
// a dirty frame stays dirty until its eviction or the next flush.
func (p *Pool) Release(fr *Frame) error { return p.unpin(fr, false) }

// unpin drops one pin of fr — an in-place read's when inPlace is set.
func (p *Pool) unpin(fr *Frame, inPlace bool) error {
	if fr.pins <= 0 {
		return fmt.Errorf("storage: release of unpinned frame %v", fr.key())
	}
	if inPlace {
		fr.inPlace--
	}
	if fr.pins--; fr.pins == 0 && fr.orphan {
		// Discarded while pinned: the page may be freed or reallocated,
		// so the stale image must never be written. This was the last
		// holder; the entry is free now.
		p.recycle(fr)
	}
	return nil
}

// writeBack flushes a dirty frame to disk, charging one write. Every
// caller writes back an unpinned frame, so no in-place read of the page
// is pinned; a test binary checks it.
func (p *Pool) writeBack(fr *Frame) error {
	if checkInPlace && fr.inPlace > 0 {
		return fmt.Errorf("storage: write-back of page %v under %d in-place read(s)", fr.key(), fr.inPlace)
	}
	if err := fr.file.writePage(fr.pn, fr.Data); err != nil {
		return err
	}
	p.meter.Write(1)
	if p.traceIO != nil {
		p.traceIO(true, fr.key())
	}
	fr.clean()
	return nil
}

// evict evicts the least-recently-used unpinned entries, oldest first
// and each written back first when dirty, until the pool is within
// capacity, returning how many it wrote back (the caller sleeps their
// latency). One walk from the list's old end serves the whole overflow.
func (p *Pool) evict() (wrote int, err error) {
	fr := p.lru
	for p.resident > p.arena.capacity {
		if fr == nil {
			// Every entry is pinned: name them, so a pin leak is
			// attributable.
			return wrote, fmt.Errorf("storage: buffer pool full of pinned frames (capacity %d; pinned: %s)",
				p.arena.capacity, strings.Join(p.PinnedFrames(), ", "))
		}
		victim := fr
		fr = fr.newer
		if victim.pins > 0 {
			continue
		}
		if victim.dirty.Load() {
			if err := p.writeBack(victim); err != nil {
				return wrote, err
			}
			wrote++
		}
		p.drop(victim)
	}
	return wrote, nil
}

// drop takes fr out of the table: back to the arena when it has no pin,
// orphaned otherwise (its slot returns at the final Release).
func (p *Pool) drop(fr *Frame) {
	p.unlink(fr)
	p.tables[fr.tab].frames[fr.pn] = nil
	p.resident--
	if fr.pins > 0 {
		fr.orphan = true
		return
	}
	p.recycle(fr)
}

// Discard drops the entry for (file, pn) without flushing, regardless
// of dirtiness. Callers use it immediately before freeing a page on
// disk, so a stale dirty frame can never be written to a reallocated
// page. If the entry is pinned it is orphaned instead: the holders keep
// their (now detached) frame, and its final Release recycles it.
func (p *Pool) Discard(f *File, pn PageNum) {
	fr := p.entry(p.table(f), pn)
	if fr == nil {
		return
	}
	fr.clean()
	p.drop(fr)
	p.report()
}

// FlushAll writes back every dirty unpinned frame (charging writes)
// without evicting, newest first, and sleeps their latency: the close of
// a write scope. Pinned dirty frames are skipped: their owner is still
// mutating them, and the flush that closes its own scope, or an
// eviction, writes them. When no frame is dirty it walks nothing.
func (p *Pool) FlushAll() error {
	wrote := 0
	var err error
	for fr := p.mru; fr != nil && p.dirty.Load() > 0; fr = fr.older {
		if fr.pins == 0 && fr.dirty.Load() {
			if err = p.writeBack(fr); err != nil {
				break
			}
			wrote++
		}
	}
	p.sleepIO(wrote)
	return err
}

// Close ends the operation the pool served: it writes back every dirty
// frame, charging the writes, and drops every entry, so the pool is cold
// for the operation that takes it next. A frame still pinned is a leak:
// Close drops the rest and fails, naming the pinned pages. A pool whose
// Close failed must not be used again.
func (p *Pool) Close() error {
	err := p.evictAll()
	if err == nil && p.resident > 0 {
		err = fmt.Errorf("storage: pin leak at the end of an operation: %s", strings.Join(p.PinnedFrames(), ", "))
	}
	for i := range p.tables {
		p.tables[i].file = nil // keep the array, not the file
	}
	p.tables, p.last = p.tables[:0], 0
	return err
}

// evictAll flushes and drops every unpinned entry.
func (p *Pool) evictAll() error {
	err := p.FlushAll()
	if err == nil {
		for fr := p.mru; fr != nil; {
			older := fr.older
			if fr.pins == 0 {
				p.drop(fr)
			}
			fr = older
		}
	}
	p.report()
	return err
}

// newFrame returns an entry for (f, pn) in table t, recycled when the
// pool has one, holding data (nil for a reader's entry) and nothing
// else.
func (p *Pool) newFrame(f *File, t int, pn PageNum, data []byte) *Frame {
	var fr *Frame
	if n := len(p.spare); n > 0 {
		fr = p.spare[n-1]
		p.spare = p.spare[:n-1]
	} else {
		fr = new(Frame)
	}
	fr.pool, fr.file, fr.tab, fr.pn, fr.Data = p, f, t, pn, data
	fr.dirty.Store(false)
	fr.pins, fr.orphan, fr.inPlace = 0, false, 0
	return fr
}

// recycle returns an entry that has left the table and has no pin to
// the pool's spares, its buffer to the arena. Nothing may use the frame
// after this: its Data and file are nil until it is handed out again.
func (p *Pool) recycle(fr *Frame) {
	fr.clean() // an orphan its holder dirtied after the Discard
	if fr.Data != nil {
		p.arena.putSlot(fr.Data)
		fr.Data = nil
	}
	if fr.derived.Load() != nil {
		fr.derived.Store(nil)
	}
	fr.file = nil
	if len(p.spare) < p.arena.capacity {
		p.spare = append(p.spare, fr)
	}
}

// takeSlot returns a page buffer for a frame about to enter a table: a
// recycled one when the arena has one, a new one otherwise. Its bytes
// are whatever the slot last held; the caller overwrites all of them.
func (a *Arena) takeSlot() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.slots); n > 0 {
		buf := a.slots[n-1]
		a.slots = a.slots[:n-1]
		return buf
	}
	a.live++
	a.peak = max(a.peak, a.live)
	return make([]byte, a.disk.PageSize())
}

// putSlot adds a buffer no frame owns to the arena, poisoned under
// test, or drops it when the arena already holds capacity buffers.
func (a *Arena) putSlot(buf []byte) {
	if poisonSlots {
		copy(buf, a.poison)
	}
	a.mu.Lock()
	if len(a.slots) < a.capacity {
		a.slots = append(a.slots, buf)
	} else {
		a.live--
	}
	a.mu.Unlock()
}

// PinnedFrames describes every pinned entry ("file:page(pins=n)",
// sorted), for diagnostics and the pin-leak test helper.
func (p *Pool) PinnedFrames() []string {
	var out []string
	for fr := p.mru; fr != nil; fr = fr.older {
		if fr.pins > 0 {
			out = append(out, fmt.Sprintf("%s:%d(pins=%d)", fr.file.name, fr.pn, fr.pins))
		}
	}
	sort.Strings(out)
	return out
}

// AssertUnpinned fails the test if any frame is still pinned — a pin
// leak. The parameter is the minimal slice of testing.TB needed, so a
// test can hand it a recorder (testing.TB has an unexported method).
func (p *Pool) AssertUnpinned(t interface {
	Helper()
	Errorf(format string, args ...any)
}) {
	t.Helper()
	if pinned := p.PinnedFrames(); len(pinned) > 0 {
		t.Errorf("storage: pin leak: %d frame(s) still pinned: %s",
			len(pinned), strings.Join(pinned, ", "))
	}
}
