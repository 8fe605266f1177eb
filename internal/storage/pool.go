package storage

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Pool is a sharded LRU buffer pool with pinning. All page access in
// the engine goes through a Pool, which charges the Meter: one read per
// miss, one write per dirty page written back.
//
// Cost-model fidelity: Hanson's formulas count *distinct* pages touched
// per operation (that is what the Yao function estimates) and assume
// pages read for one phase of an operation stay resident for the rest
// of it (e.g. R2's pages persist across the A-join and D-join of a
// refresh, §3.4.1). A buffer pool that caches within an operation and
// is evicted between operations reproduces exactly that accounting; the
// engine calls EvictAll at operation boundaries.
//
// Readers pin page numbers; only writers get bytes. The charge depends
// only on which pages are resident, in LRU order, so the pool keeps an
// entry per resident page, and a frame buffer only where a writer needs
// one. Read and ReadBatch pin an entry exactly as Get does — same
// clock tick, recency position, capacity slot, single-flight and one
// metered read per miss — and run the caller's function on the page
// while it is pinned: on the entry's bytes when a writer gave it some
// (Alloc, a dirty frame, a Get), on the on-disk image in place
// (File.View) otherwise. So a clean miss copies nothing, and a page
// whose frame is newer than its image is never read from the image.
// Get and Alloc are the writer API: they return a *Frame whose Data is
// the page, and a Get that hits a reader's entry fills it from the
// image under the shard lock — a hit, charged nothing.
//
// Concurrency: the entry table is split across power-of-two shards,
// each with its own mutex, entry map and recency list, so concurrent
// readers and parallel refresh workers contend only when they touch
// pages that hash to the same shard. Pin counts are atomic (their
// transitions still happen under the owning shard's lock, which keeps
// the per-shard unpinned count exact). A miss never performs disk I/O
// or sleeps the simulated latency under any lock: the missing reader
// marks the page as loading, drops the shard lock, reads and sleeps,
// and publishes the entry; concurrent missers of the same page wait on
// the shard's condition variable and are charged nothing, so exactly
// one read is metered per physical fetch. Frame *data* is not guarded
// here: the engine's reader/writer lock guarantees that a frame's bytes
// are only mutated while its file is owned by exactly one writer
// goroutine.
//
// Why sharding cannot change what is charged: charges depend only on
// hit/miss outcomes and eviction victims. Hits and misses depend on
// residency, which sharding does not alter, and eviction selects the
// globally least-recently-used unpinned entries via a pool-wide access
// clock (Frame.lastUsed), reproducing the single-list LRU victim order
// exactly. Serial operations therefore meter byte-identical Stats; only
// wall-clock behavior under concurrency changes.
//
// Frame arena: page buffers and entries are made on demand and
// recycled. A buffer goes back to the arena the moment its frame has
// left the table and has no pin — eviction, EvictAll, Discard of an
// unpinned frame, the final Release of an orphan, Alloc replacing a
// stale frame — and the frame's Data is set to nil, so a writer that
// kept the frame past its last unpin panics instead of reading whatever
// page the slot holds next. In test binaries the buffer is also
// overwritten with a poison pattern, so a caller that kept the slice
// itself reads garbage. Only writers take buffers (Alloc, and a Get of
// a page with none), so the arena holds write frames only. The free
// lists hold at most capacity buffers and capacity entries: entries
// exceed the capacity only transiently — a miss inserts before it
// evicts, a ReadBatch window before its one eviction pass — and
// anything freed beyond the cap is left to the garbage collector.
type Pool struct {
	disk     *Disk
	meter    *Meter
	capacity int

	shardMask uint32
	shards    []poolShard

	resident atomic.Int64 // total entries across all shards
	tick     atomic.Int64 // pool-wide access clock ordering entries for eviction

	policyMu  sync.Mutex
	bulkDepth int // >0 suspends write-through (nested bulk writes)

	slotMu sync.Mutex // innermost, like policyMu
	slots  [][]byte   // recycled page buffers, at most capacity
	spare  []*Frame   // recycled entries, at most capacity
	poison []byte     // one page of poisonByte, copied over each recycled slot; never written

	// Page buffers the pool holds — in frames, on their way into one,
	// or free — now and at most (the arena tests read them).
	live, peak int

	// traceIO, set only by the package's tests, hears every charged page
	// transfer in the order it is charged: a read per miss, a write per
	// write-back.
	traceIO func(write bool, key frameKey)
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

// poolShard is one slice of the entry table. Its recency list runs
// from mru (most recently used) through Frame.older to lru; because
// every touch stamps the pool clock under the shard lock, the list is
// also in descending tick order. unpinned counts the shard's eviction
// candidates so the evictor can skip fully-pinned shards without
// walking them, and a pool that is full of pinned entries is detected
// without an O(resident) scan.
type poolShard struct {
	mu       sync.Mutex
	frames   map[frameKey]*Frame
	mru, lru *Frame
	unpinned int // entries with zero pins
	// loading holds the pages being fetched by a miss; missers of the
	// same page wait on loaded (whose lock is mu), which each fetch
	// broadcasts when it ends, and re-enter the hit path.
	loading map[frameKey]struct{}
	loaded  sync.Cond
}

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
	key   frameKey
	file  *File
	Data  []byte
	dirty atomic.Bool
	pins  atomic.Int32 // transitions under the owning shard's lock
	// The fields below are guarded by the owning shard's lock.
	//
	// lastUsed orders entries pool-wide for eviction.
	lastUsed int64
	// orphan marks a frame discarded while pinned: it is no longer in
	// the table and its final Release must not write it back (the page
	// may have been freed and reallocated).
	orphan bool
	// inPlace counts the pins of reads running on the image rather than
	// on Data.
	inPlace int32
	// newer and older link the entry into its shard's recency list.
	newer, older *Frame
}

// DefaultPoolCapacity is the default number of resident frames: with
// 4000-byte pages this is ~1 MB, the paper's "very large main memory"
// that holds R2 during a nested-loop join (§3.4.3).
const DefaultPoolCapacity = 256

// defaultPoolShards is the default shard count; a small power of two
// well above the engine's worker parallelism keeps same-shard
// collisions rare without bloating per-pool memory.
const defaultPoolShards = 16

// NewPool creates a pool over the disk charging the meter. capacity
// ≤ 0 selects DefaultPoolCapacity. The pool writes through — a dirty
// frame is written back when its last pin is released, matching the
// model's read+write charge per updated page — except inside
// BeginBulk/EndBulk.
func NewPool(disk *Disk, meter *Meter, capacity int) *Pool {
	return newPoolShards(disk, meter, capacity, defaultPoolShards)
}

// newPoolShards is NewPool with an explicit shard count (rounded up to
// a power of two, minimum 1). A single shard reproduces the old
// one-big-mutex pool's contention profile for the in-package benchmark;
// charges are identical at every shard count.
func newPoolShards(disk *Disk, meter *Meter, capacity, shards int) *Pool {
	if capacity <= 0 {
		capacity = DefaultPoolCapacity
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	p := &Pool{
		disk:      disk,
		meter:     meter,
		capacity:  capacity,
		shardMask: uint32(n - 1),
		shards:    make([]poolShard, n),
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.frames = map[frameKey]*Frame{}
		sh.loading = map[frameKey]struct{}{}
		sh.loaded.L = &sh.mu
	}
	if poisonSlots {
		p.poison = bytes.Repeat([]byte{poisonByte}, disk.PageSize())
	}
	return p
}

// shardOf hashes a key to its shard (FNV-1a over file name and page).
func (p *Pool) shardOf(key frameKey) *poolShard {
	h := uint32(2166136261)
	for i := 0; i < len(key.file); i++ {
		h ^= uint32(key.file[i])
		h *= 16777619
	}
	h ^= uint32(key.pn)
	h *= 16777619
	return &p.shards[h&p.shardMask]
}

// pushFront links fr in as the shard's most recently used entry.
func (sh *poolShard) pushFront(fr *Frame) {
	fr.newer, fr.older = nil, sh.mru
	if sh.mru != nil {
		sh.mru.newer = fr
	} else {
		sh.lru = fr
	}
	sh.mru = fr
}

// unlink takes fr out of the shard's recency list.
func (sh *poolShard) unlink(fr *Frame) {
	if fr.newer != nil {
		fr.newer.older = fr.older
	} else {
		sh.mru = fr.older
	}
	if fr.older != nil {
		fr.older.newer = fr.newer
	} else {
		sh.lru = fr.newer
	}
	fr.newer, fr.older = nil, nil
}

// BeginBulk suspends write-through until the matching EndBulk — dirty
// pages are then written at eviction or FlushAll — so a rebuild that
// touches each page many times is charged one write per dirty page at
// the closing flush. Calls nest; concurrent bulk writers (parallel
// refresh workers) each hold the suspension without toggling each
// other's mode — the reason this is a depth counter rather than a flag.
func (p *Pool) BeginBulk() {
	p.policyMu.Lock()
	p.bulkDepth++
	p.policyMu.Unlock()
}

// EndBulk closes a BeginBulk. The caller is expected to FlushAll (or
// let eviction flush) afterwards; EndBulk itself writes nothing.
func (p *Pool) EndBulk() {
	p.policyMu.Lock()
	if p.bulkDepth > 0 {
		p.bulkDepth--
	}
	p.policyMu.Unlock()
}

// effectiveWriteThrough reports whether a final unpin should write back
// immediately. Safe to call under a shard lock (policyMu is always
// innermost).
func (p *Pool) effectiveWriteThrough() bool {
	p.policyMu.Lock()
	defer p.policyMu.Unlock()
	return p.bulkDepth == 0
}

// Capacity returns the pool's frame capacity.
func (p *Pool) Capacity() int { return p.capacity }

// PageSize returns the underlying disk's page size.
func (p *Pool) PageSize() int { return p.disk.PageSize() }

// Resident returns the number of pages currently in the pool.
func (p *Pool) Resident() int { return int(p.resident.Load()) }

// sleepIO simulates the wall-clock cost of n physical page transfers.
// Callers invoke it with no pool lock held, so concurrent operations
// overlap their I/O waits instead of queueing on a lock.
func (p *Pool) sleepIO(n int) {
	if n <= 0 {
		return
	}
	if d := p.disk.IOLatency(); d > 0 {
		time.Sleep(time.Duration(n) * d)
	}
}

// Get pins and returns the frame for (file, pn) with the page's bytes,
// reading it from disk (one metered read) on a miss — the writer's
// access; readers use Read. The read, its simulated latency and any
// eviction write-backs all happen without holding a shard lock.
func (p *Pool) Get(f *File, pn PageNum) (*Frame, error) {
	fr, _, missed, err := p.pin(f, pn, true, true)
	if err != nil {
		return nil, err
	}
	if missed {
		wrote, err := p.evictOverflow()
		if err != nil {
			return nil, err
		}
		p.sleepIO(wrote)
	}
	return fr, nil
}

// Read runs fn on page (file, pn) while it is pinned, then releases it.
// It is charged exactly as a Get followed by a Release: one read on a
// miss, with the same clock tick, recency position, capacity slot and
// single-flight. A page a writer gave bytes (Alloc, a dirty frame, a
// Get) is read from them; any other is read in place, from its image
// under the file's read lock (File.View), so a miss copies nothing.
// fn must keep nothing aliasing page and must not touch the pool or the
// file's pages.
//
// Reading an image in place is sound because a pin holds two things
// still. No write-back happens while the in-place pin is held: write-
// backs happen only at a frame's last unpin, at eviction and at a flush,
// all of which skip pinned frames. And a page with a dirty frame is
// never read from its image: the frame has bytes (only writers dirty a
// frame, and they get bytes), so the read runs on them. Every test
// binary checks both (checkInPlace).
func (p *Pool) Read(f *File, pn PageNum, fn func(page []byte) error) error {
	fr, inPlace, missed, err := p.pin(f, pn, false, true)
	if err != nil {
		return err
	}
	if missed {
		wrote, err := p.evictOverflow()
		if err != nil {
			return p.errRelease(err, fr, inPlace)
		}
		p.sleepIO(wrote)
	}
	return p.errRelease(p.view(fr, inPlace, fn), fr, inPlace)
}

// ReadBatch runs fn(i, page) on each page pns[i] in turn, the whole
// window pinned first. Each page is charged exactly as a separate Read
// would charge it — one read per miss, hits free, write-backs for
// whatever the inserts evict — but the simulated latency of all misses
// and eviction writes is slept once. That single combined sleep is the
// readahead win: a sequential scan pays one timer wait per window
// instead of one per page. Callers must keep the batch well under the
// pool capacity. Each page is released once fn has run on it; after the
// first error fn runs no more and the rest are released.
//
// Eviction runs once after all inserts. The victims are the same
// entries an insert-by-insert pass would have chosen: window entries are
// pinned and carry the newest access ticks, so they are never
// candidates, and the globally least-recently-used unpinned entries are
// evicted in the same order either way.
func (p *Pool) ReadBatch(f *File, pns []PageNum, fn func(i int, page []byte) error) error {
	type held struct {
		fr      *Frame
		inPlace bool
	}
	var window [32]held // colpage.Window's cap: a scan's window stays on the stack
	pinned := window[:0]
	misses := 0
	var err error
	for _, pn := range pns {
		fr, inPlace, missed, perr := p.pin(f, pn, false, false)
		if perr != nil {
			err = perr
			break
		}
		if missed {
			misses++
		}
		pinned = append(pinned, held{fr, inPlace})
	}
	if err == nil {
		var wrote int
		if wrote, err = p.evictOverflow(); err == nil {
			p.sleepIO(misses + wrote)
		}
	}
	for i, h := range pinned {
		if err == nil {
			err = p.view(h.fr, h.inPlace, func(page []byte) error { return fn(i, page) })
		}
		err = p.errRelease(err, h.fr, h.inPlace)
	}
	return err
}

// pin pins the entry for (f, pn), charging one read on a miss. A
// writer's pin (withBytes) gets a frame holding the page: a miss copies
// the image into an arena slot, and a hit on a reader's entry fills it
// from the image, uncharged. A reader's miss leaves an entry without
// bytes; inPlace reports that the reader's pinned entry has none, so
// the reader runs on the image. When sleep is set the miss latency is
// slept here (with no lock held); either way the caller owns the
// eviction pass — Get and Read run one per miss, ReadBatch one for the
// whole window.
func (p *Pool) pin(f *File, pn PageNum, withBytes, sleep bool) (fr *Frame, inPlace, missed bool, err error) {
	key := frameKey{f.Name(), pn}
	sh := p.shardOf(key)
	sh.mu.Lock()
	for {
		if hit, ok := sh.frames[key]; ok {
			if withBytes && hit.Data == nil {
				// A reader's entry: fill it for the writer, under the
				// shard lock, charging nothing.
				if hit.Data, err = p.readImage(f, pn); err != nil {
					sh.mu.Unlock()
					return nil, false, false, err
				}
			}
			sh.unlink(hit)
			sh.pushFront(hit)
			hit.lastUsed = p.tick.Add(1)
			if hit.pins.Add(1) == 1 {
				sh.unpinned--
			}
			if inPlace = hit.Data == nil; inPlace {
				hit.inPlace++
			}
			sh.mu.Unlock()
			return hit, inPlace, false, nil
		}
		if _, ok := sh.loading[key]; !ok {
			break
		}
		// Another goroutine is already fetching this page: wait for it
		// and re-enter the hit path. No additional read is charged — the
		// leader's single read covers every waiter. (A leader that fails
		// publishes nothing, and each waiter then tries for itself.)
		sh.loaded.Wait()
	}
	sh.loading[key] = struct{}{}
	sh.mu.Unlock()
	if fr, err = p.loadMiss(f, key, sh, withBytes, sleep); err != nil {
		return nil, false, false, err
	}
	return fr, fr.Data == nil, true, nil
}

// readImage copies page pn's image into an arena slot, under the
// file's read lock.
func (p *Pool) readImage(f *File, pn PageNum) ([]byte, error) {
	buf := p.takeSlot()
	if err := f.View(pn, func(src []byte) error {
		copy(buf, src)
		return nil
	}); err != nil {
		p.putSlot(buf)
		return nil, err
	}
	return buf, nil
}

// loadMiss publishes the entry of a page the caller is fetching (it
// holds the page's loading mark), pinned once: for a writer, with the
// image copied into an arena slot under the file's read lock; for a
// reader, with no bytes once the page is known to exist. The disk read
// and the latency sleep happen with no pool lock held, so a slow miss
// never delays hits on other pages.
func (p *Pool) loadMiss(f *File, key frameKey, sh *poolShard, withBytes, sleep bool) (*Frame, error) {
	var buf []byte
	var err error
	if withBytes {
		buf, err = p.readImage(f, key.pn)
	} else {
		err = f.View(key.pn, func([]byte) error { return nil })
	}
	if err != nil {
		sh.mu.Lock()
		delete(sh.loading, key)
		sh.loaded.Broadcast()
		sh.mu.Unlock()
		return nil, err
	}
	p.meter.Read(1)
	if p.traceIO != nil {
		p.traceIO(false, key)
	}
	if sleep {
		p.sleepIO(1)
	}
	fr := p.newFrame(key, f, buf)
	fr.pins.Store(1)
	sh.mu.Lock()
	fr.lastUsed = p.tick.Add(1)
	if buf == nil {
		fr.inPlace = 1
	}
	sh.pushFront(fr)
	sh.frames[key] = fr
	delete(sh.loading, key)
	p.resident.Add(1)
	sh.loaded.Broadcast()
	sh.mu.Unlock()
	return fr, nil
}

// view runs fn on a pinned entry's page: on its bytes, or in place on
// the image when the pin is an in-place one.
func (p *Pool) view(fr *Frame, inPlace bool, fn func(page []byte) error) error {
	if !inPlace {
		return fn(fr.Data)
	}
	err := fr.file.View(fr.key.pn, fn)
	// The pin keeps the frame from being written back, so a dirty bit
	// seen now was set while the image was being read: a writer changed
	// the page under an in-place read of it.
	if checkInPlace && err == nil && fr.dirty.Load() {
		err = fmt.Errorf("storage: page %v read in place while a writer dirtied its frame", fr.key)
	}
	return err
}

// errRelease releases a reader's pin and returns err, or the release's
// error when err is nil.
func (p *Pool) errRelease(err error, fr *Frame, inPlace bool) error {
	if rerr := p.unpin(fr, inPlace); err == nil {
		err = rerr
	}
	return err
}

// Alloc allocates a fresh page in the file and returns it pinned. The
// page is born dirty (it must eventually be written) but its first
// write is charged like any other: on unpin (write-through) or
// eviction (write-back). No read is charged for a newborn page, which
// is zeroed like the disk's, whatever its slot held before.
func (p *Pool) Alloc(f *File) (*Frame, error) {
	pn := f.Alloc()
	key := frameKey{f.Name(), pn}
	buf := p.takeSlot()
	clear(buf)
	fr := p.newFrame(key, f, buf)
	fr.pins.Store(1)
	fr.MarkDirty()
	sh := p.shardOf(key)
	sh.mu.Lock()
	if stale, ok := sh.frames[key]; ok {
		// A stale entry for a previously freed page number that was
		// never discarded; drop it rather than leaking a list entry.
		sh.unlink(stale)
		delete(sh.frames, key)
		if stale.pins.Load() == 0 {
			sh.unpinned--
			p.recycle(stale)
		} else {
			stale.orphan = true
		}
		p.resident.Add(-1)
	}
	fr.lastUsed = p.tick.Add(1)
	sh.pushFront(fr)
	sh.frames[key] = fr
	p.resident.Add(1)
	sh.mu.Unlock()
	wrote, err := p.evictOverflow()
	if err != nil {
		return nil, err
	}
	p.sleepIO(wrote)
	return fr, nil
}

// PageNum returns the page number of the frame.
func (fr *Frame) PageNum() PageNum { return fr.key.pn }

// MarkDirty records that the frame's data has been modified. The first
// marking also bumps the file's dirty-frame count, which gates the
// unmetered readahead walks (see File.HasDirtyFrames).
func (fr *Frame) MarkDirty() {
	if fr.dirty.CompareAndSwap(false, true) {
		fr.file.dirtyFrames.Add(1)
	}
}

// Release unpins a frame obtained from Get or Alloc. In write-through
// mode the final unpin of a dirty frame writes it back (one metered
// write).
func (p *Pool) Release(fr *Frame) error { return p.unpin(fr, false) }

// unpin drops one pin of fr — an in-place read's when inPlace is set.
func (p *Pool) unpin(fr *Frame, inPlace bool) error {
	sh := p.shardOf(fr.key)
	sh.mu.Lock()
	if fr.pins.Load() <= 0 {
		sh.mu.Unlock()
		return fmt.Errorf("storage: release of unpinned frame %v", fr.key)
	}
	if inPlace {
		fr.inPlace--
	}
	wrote := 0
	if fr.pins.Add(-1) == 0 {
		if fr.orphan {
			// Discarded while pinned: the page may be freed or
			// reallocated, so the stale image must never be written.
			// This was the last holder; the entry is free now.
			p.recycle(fr)
			sh.mu.Unlock()
			return nil
		}
		sh.unpinned++
		if fr.dirty.Load() && p.effectiveWriteThrough() {
			if err := p.writeBack(fr); err != nil {
				sh.mu.Unlock()
				return err
			}
			wrote = 1
		}
	}
	sh.mu.Unlock()
	p.sleepIO(wrote)
	return nil
}

// writeBack flushes a dirty frame to disk, charging one write. The
// write is an in-memory copy on the simulated disk, so performing it
// under the shard lock is cheap; the latency sleep is the caller's
// job, after unlocking. Every caller writes back an unpinned frame, so
// no in-place read of the page is pinned; a test binary checks it.
func (p *Pool) writeBack(fr *Frame) error {
	if checkInPlace && fr.inPlace > 0 {
		return fmt.Errorf("storage: write-back of page %v under %d in-place read(s)", fr.key, fr.inPlace)
	}
	if err := fr.file.writePage(fr.key.pn, fr.Data); err != nil {
		return err
	}
	p.meter.Write(1)
	if p.traceIO != nil {
		p.traceIO(true, fr.key)
	}
	if fr.dirty.CompareAndSwap(true, false) {
		fr.file.dirtyFrames.Add(-1)
	}
	return nil
}

// victim is an eviction candidate as a sweep saw it: the entry, and the
// key and tick it had then, which the eviction re-checks under the
// shard lock (the entry may have been touched, pinned, dropped or
// recycled since).
type victim struct {
	fr   *Frame
	key  frameKey
	tick int64
}

// sweepRun is one shard's candidates, cands[next:end], oldest first.
type sweepRun struct {
	shard     int
	next, end int
}

// sweep is the scratch one eviction pass gathers into, recycled through
// sweeps so a pass allocates nothing.
type sweep struct {
	cands []victim
	runs  []sweepRun
}

var sweeps = sync.Pool{New: func() any { return new(sweep) }}

// evictOverflow evicts the globally least-recently-used unpinned
// entries until the pool is within capacity, returning how many dirty
// pages it wrote back (the caller charges their latency afterwards).
// One pass serves the whole overflow, need entries: a sweep locks each
// shard once and takes its oldest ≤ need unpinned entries, which its
// recency list already holds in tick order; a merge of those runs by
// tick then evicts the need oldest — the entries, and the write-back
// order, that evicting one global minimum at a time would give. Each
// eviction re-checks its entry under the shard lock, and the pass sweeps
// again only if a race left the pool over capacity.
func (p *Pool) evictOverflow() (int, error) {
	if p.resident.Load() <= int64(p.capacity) {
		return 0, nil
	}
	s := sweeps.Get().(*sweep)
	defer sweeps.Put(s)
	wrote, stalls := 0, 0
	for {
		need := int(p.resident.Load()) - p.capacity
		if need <= 0 {
			return wrote, nil
		}
		s.cands, s.runs = s.cands[:0], s.runs[:0]
		for i := range p.shards {
			sh := &p.shards[i]
			start := len(s.cands)
			sh.mu.Lock()
			if sh.unpinned > 0 {
				for fr := sh.lru; fr != nil && len(s.cands)-start < need; fr = fr.newer {
					if fr.pins.Load() == 0 {
						s.cands = append(s.cands, victim{fr, fr.key, fr.lastUsed})
					}
				}
			}
			sh.mu.Unlock()
			if len(s.cands) > start {
				s.runs = append(s.runs, sweepRun{i, start, len(s.cands)})
			}
		}
		if len(s.cands) == 0 {
			// Concurrent batches can hold every entry pinned for a
			// moment; retry briefly before declaring the pool stuck.
			if stalls++; stalls <= 4 {
				runtime.Gosched()
				continue
			}
			return wrote, p.pinnedFullError()
		}
		stalls = 0
		for ; need > 0 && p.resident.Load() > int64(p.capacity); need-- {
			oldest := -1
			for r, run := range s.runs {
				if run.next < run.end && (oldest < 0 || s.cands[run.next].tick < s.cands[s.runs[oldest].next].tick) {
					oldest = r
				}
			}
			if oldest < 0 {
				break
			}
			run := &s.runs[oldest]
			v := s.cands[run.next]
			run.next++
			w, err := p.evict(&p.shards[run.shard], v)
			wrote += w
			if err != nil {
				return wrote, err
			}
		}
	}
}

// evict drops a sweep's candidate if it is still the unpinned entry of
// its key with the tick the sweep saw, writing it back first when dirty.
func (p *Pool) evict(sh *poolShard, v victim) (wrote int, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fr := v.fr
	if sh.frames[v.key] != fr || fr.lastUsed != v.tick || fr.pins.Load() != 0 {
		return 0, nil // touched, pinned or gone since the sweep
	}
	if fr.dirty.Load() {
		if err := p.writeBack(fr); err != nil {
			return 0, err
		}
		wrote = 1
	}
	sh.unlink(fr)
	delete(sh.frames, v.key)
	sh.unpinned--
	p.resident.Add(-1)
	p.recycle(fr)
	return wrote, nil
}

// pinnedFullError reports an over-capacity pool with no evictable
// entry, naming the files holding pins so a pin leak is attributable.
func (p *Pool) pinnedFullError() error {
	pins := map[string]int{}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for fr := sh.mru; fr != nil; fr = fr.older {
			if n := fr.pins.Load(); n > 0 {
				pins[fr.key.file] += int(n)
			}
		}
		sh.mu.Unlock()
	}
	names := make([]string, 0, len(pins))
	for n := range pins {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s(%d pins)", n, pins[n]))
	}
	return fmt.Errorf("storage: buffer pool full of pinned frames (capacity %d; pinned: %s)",
		p.capacity, strings.Join(parts, ", "))
}

// Discard drops the entry for (file, pn) without flushing, regardless
// of dirtiness. Callers use it immediately before freeing a page on
// disk, so a stale dirty frame can never be written to a reallocated
// page. If the entry is pinned by a concurrent reader it is orphaned
// instead: the holders keep their (now detached) frame, and its final
// Release skips the write-back.
func (p *Pool) Discard(f *File, pn PageNum) {
	key := frameKey{f.Name(), pn}
	sh := p.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fr, ok := sh.frames[key]
	if !ok {
		return
	}
	sh.unlink(fr)
	delete(sh.frames, key)
	p.resident.Add(-1)
	if fr.dirty.CompareAndSwap(true, false) {
		fr.file.dirtyFrames.Add(-1)
	}
	if fr.pins.Load() > 0 {
		fr.orphan = true // its slot returns at the final Release
		return
	}
	sh.unpinned--
	p.recycle(fr)
}

// FlushAll writes back every dirty unpinned frame (charging writes)
// without evicting. Pinned dirty frames are skipped: their owner is
// still mutating them and will trigger the write-back at release or
// eviction.
func (p *Pool) FlushAll() error {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		err := p.flushShardLocked(sh)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *Pool) flushShardLocked(sh *poolShard) error {
	for fr := sh.mru; fr != nil; fr = fr.older {
		if fr.pins.Load() == 0 && fr.dirty.Load() {
			if err := p.writeBack(fr); err != nil {
				return err
			}
		}
	}
	return nil
}

// EvictAll flushes and drops every unpinned entry. The engine calls
// this at operation boundaries so each query/transaction starts cold,
// matching the model's per-operation page accounting. Entries pinned by
// a concurrent operation stay resident — under concurrent load the
// cold-cache posture is necessarily approximate, and evicting an
// in-use page would be unsound.
func (p *Pool) EvictAll() error {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		if err := p.flushShardLocked(sh); err != nil {
			sh.mu.Unlock()
			return err
		}
		var older *Frame
		for fr := sh.mru; fr != nil; fr = older {
			older = fr.older
			if fr.pins.Load() > 0 {
				continue
			}
			sh.unlink(fr)
			delete(sh.frames, fr.key)
			sh.unpinned--
			p.resident.Add(-1)
			p.recycle(fr)
		}
		sh.mu.Unlock()
	}
	return nil
}

// newFrame returns an entry for key, recycled when the arena has one,
// holding data (nil for a reader's entry) and nothing else.
func (p *Pool) newFrame(key frameKey, f *File, data []byte) *Frame {
	var fr *Frame
	p.slotMu.Lock()
	if n := len(p.spare); n > 0 {
		fr = p.spare[n-1]
		p.spare = p.spare[:n-1]
	}
	p.slotMu.Unlock()
	if fr == nil {
		fr = new(Frame)
	}
	fr.key, fr.file, fr.Data = key, f, data
	fr.dirty.Store(false)
	fr.pins.Store(0)
	fr.lastUsed, fr.orphan, fr.inPlace = 0, false, 0
	return fr
}

// takeSlot returns a page buffer for a frame about to enter the table:
// a recycled one when the arena has one, a new one otherwise. Its bytes
// are whatever the slot last held; the caller overwrites all of them.
func (p *Pool) takeSlot() []byte {
	p.slotMu.Lock()
	defer p.slotMu.Unlock()
	if n := len(p.slots); n > 0 {
		buf := p.slots[n-1]
		p.slots = p.slots[:n-1]
		return buf
	}
	p.live++
	p.peak = max(p.peak, p.live)
	return make([]byte, p.disk.PageSize())
}

// recycle returns an entry that has left the table and has no pin to
// the arena, with its buffer if it has one. Nothing may use the frame
// after this: its Data and file are nil until it is handed out again.
func (p *Pool) recycle(fr *Frame) {
	if fr.Data != nil {
		p.putSlot(fr.Data)
		fr.Data = nil
	}
	fr.file = nil
	p.slotMu.Lock()
	if len(p.spare) < p.capacity {
		p.spare = append(p.spare, fr)
	}
	p.slotMu.Unlock()
}

// putSlot adds a buffer no frame owns to the arena, poisoned under
// test, or drops it when the arena already holds capacity buffers.
func (p *Pool) putSlot(buf []byte) {
	if poisonSlots {
		copy(buf, p.poison)
	}
	p.slotMu.Lock()
	if len(p.slots) < p.capacity {
		p.slots = append(p.slots, buf)
	} else {
		p.live--
	}
	p.slotMu.Unlock()
}

// PinnedFrames describes every pinned entry ("file:page(pins=n)",
// sorted), for diagnostics and the pin-leak test helper.
func (p *Pool) PinnedFrames() []string {
	var out []string
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for fr := sh.mru; fr != nil; fr = fr.older {
			if n := fr.pins.Load(); n > 0 {
				out = append(out, fmt.Sprintf("%s:%d(pins=%d)", fr.key.file, fr.key.pn, n))
			}
		}
		sh.mu.Unlock()
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
