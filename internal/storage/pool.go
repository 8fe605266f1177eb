package storage

import (
	"bytes"
	"container/list"
	"fmt"
	"math"
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
// Concurrency: the frame table is split across power-of-two shards,
// each with its own mutex, frame map and recency list, so concurrent
// readers and parallel refresh workers contend only when they touch
// pages that hash to the same shard. Pin counts are atomic (their
// transitions still happen under the owning shard's lock, which keeps
// the per-shard unpinned count exact). A miss never performs disk I/O
// or sleeps the simulated latency under any lock: the missing reader
// registers a per-key flight, drops the shard lock, reads and sleeps,
// and publishes the frame; concurrent missers of the same page wait on
// the flight and are charged nothing, so exactly one read is metered
// per physical fetch. Frame *data* is not guarded here: the engine's
// reader/writer lock guarantees that a frame's bytes are only mutated
// while its file is owned by exactly one writer goroutine.
//
// Why sharding cannot change what is charged: charges depend only on
// hit/miss outcomes and eviction victims. Hits and misses depend on
// residency, which sharding does not alter, and eviction selects the
// globally least-recently-used unpinned frame via a pool-wide access
// clock (Frame.lastUsed), reproducing the single-list LRU victim order
// exactly. Serial operations therefore meter byte-identical Stats; only
// wall-clock behavior under concurrency changes.
//
// Frame arena: page buffers are made on demand and recycled, so a miss
// copies into a slot a frame left instead of allocating one. A frame's
// buffer goes back to the arena the moment the frame has left the table
// and has no pin — eviction, EvictAll, Discard of an unpinned frame, the
// final Release of an orphan, Alloc replacing a stale frame — and the
// frame's Data is set to nil, so a reader that kept the frame past its
// last unpin panics instead of reading whatever page the slot holds
// next. In test binaries the buffer is also overwritten with a poison
// pattern, so a reader that kept the slice itself reads garbage. The
// free list holds at most capacity buffers: frames exceed the capacity
// only transiently — a miss inserts before it evicts, a GetBatch window
// before its one eviction pass — and a buffer freed beyond the cap is
// left to the garbage collector, so the pool never holds more than
// capacity buffers plus that overshoot.
type Pool struct {
	disk     *Disk
	meter    *Meter
	capacity int

	shardMask uint32
	shards    []poolShard

	resident atomic.Int64 // total frames across all shards
	tick     atomic.Int64 // pool-wide access clock ordering frames for eviction

	policyMu  sync.Mutex
	bulkDepth int // >0 suspends write-through (nested bulk writes)

	slotMu sync.Mutex // innermost, like policyMu
	slots  [][]byte   // recycled page buffers, at most capacity
	poison []byte     // one page of poisonByte, copied over each recycled slot; never written

	// Page buffers the pool holds — in frames, on their way into one,
	// or free — now and at most (the arena tests read them).
	live, peak int
}

// poisonSlots turns on poison-on-recycle in every test binary, so every
// test that drives a pool — the property layers, the crash sweep, the
// race runs — reads a stale slot as garbage, never as a plausible page.
var poisonSlots = testing.Testing()

// poisonByte fills a recycled slot under test: as a page type byte it
// names no page the engine writes, so a stale decode fails loudly.
const poisonByte = 0xA5

// poolShard is one slice of the frame table. unpinned counts the
// shard's eviction candidates so the evictor can skip fully-pinned
// shards without walking them, and a pool that is full of pinned
// frames is detected without an O(resident) scan.
type poolShard struct {
	mu       sync.Mutex
	frames   map[frameKey]*list.Element
	lru      *list.List // front = most recently used within the shard
	unpinned int        // frames with zero pins
	flights  map[frameKey]*flight
}

// flight is an in-progress miss: the first goroutine to miss a page
// becomes the leader and fills the frame; later missers of the same
// page block on done and re-enter the hit path, charging nothing.
type flight struct {
	done chan struct{}
	err  error // set before done is closed
}

type frameKey struct {
	file string
	pn   PageNum
}

// Frame is a page resident in the pool. Data is the mutable page
// image, an arena slot; callers that modify it must call MarkDirty, and
// every caller must keep the frame pinned while using it and keep no
// alias of Data past its Release (the slot is recycled, and Data nil,
// once the frame leaves the table unpinned).
type Frame struct {
	key   frameKey
	file  *File
	Data  []byte
	dirty atomic.Bool
	pins  atomic.Int32 // transitions under the owning shard's lock
	// lastUsed orders frames pool-wide for eviction; guarded by the
	// owning shard's lock.
	lastUsed int64
	// orphan marks a frame discarded while pinned: it is no longer in
	// the frame table and its final Release must not write it back (the
	// page may have been freed and reallocated). Guarded by the owning
	// shard's lock.
	orphan bool
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
		p.shards[i].frames = map[frameKey]*list.Element{}
		p.shards[i].lru = list.New()
		p.shards[i].flights = map[frameKey]*flight{}
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

// PageLayout returns the underlying disk's page encoding policy.
func (p *Pool) PageLayout() PageLayout { return p.disk.PageLayout() }

// Resident returns the number of frames currently in the pool.
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

// Get pins and returns the frame for (file, pn), reading it from disk
// (one metered read) on a miss. The read, its simulated latency and
// any eviction write-backs all happen without holding a shard lock.
func (p *Pool) Get(f *File, pn PageNum) (*Frame, error) {
	fr, missed, err := p.get(f, pn, true)
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

// get pins the frame for (file, pn), charging one read on a miss.
// When sleep is true the miss latency is slept here (with no lock
// held); either way the caller owns the eviction pass — Get runs one
// per miss, GetBatch runs one for the whole batch.
func (p *Pool) get(f *File, pn PageNum, sleep bool) (*Frame, bool, error) {
	key := frameKey{f.Name(), pn}
	sh := p.shardOf(key)
	for {
		sh.mu.Lock()
		if el, ok := sh.frames[key]; ok {
			fr := el.Value.(*Frame)
			sh.lru.MoveToFront(el)
			fr.lastUsed = p.tick.Add(1)
			if fr.pins.Add(1) == 1 {
				sh.unpinned--
			}
			sh.mu.Unlock()
			return fr, false, nil
		}
		if fl, ok := sh.flights[key]; ok {
			// Another goroutine is already fetching this page: wait for
			// it and re-enter the hit path. No additional read is
			// charged — the leader's single read covers every waiter.
			sh.mu.Unlock()
			<-fl.done
			if fl.err != nil {
				return nil, false, fl.err
			}
			continue
		}
		fl := &flight{done: make(chan struct{})}
		sh.flights[key] = fl
		sh.mu.Unlock()
		fr, err := p.loadMiss(f, key, sh, fl, sleep)
		return fr, err == nil, err
	}
}

// loadMiss fills a missing frame as the leader of flight fl, copying
// the page into an arena slot under the file's read lock. The disk read
// and the latency sleep happen with no pool lock held, so a slow miss
// never delays hits on other pages.
func (p *Pool) loadMiss(f *File, key frameKey, sh *poolShard, fl *flight, sleep bool) (*Frame, error) {
	buf := p.takeSlot()
	err := f.View(key.pn, func(src []byte) error {
		copy(buf, src)
		return nil
	})
	if err != nil {
		p.putSlot(buf)
		sh.mu.Lock()
		delete(sh.flights, key)
		sh.mu.Unlock()
		fl.err = err
		close(fl.done)
		return nil, err
	}
	p.meter.Read(1)
	if sleep {
		p.sleepIO(1)
	}
	fr := &Frame{key: key, file: f, Data: buf}
	fr.pins.Store(1)
	sh.mu.Lock()
	fr.lastUsed = p.tick.Add(1)
	sh.frames[key] = sh.lru.PushFront(fr)
	delete(sh.flights, key)
	p.resident.Add(1)
	sh.mu.Unlock()
	close(fl.done)
	return fr, nil
}

// GetBatch pins and returns frames for the given pages, in order. Each
// page is charged exactly as a separate Get would charge it — one read
// per miss, hits free, write-backs for whatever the inserts evict —
// but the simulated latency of all misses and eviction writes is slept
// once at the end. That single combined sleep is the readahead win:
// a sequential scan pays one timer wait per window instead of one per
// page. Callers must keep the batch well under the pool capacity
// (frames are pinned until released) and should release promptly.
//
// Eviction runs once after all inserts. The victims are the same
// frames an insert-by-insert pass would have chosen: batch frames are
// pinned and carry the newest access ticks, so they are never
// candidates, and the globally least-recently-used unpinned frames are
// evicted in the same order either way.
func (p *Pool) GetBatch(f *File, pns []PageNum) ([]*Frame, error) {
	frames := make([]*Frame, 0, len(pns))
	fail := func(err error) ([]*Frame, error) {
		for _, fr := range frames {
			_ = p.Release(fr)
		}
		return nil, err
	}
	misses := 0
	for _, pn := range pns {
		fr, missed, err := p.get(f, pn, false)
		if err != nil {
			return fail(err)
		}
		if missed {
			misses++
		}
		frames = append(frames, fr)
	}
	wrote, err := p.evictOverflow()
	if err != nil {
		return fail(err)
	}
	p.sleepIO(misses + wrote)
	return frames, nil
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
	fr := &Frame{key: key, file: f, Data: buf}
	fr.pins.Store(1)
	fr.MarkDirty()
	sh := p.shardOf(key)
	sh.mu.Lock()
	if el, ok := sh.frames[key]; ok {
		// A stale frame for a previously freed page number that was
		// never discarded; drop it rather than leaking a list entry.
		stale := el.Value.(*Frame)
		sh.lru.Remove(el)
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
	sh.frames[key] = sh.lru.PushFront(fr)
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

// Release unpins a frame obtained from Get, GetBatch or Alloc.
// In write-through mode the final unpin of a dirty frame writes it
// back (one metered write).
func (p *Pool) Release(fr *Frame) error {
	sh := p.shardOf(fr.key)
	sh.mu.Lock()
	if fr.pins.Load() <= 0 {
		sh.mu.Unlock()
		return fmt.Errorf("storage: release of unpinned frame %v", fr.key)
	}
	wrote := 0
	if fr.pins.Add(-1) == 0 {
		if fr.orphan {
			// Discarded while pinned: the page may be freed or
			// reallocated, so the stale image must never be written.
			// This was the last holder; the slot is free now.
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
// job, after unlocking. The caller guarantees the frame is not being
// mutated (unpinned, or pinned by the calling goroutine itself).
func (p *Pool) writeBack(fr *Frame) error {
	if err := fr.file.writePage(fr.key.pn, fr.Data); err != nil {
		return err
	}
	p.meter.Write(1)
	if fr.dirty.CompareAndSwap(true, false) {
		fr.file.dirtyFrames.Add(-1)
	}
	return nil
}

// evictOverflow evicts globally least-recently-used unpinned frames
// until the pool is within capacity, returning how many dirty pages it
// wrote back (the caller charges their latency afterwards). It locks
// one shard at a time: each shard's oldest unpinned frame is found via
// its recency list (skipping shards whose unpinned count is zero), and
// the minimum access tick across shards is the victim — the same frame
// a single pool-wide LRU list would evict.
func (p *Pool) evictOverflow() (int, error) {
	wrote := 0
	stalls := 0
	for p.resident.Load() > int64(p.capacity) {
		shardIdx := -1
		var victimKey frameKey
		victimTick := int64(math.MaxInt64)
		for i := range p.shards {
			sh := &p.shards[i]
			sh.mu.Lock()
			if sh.unpinned > 0 {
				for el := sh.lru.Back(); el != nil; el = el.Prev() {
					fr := el.Value.(*Frame)
					if fr.pins.Load() == 0 {
						if fr.lastUsed < victimTick {
							victimTick = fr.lastUsed
							shardIdx = i
							victimKey = fr.key
						}
						break
					}
				}
			}
			sh.mu.Unlock()
		}
		if shardIdx < 0 {
			// Concurrent batches can hold every frame pinned for a
			// moment; retry briefly before declaring the pool stuck.
			if stalls++; stalls <= 4 {
				runtime.Gosched()
				continue
			}
			return wrote, p.pinnedFullError()
		}
		sh := &p.shards[shardIdx]
		sh.mu.Lock()
		el, ok := sh.frames[victimKey]
		if !ok {
			sh.mu.Unlock()
			continue // raced with Discard or EvictAll; rescan
		}
		fr := el.Value.(*Frame)
		if fr.pins.Load() != 0 {
			sh.mu.Unlock()
			continue // raced with a Get; rescan
		}
		if fr.dirty.Load() {
			if err := p.writeBack(fr); err != nil {
				sh.mu.Unlock()
				return wrote, err
			}
			wrote++
		}
		sh.lru.Remove(el)
		delete(sh.frames, fr.key)
		sh.unpinned--
		p.resident.Add(-1)
		p.recycle(fr)
		sh.mu.Unlock()
		stalls = 0
	}
	return wrote, nil
}

// pinnedFullError reports an over-capacity pool with no evictable
// frame, naming the files holding pins so a pin leak is attributable.
func (p *Pool) pinnedFullError() error {
	pins := map[string]int{}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			fr := el.Value.(*Frame)
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

// Discard drops the frame for (file, pn) without flushing, regardless
// of dirtiness. Callers use it immediately before freeing a page on
// disk, so a stale dirty frame can never be written to a reallocated
// page. If the frame is pinned by a concurrent reader it is orphaned
// instead: the holders keep their (now detached) frame, and its final
// Release skips the write-back.
func (p *Pool) Discard(f *File, pn PageNum) {
	key := frameKey{f.Name(), pn}
	sh := p.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.frames[key]
	if !ok {
		return
	}
	fr := el.Value.(*Frame)
	sh.lru.Remove(el)
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
	for el := sh.lru.Front(); el != nil; el = el.Next() {
		fr := el.Value.(*Frame)
		if fr.pins.Load() == 0 && fr.dirty.Load() {
			if err := p.writeBack(fr); err != nil {
				return err
			}
		}
	}
	return nil
}

// EvictAll flushes and drops every unpinned frame. The engine calls
// this at operation boundaries so each query/transaction starts cold,
// matching the model's per-operation page accounting. Frames pinned by
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
		var next *list.Element
		for el := sh.lru.Front(); el != nil; el = next {
			next = el.Next()
			fr := el.Value.(*Frame)
			if fr.pins.Load() > 0 {
				continue
			}
			sh.lru.Remove(el)
			delete(sh.frames, fr.key)
			sh.unpinned--
			p.resident.Add(-1)
			p.recycle(fr)
		}
		sh.mu.Unlock()
	}
	return nil
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

// recycle returns the buffer of a frame that has left the table and has
// no pin to the arena. Nothing may read the frame's bytes after this:
// its Data is nil from here on.
func (p *Pool) recycle(fr *Frame) {
	buf := fr.Data
	fr.Data = nil
	p.putSlot(buf)
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

// PinnedFrames describes every pinned frame ("file:page(pins=n)",
// sorted), for diagnostics and the pin-leak test helper.
func (p *Pool) PinnedFrames() []string {
	var out []string
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			fr := el.Value.(*Frame)
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
