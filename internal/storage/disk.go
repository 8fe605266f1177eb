package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultPageSize is the paper's block size B = 4000 bytes.
const DefaultPageSize = 4000

// PageNum identifies a page within a file.
type PageNum uint32

// Disk is a simulated disk: a set of named files of fixed-size pages.
// Reads and writes are charged to the attached Meter by the buffer
// pool, not by the Disk itself — the Disk is the "platter".
//
// The file table and each file's page array are mutex-guarded so
// parallel refresh workers (which create, remove and grow different
// files concurrently) and statistics walks are safe. Page *contents*
// are still single-writer per file, enforced by the engine lock.
type Disk struct {
	pageSize int
	// latencyNs, when non-zero, is slept per physical page transfer
	// (by the buffer pools, under no lock), turning the metered
	// counts into wall-clock time so concurrent operations overlap
	// their I/O waits the way they would on a real device.
	latencyNs atomic.Int64
	// tracking turns on change recording (see delta.go). Off — and free
	// of any allocation — until the first ResetChanges.
	tracking atomic.Bool
	mu       sync.RWMutex
	files    map[string]*File
	// removed names the files deleted since the last ResetChanges that
	// existed at it (guarded by mu; nil while tracking is off).
	removed map[string]struct{}
}

// NewDisk creates a disk with the given page size (the paper's B).
func NewDisk(pageSize int) *Disk {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &Disk{pageSize: pageSize, files: map[string]*File{}}
}

// PageSize returns the disk's page size in bytes.
func (d *Disk) PageSize() int { return d.pageSize }

// SetIOLatency sets the simulated per-page transfer time (0 disables,
// the default). Metered costs are unaffected; only wall-clock behavior
// changes.
func (d *Disk) SetIOLatency(lat time.Duration) { d.latencyNs.Store(int64(lat)) }

// IOLatency returns the simulated per-page transfer time.
func (d *Disk) IOLatency() time.Duration { return time.Duration(d.latencyNs.Load()) }

// Open returns the named file, creating it if needed.
func (d *Disk) Open(name string) *File {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		f = &File{name: name, disk: d, fresh: d.tracking.Load()}
		d.files[name] = f
	}
	return f
}

// Remove deletes a file and its pages.
func (d *Disk) Remove(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// A file created and removed between two checkpoints never reaches
	// a delta; one the last checkpoint saw must be named as removed.
	if f, ok := d.files[name]; ok && d.tracking.Load() && !f.fresh {
		d.removed[name] = struct{}{}
	}
	delete(d.files, name)
}

// FileNames returns the names of all files, sorted.
func (d *Disk) FileNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.files))
	for n := range d.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// file returns the named file or nil.
func (d *Disk) file(name string) *File {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.files[name]
}

// TotalPages returns the number of allocated pages across all files.
func (d *Disk) TotalPages() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for _, f := range d.files {
		n += f.NumPages()
	}
	return n
}

// File is a growable array of pages on a Disk.
type File struct {
	name  string
	disk  *Disk
	mu    sync.RWMutex
	pages [][]byte
	free  []PageNum // freed page numbers available for reuse
	// dirtyFrames counts pool frames of this file whose image is newer
	// than the on-disk page (maintained by Frame.MarkDirty and the
	// pool's write-back, discard and recycle paths). When zero, the
	// on-disk image is exact and unmetered View walks (readahead chain
	// discovery) are safe; an orphan its holder dirties keeps the count
	// conservatively high until its final Release, which only disables
	// readahead, never corrupts it.
	dirtyFrames atomic.Int64
	// Change tracking (delta.go). fresh marks a file created since the
	// last ResetChanges. dirty maps each page written, allocated or freed
	// since then to its pre-image: a copy of its bytes as the reset left
	// them, or nil where the reset left no such page (or the file is
	// fresh), whose base is zeros. spare holds the pre-image buffers
	// ResetChanges recycled. fresh is written under disk.mu and mu
	// together, dirty and spare under mu; all stay zero while tracking
	// is off.
	fresh bool
	dirty map[PageNum][]byte
	spare [][]byte
	// derived holds, by page number, the value the first in-place reader
	// since the image last changed derived from it (Pool.Derive), nil
	// where there is none. Every change to an image clears its value, under
	// mu held for writing; readers publish under mu held for reading, so a
	// value never straddles a change. The slice is at least as long as
	// pages and is grown under mu held for writing.
	derived []atomic.Pointer[derivation]
}

// derivation boxes a value derived from a page's bytes (Pool.Derive).
type derivation struct{ v any }

// markDirty records a page mutation for the next delta; it runs before
// the mutation, so a page's first mutation since ResetChanges captures
// the page as the reset left it — its pre-image, the base the next
// delta's patch is taken against. Caller holds f.mu for writing.
func (f *File) markDirty(pn PageNum) {
	if !f.disk.tracking.Load() {
		return
	}
	if f.dirty == nil {
		f.dirty = map[PageNum][]byte{}
	} else if _, ok := f.dirty[pn]; ok {
		return
	}
	var pre []byte
	if !f.fresh && int(pn) < len(f.pages) && f.pages[pn] != nil {
		if n := len(f.spare); n > 0 {
			pre, f.spare = f.spare[n-1], f.spare[:n-1]
		} else {
			pre = make([]byte, f.disk.pageSize)
		}
		copy(pre, f.pages[pn])
	}
	f.dirty[pn] = pre
}

// HasDirtyFrames reports whether any pool frame of this file holds
// modifications not yet written to the disk image.
func (f *File) HasDirtyFrames() bool { return f.dirtyFrames.Load() > 0 }

// Name returns the file name.
func (f *File) Name() string { return f.name }

// NumPages returns the number of allocated (non-freed) pages.
func (f *File) NumPages() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.pages) - len(f.free)
}

// Extent returns the highest allocated page number + 1 (the file's
// physical extent, including freed holes).
func (f *File) Extent() PageNum {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return PageNum(len(f.pages))
}

// Alloc allocates a zeroed page and returns its number.
func (f *File) Alloc() PageNum {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.free); n > 0 {
		pn := f.free[n-1]
		f.markDirty(pn)
		f.free = f.free[:n-1]
		f.pages[pn] = make([]byte, f.disk.pageSize)
		f.derived[pn].Store(nil)
		return pn
	}
	pn := PageNum(len(f.pages))
	f.markDirty(pn)
	f.pages = append(f.pages, make([]byte, f.disk.pageSize))
	if len(f.derived) < len(f.pages) {
		// Double, carrying the published values over: a value is cleared
		// only by a change to its image.
		grown := make([]atomic.Pointer[derivation], 2*len(f.pages))
		for i := range f.derived {
			grown[i].Store(f.derived[i].Load())
		}
		f.derived = grown
	}
	return pn
}

// Free releases a page for reuse.
func (f *File) Free(pn PageNum) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if int(pn) >= len(f.pages) || f.pages[pn] == nil {
		return
	}
	f.markDirty(pn)
	f.pages[pn] = nil
	f.derived[pn].Store(nil)
	f.free = append(f.free, pn)
}

// View runs fn on the page's on-disk image under the file's read lock,
// without copying it or charging the meter — the one way anything reads
// a page image: the pool's miss copies it into a frame, and the
// unmetered walks (readahead chain discovery, zone-map peeks, page
// counts) read a header or footer in place. fn must not keep the slice
// or anything aliasing it: writePage mutates the image in place once
// the lock drops. fn must not touch this file's pages or the pool (it
// runs under the read lock). With a write-back pool the image may lag
// dirty frames, so callers flush first when exactness matters.
func (f *File) View(pn PageNum, fn func(page []byte) error) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	page, err := f.pageLocked(pn)
	if err != nil {
		return err
	}
	return fn(page)
}

// pageLocked returns page pn's image, or an error when the file has no
// such page. The caller holds mu.
func (f *File) pageLocked(pn PageNum) ([]byte, error) {
	if int(pn) >= len(f.pages) || f.pages[pn] == nil {
		return nil, fmt.Errorf("storage: file %q has no page %d", f.name, pn)
	}
	return f.pages[pn], nil
}

// Peek returns a copy of the page's on-disk bytes without charging the
// meter, for callers that want the image itself (open-time checks,
// tests); walks that read a few bytes a page use View.
func (f *File) Peek(pn PageNum) ([]byte, error) {
	var out []byte
	err := f.View(pn, func(page []byte) error {
		out = append([]byte(nil), page...)
		return nil
	})
	return out, err
}

// writePage stores page bytes (no charge); only the buffer pool calls
// this.
func (f *File) writePage(pn PageNum, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.pageLocked(pn); err != nil {
		return err
	}
	if len(data) != f.disk.pageSize {
		return fmt.Errorf("storage: page size %d != %d", len(data), f.disk.pageSize)
	}
	f.markDirty(pn)
	copy(f.pages[pn], data)
	f.derived[pn].Store(nil)
	return nil
}
