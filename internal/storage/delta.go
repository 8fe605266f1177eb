package storage

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Change tracking lets a checkpoint pay for what changed instead of
// for the whole disk. Once ResetChanges has been called the Disk
// records, at its five mutation points (File.writePage, File.Alloc,
// File.Free, Disk.Open creating a file, Disk.Remove), which pages of
// which files were touched and which files appeared or disappeared.
// Delta reads that record out as a DiskDelta; DiskImage.Apply replays
// it onto the image the previous checkpoint left, and the result is the
// disk's state field for field (the tests read that out directly, as
// their Snapshot oracle). The record is dropped only by the next
// ResetChanges, which the checkpoint calls after its frame is durable —
// a checkpoint that fails leaves every change for the next one.

// DiskDelta is the serializable difference between two states of a
// Disk: the state at the last ResetChanges (for FullDelta, the empty
// disk) and the state when it was taken. AppendBinary/DecodeDiskDelta
// are its byte encoding, the only form in which a disk is stored.
type DiskDelta struct {
	// PageSize is the size of every page in Files.
	PageSize int
	// Removed names files of the earlier state that no longer exist (or
	// were replaced by a new file of the same name, which then also
	// appears in Files with Created set). Sorted.
	Removed []string
	// Files holds every created or changed file, sorted by name.
	Files []FileDelta
}

// FileDelta is one file's changes. Extent and Free are the file's
// complete current extent and free list — the allocator pops from the
// tail of Free, so its order is state — and Pages the live pages whose
// contents may differ from the earlier state, in page order.
type FileDelta struct {
	Name string
	// Created marks a file that did not exist in the earlier state (or
	// replaces one named in Removed); all of its pages are in Pages.
	Created bool
	Extent  int
	Free    []PageNum
	Pages   []PageDelta
}

// PageDelta is one changed page.
type PageDelta struct {
	Num  PageNum
	Data []byte
}

// ResetChanges forgets every recorded change and tracks from the
// disk's current state on; the first call turns tracking on. The caller
// must keep writers out between taking the delta it made
// durable and this call (the engine lock does), or their changes would
// be in neither.
func (d *Disk) ResetChanges() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tracking.Store(true)
	d.removed = map[string]struct{}{}
	for _, f := range d.files {
		f.mu.Lock()
		f.fresh = false
		f.dirty = nil
		f.mu.Unlock()
	}
}

// Delta returns the changes recorded since the last ResetChanges; page
// contents are copied. It does not clear them. It sees the on-disk
// state only, so callers FlushAll first.
func (d *Disk) Delta() *DiskDelta { return d.delta(false) }

// FullDelta returns the disk's whole state as the delta against an
// empty disk of the same page size: every file created, every live page
// present. Applied to an empty DiskImage it yields the disk's image.
func (d *Disk) FullDelta() *DiskDelta { return d.delta(true) }

func (d *Disk) delta(full bool) *DiskDelta {
	delta := &DiskDelta{PageSize: d.pageSize}
	if !full {
		d.mu.RLock()
		for name := range d.removed {
			delta.Removed = append(delta.Removed, name)
		}
		d.mu.RUnlock()
		sort.Strings(delta.Removed)
	}
	names := d.FileNames()
	delta.Files = make([]FileDelta, 0, len(names))
	for _, name := range names {
		f := d.file(name)
		if f == nil {
			continue
		}
		f.mu.RLock()
		if full || f.fresh || len(f.dirty) > 0 {
			fd := FileDelta{
				Name:    name,
				Created: full || f.fresh,
				Extent:  len(f.pages),
				Free:    clone(f.free),
			}
			var nums []PageNum // the pages to carry, in order
			if full {
				nums = make([]PageNum, len(f.pages))
				for i := range nums {
					nums[i] = PageNum(i)
				}
			} else {
				nums = make([]PageNum, 0, len(f.dirty))
				for pn := range f.dirty {
					nums = append(nums, pn)
				}
				slices.Sort(nums)
			}
			fd.Pages = make([]PageDelta, 0, len(nums))
			for _, pn := range nums {
				// A dirty page that is nil now was freed; Free says so.
				if p := f.pages[pn]; p != nil {
					fd.Pages = append(fd.Pages, PageDelta{Num: pn, Data: clone(p)})
				}
			}
			delta.Files = append(delta.Files, fd)
		}
		f.mu.RUnlock()
	}
	return delta
}

// clone copies s into a slice of its own, exactly its size (nil for
// none): one allocation, never regrown.
func clone[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	c := make([]T, len(s))
	copy(c, s)
	return c
}

// Apply brings the image from the state a delta was taken against to
// the state it was taken at. It takes ownership of the delta's page
// buffers. The delta is validated like an image: a delta for a file the
// image lacks, a page beyond the extent or of the wrong size, and a
// free list that names a live page are all errors, after which the
// image is unusable.
func (img *DiskImage) Apply(d *DiskDelta) error {
	if d.PageSize != img.PageSize {
		return fmt.Errorf("storage: delta has page size %d, image %d", d.PageSize, img.PageSize)
	}
	files := make(map[string]*FileImage, len(img.Files))
	for i := range img.Files {
		files[img.Files[i].Name] = &img.Files[i]
	}
	for _, name := range d.Removed {
		if _, ok := files[name]; !ok {
			return fmt.Errorf("storage: delta removes unknown file %q", name)
		}
		delete(files, name)
	}
	for i := range d.Files {
		fd := &d.Files[i]
		fi, ok := files[fd.Name]
		switch {
		case fd.Created && ok:
			return fmt.Errorf("storage: delta creates existing file %q", fd.Name)
		case fd.Created:
			fi = &FileImage{Name: fd.Name, Pages: [][]byte{}}
			files[fd.Name] = fi
		case !ok:
			return fmt.Errorf("storage: delta for unknown or removed file %q", fd.Name)
		}
		// Files never shrink, and every page the extent gained is either
		// live (so dirty, so in Pages) or freed again (so in Free): the
		// bound keeps a hostile Extent from sizing an allocation.
		grown := fd.Extent - len(fi.Pages)
		if grown < 0 || grown > len(fd.Pages)+len(fd.Free) {
			return fmt.Errorf("storage: file %q extent %d does not follow from extent %d", fd.Name, fd.Extent, len(fi.Pages))
		}
		fi.Pages = append(fi.Pages, make([][]byte, grown)...)
		for _, pn := range fd.Free {
			if int(pn) < len(fi.Pages) {
				fi.Pages[pn] = nil
			}
		}
		for _, p := range fd.Pages {
			if int(p.Num) >= len(fi.Pages) {
				return fmt.Errorf("storage: file %q page %d beyond extent %d", fd.Name, p.Num, len(fi.Pages))
			}
			fi.Pages[p.Num] = p.Data
		}
		fi.Free = append([]PageNum(nil), fd.Free...)
		if err := fi.validate(img.PageSize); err != nil {
			return err
		}
	}
	var out []FileImage // nil when empty
	for _, fi := range files {
		out = append(out, *fi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	img.Files = out
	return nil
}

// AppendBinary appends the delta's encoding to dst. The format is a
// sequence of uvarints and raw bytes:
//
//	pageSize nRemoved {name}* nFiles {file}*
//	file = name created(1B) extent nFree {pn}* nPages {pn page(pageSize B)}*
//	name = len bytes
//
// Pages carry no length of their own, so one of another size than
// PageSize cannot be encoded (DiskImage.Apply would refuse it anyway).
func (d *DiskDelta) AppendBinary(dst []byte) ([]byte, error) {
	if n := d.EncodedSize(); cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = binary.AppendUvarint(dst, uint64(d.PageSize))
	dst = binary.AppendUvarint(dst, uint64(len(d.Removed)))
	for _, name := range d.Removed {
		dst = appendName(dst, name)
	}
	dst = binary.AppendUvarint(dst, uint64(len(d.Files)))
	for i := range d.Files {
		fd := &d.Files[i]
		dst = appendName(dst, fd.Name)
		created := byte(0)
		if fd.Created {
			created = 1
		}
		dst = append(dst, created)
		dst = binary.AppendUvarint(dst, uint64(fd.Extent))
		dst = binary.AppendUvarint(dst, uint64(len(fd.Free)))
		for _, pn := range fd.Free {
			dst = binary.AppendUvarint(dst, uint64(pn))
		}
		dst = binary.AppendUvarint(dst, uint64(len(fd.Pages)))
		for _, p := range fd.Pages {
			if len(p.Data) != d.PageSize {
				return nil, fmt.Errorf("storage: file %q page %d has %d bytes, want %d", fd.Name, p.Num, len(p.Data), d.PageSize)
			}
			dst = binary.AppendUvarint(dst, uint64(p.Num))
			dst = append(dst, p.Data...)
		}
	}
	return dst, nil
}

func appendName(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// EncodedSize returns the length of the delta's AppendBinary encoding,
// so that it is built in one buffer of the right size.
func (d *DiskDelta) EncodedSize() int {
	name := func(s string) int { return uvarintLen(len(s)) + len(s) }
	n := uvarintLen(d.PageSize) + uvarintLen(len(d.Removed))
	for _, s := range d.Removed {
		n += name(s)
	}
	n += uvarintLen(len(d.Files))
	for i := range d.Files {
		fd := &d.Files[i]
		n += name(fd.Name) + 1 + uvarintLen(fd.Extent) + uvarintLen(len(fd.Free))
		for _, pn := range fd.Free {
			n += uvarintLen(int(pn))
		}
		n += uvarintLen(len(fd.Pages))
		for _, p := range fd.Pages {
			n += uvarintLen(int(p.Num)) + d.PageSize
		}
	}
	return n
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x int) int { return max(1, (bits.Len64(uint64(x))+6)/7) }

// maxDeltaPageSize bounds the page size a delta encoding may claim; it
// only keeps the decoder's arithmetic in range (Apply compares the
// claim with the image's real page size).
const maxDeltaPageSize = 1 << 30

// deltaReader walks a DiskDelta encoding; the first malformed field
// sticks in err and turns the rest into no-ops.
type deltaReader struct {
	b   []byte
	err error
}

func (r *deltaReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("storage: delta encoding: %s", what)
	}
	r.b = nil
}

func (r *deltaReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad or missing varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a length and refuses one the remaining bytes could not
// hold at elemSize bytes apiece, so a hostile count never sizes an
// allocation.
func (r *deltaReader) count(elemSize int) int {
	v := r.uvarint()
	if v > uint64(len(r.b)/elemSize) {
		r.fail("count exceeds the bytes that follow")
		return 0
	}
	return int(v)
}

func (r *deltaReader) bytes(n int) []byte {
	if n > len(r.b) {
		r.fail("truncated")
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *deltaReader) pageNum() PageNum {
	v := r.uvarint()
	if v > uint64(^PageNum(0)) {
		r.fail("page number out of range")
	}
	return PageNum(v)
}

// DecodeDiskDelta parses an AppendBinary encoding. The delta's page
// buffers alias b. Structural damage — truncation, counts larger than
// the input, trailing bytes — is an error here; whether the delta fits
// an image is Apply's question.
func DecodeDiskDelta(b []byte) (*DiskDelta, error) {
	r := &deltaReader{b: b}
	d := &DiskDelta{}
	if ps := r.uvarint(); ps > maxDeltaPageSize {
		r.fail("page size out of range")
	} else {
		d.PageSize = int(ps)
	}
	for n := r.count(1); n > 0 && r.err == nil; n-- {
		d.Removed = append(d.Removed, string(r.bytes(r.count(1))))
	}
	for n := r.count(1); n > 0 && r.err == nil; n-- {
		fd := FileDelta{Name: string(r.bytes(r.count(1)))}
		if created := r.bytes(1); len(created) == 1 {
			fd.Created = created[0] != 0
		}
		// An extent is bounded by Apply (it must follow from the image
		// and this delta's pages); here it only has to be an int.
		if ext := r.uvarint(); ext > uint64(^uint32(0)) {
			r.fail("extent out of range")
		} else {
			fd.Extent = int(ext)
		}
		for k := r.count(1); k > 0 && r.err == nil; k-- {
			fd.Free = append(fd.Free, r.pageNum())
		}
		for k := r.count(1 + d.PageSize); k > 0 && r.err == nil; k-- {
			fd.Pages = append(fd.Pages, PageDelta{Num: r.pageNum(), Data: r.bytes(d.PageSize)})
		}
		d.Files = append(d.Files, fd)
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail(fmt.Sprintf("%d trailing bytes", len(r.b)))
	}
	if r.err != nil {
		return nil, r.err
	}
	return d, nil
}
