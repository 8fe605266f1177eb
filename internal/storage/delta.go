package storage

import (
	"bytes"
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
// which files were touched and which files appeared or disappeared, and
// keeps each touched page's pre-image: its bytes as the reset left
// them, copied at its first mutation (the copy-on-write of Lorie's
// shadow pages). Delta reads that record out as a DiskDelta whose pages
// are patches — the runs of bytes where each page differs from its
// pre-image — and DiskImage.Apply replays it onto the image the
// previous checkpoint left; the result is the disk's state field for
// field (the tests read that out directly, as their Snapshot oracle).
// The record is dropped only by the next ResetChanges, which the
// checkpoint calls once its frame is encoded — a checkpoint that fails
// before that leaves every change for the next one.

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
// contents differ from the earlier state, in page order.
type FileDelta struct {
	Name string
	// Created marks a file that did not exist in the earlier state (or
	// replaces one named in Removed); all of its pages are in Pages.
	Created bool
	Extent  int
	Free    []PageNum
	Pages   []PageDelta
}

// PageDelta is one changed page as a patch against its base: the page
// as the earlier state held it, or zeros where the earlier state held
// no such page (it was freed, beyond the extent, or its file is new).
// Runs overwrite the base, in page order, each non-empty and starting
// at or after the previous one's end. A page whose base is zeros is in
// its file's Pages even when its patch is empty: it is live, and all
// zeros. A page written back to exactly its base is not in Pages.
type PageDelta struct {
	Num  PageNum
	Runs []Run
}

// Run is one stretch of a patch: Data replaces the base's bytes from Off
// on.
type Run struct {
	Off  int
	Data []byte
}

// maxRunGap is the longest stretch of unchanged bytes a run carries
// rather than split in two: about what a run header costs (an offset
// and a length). Closer runs are merged.
const maxRunGap = 4

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
		for _, pre := range f.dirty {
			if pre != nil {
				f.spare = append(f.spare, pre)
			}
		}
		f.dirty = nil
		f.mu.Unlock()
	}
}

// Delta returns the changes recorded since the last ResetChanges, each
// changed page diffed against its pre-image under the file's read lock;
// the runs are copied out. It does not clear the record. It sees the
// on-disk state only, so callers FlushAll first.
func (d *Disk) Delta() *DiskDelta { return d.delta(false) }

// FullDelta returns the disk's whole state as the delta against an
// empty disk of the same page size: every file created, every live page
// patched against zeros. Applied to an empty DiskImage it yields the
// disk's image.
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
	p := patcher{zeros: make([]byte, d.pageSize)}
	var nums []PageNum // a file's dirty pages, in order
	for _, name := range d.FileNames() {
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
			if full {
				for pn, page := range f.pages {
					if page != nil {
						fd.Pages = p.add(fd.Pages, PageNum(pn), nil, page)
					}
				}
			} else {
				nums = nums[:0]
				for pn := range f.dirty {
					nums = append(nums, pn)
				}
				slices.Sort(nums)
				for _, pn := range nums {
					// A dirty page that is nil now was freed; Free says so.
					if page := f.pages[pn]; page != nil {
						fd.Pages = p.add(fd.Pages, pn, f.dirty[pn], page)
					}
				}
			}
			delta.Files = append(delta.Files, fd)
		}
		f.mu.RUnlock()
	}
	return delta
}

// patcher builds a delta's patches: every run's bytes go into one
// buffer and every run into one slice, which the pages' Runs and the
// runs' Data are windows of. A window keeps the backing array it was
// cut from when the buffer later grows, and nothing writes behind a
// window, so no window needs fixing up.
type patcher struct {
	runs  []Run
	buf   []byte
	zeros []byte // the base of a page that had none
}

// add appends page pn's patch against pre (nil: zeros) to pages. A page
// equal to its pre-image is left out; one without a pre-image never is.
func (p *patcher) add(pages []PageDelta, pn PageNum, pre, page []byte) []PageDelta {
	base := pre
	if base == nil {
		base = p.zeros
	}
	first := len(p.runs)
	n := len(page)
	for i := diffFrom(base, page, 0); i < n; {
		end := sameFrom(base, page, i)
		next := diffFrom(base, page, end)
		for next < n && next-end <= maxRunGap {
			end = sameFrom(base, page, next)
			next = diffFrom(base, page, end)
		}
		at := len(p.buf)
		p.buf = append(p.buf, page[i:end]...)
		p.runs = append(p.runs, Run{Off: i, Data: p.buf[at:len(p.buf):len(p.buf)]})
		i = next
	}
	pd := PageDelta{Num: pn}
	switch {
	case first < len(p.runs):
		pd.Runs = p.runs[first:len(p.runs):len(p.runs)]
	case pre != nil:
		return pages
	}
	return append(pages, pd)
}

// diffChunk is the stretch diffFrom skips by one vector compare.
const diffChunk = 256

// Word-at-a-time byte search: lowBits and highBits are 0x01 and 0x80 in
// every byte of a word.
const (
	lowBits  = 0x0101010101010101
	highBits = 0x8080808080808080
)

// diffFrom returns the first index from i on where a and b differ, or
// len(b). a is at least as long as b.
func diffFrom(a, b []byte, i int) int {
	// Long equal stretches, most of a page, go by the runtime's vector
	// compare a chunk at a time.
	for ; i+diffChunk <= len(b) && bytes.Equal(a[i:i+diffChunk], b[i:i+diffChunk]); i += diffChunk {
	}
	for ; i+8 <= len(b); i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// sameFrom returns the first index from i on where a and b agree, or
// len(b). The word test finds the lowest zero byte of a ^ b: the
// borrow that can mark a byte above a zero byte falsely never marks
// one below the lowest.
func sameFrom(a, b []byte, i int) int {
	for ; i+8 <= len(b); i += 8 {
		x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])
		if z := (x - lowBits) &^ x & highBits; z != 0 {
			return i + bits.TrailingZeros64(z)/8
		}
	}
	for i < len(b) && a[i] != b[i] {
		i++
	}
	return i
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

// checkRuns holds a patch to its form: every run non-empty, on the page,
// and starting at or after the previous run's end.
func checkRuns(runs []Run, pageSize int) error {
	end := 0
	for _, r := range runs {
		switch {
		case len(r.Data) == 0:
			return fmt.Errorf("zero-length run at %d", r.Off)
		case r.Off < end:
			return fmt.Errorf("run at %d out of order or overlapping the run ending at %d", r.Off, end)
		case r.Off > pageSize-len(r.Data):
			return fmt.Errorf("run of %d bytes at %d past the page end %d", len(r.Data), r.Off, pageSize)
		}
		end = r.Off + len(r.Data)
	}
	return nil
}

// Apply brings the image from the state a delta was taken against to
// the state it was taken at. Each patched page is the image's own page
// with the runs written over it, or a new zero page where the image has
// none: the image owns its pages, and nothing in it aliases the delta.
// Apply checks what the delta touches — the removed and created files,
// the extent, the free list, and the patched pages — in time
// proportional to the delta, not the image: a delta for a file the image
// lacks, a page or run beyond the extent or the page, a free list that
// names a live page or a page twice, and a hole the free list misses are
// errors, after which the image is unusable. An image that was valid
// stays valid; RestoreDisk checks the whole of it once.
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
		if err := fi.apply(fd, img.PageSize); err != nil {
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

// apply brings one file image forward by its delta, checking the free
// list and the pages the delta touches. The holes of the result are the
// earlier holes the delta does not make live, the pages the extent
// gained that it does not make live, and the pages its free list frees;
// so the free list is exact if it names each of those once and no live
// page — given that the earlier free list named exactly the earlier
// holes, which a valid image's does.
func (fi *FileImage) apply(fd *FileDelta, pageSize int) error {
	// Files never shrink, and every page the extent gained is either
	// live (so dirty, so in Pages) or freed again (so in Free): the
	// bound keeps a hostile Extent from sizing an allocation.
	old := len(fi.Pages)
	grown := fd.Extent - old
	if grown < 0 || grown > len(fd.Pages)+len(fd.Free) {
		return fmt.Errorf("storage: file %q extent %d does not follow from extent %d", fd.Name, fd.Extent, old)
	}
	fi.Pages = append(fi.Pages, make([][]byte, grown)...)
	freed := make(map[PageNum]bool, len(fd.Free))
	for _, pn := range fd.Free {
		if int(pn) >= len(fi.Pages) {
			return fmt.Errorf("storage: file %q free list names live page %d", fd.Name, pn)
		}
		if freed[pn] {
			return fmt.Errorf("storage: file %q free list names page %d twice", fd.Name, pn)
		}
		freed[pn] = true
		fi.Pages[pn] = nil
	}
	for _, p := range fd.Pages {
		switch {
		case int(p.Num) >= len(fi.Pages):
			return fmt.Errorf("storage: file %q page %d beyond extent %d", fd.Name, p.Num, len(fi.Pages))
		case freed[p.Num]:
			return fmt.Errorf("storage: file %q free list names live page %d", fd.Name, p.Num)
		}
		if err := checkRuns(p.Runs, pageSize); err != nil {
			return fmt.Errorf("storage: file %q page %d: %w", fd.Name, p.Num, err)
		}
		page := fi.Pages[p.Num]
		if page == nil {
			page = make([]byte, pageSize)
			fi.Pages[p.Num] = page
		}
		for _, r := range p.Runs {
			copy(page[r.Off:], r.Data)
		}
	}
	hole := func(pn PageNum) error {
		if fi.Pages[pn] == nil && !freed[pn] {
			return fmt.Errorf("storage: file %q page %d missing and not freed", fd.Name, pn)
		}
		return nil
	}
	for _, pn := range fi.Free {
		if err := hole(pn); err != nil {
			return err
		}
	}
	for pn := old; pn < len(fi.Pages); pn++ {
		if err := hole(PageNum(pn)); err != nil {
			return err
		}
	}
	fi.Free = clone(fd.Free)
	return nil
}

// AppendBinary appends the delta's encoding to dst. The format is a
// sequence of uvarints and raw bytes:
//
//	pageSize nRemoved {name}* nFiles {file}*
//	file = name created(1B) extent nFree {pn}* nPages {page}*
//	page = pn nRuns {off len bytes(len)}*
//	name = len bytes
//
// A patch that checkRuns refuses, and a page size over
// maxDeltaPageSize, cannot be encoded (DecodeDiskDelta would refuse
// them anyway).
func (d *DiskDelta) AppendBinary(dst []byte) ([]byte, error) {
	if d.PageSize > maxDeltaPageSize {
		return nil, fmt.Errorf("storage: page size %d exceeds a delta's %d", d.PageSize, maxDeltaPageSize)
	}
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
			if err := checkRuns(p.Runs, d.PageSize); err != nil {
				return nil, fmt.Errorf("storage: file %q page %d: %w", fd.Name, p.Num, err)
			}
			dst = binary.AppendUvarint(dst, uint64(p.Num))
			dst = binary.AppendUvarint(dst, uint64(len(p.Runs)))
			for _, r := range p.Runs {
				dst = binary.AppendUvarint(dst, uint64(r.Off))
				dst = binary.AppendUvarint(dst, uint64(len(r.Data)))
				dst = append(dst, r.Data...)
			}
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
			n += uvarintLen(int(p.Num)) + uvarintLen(len(p.Runs))
			for _, r := range p.Runs {
				n += uvarintLen(r.Off) + uvarintLen(len(r.Data)) + len(r.Data)
			}
		}
	}
	return n
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x int) int { return max(1, (bits.Len64(uint64(x))+6)/7) }

// maxDeltaPageSize bounds the page size a delta may have, encoded or
// decoded (Apply also compares it with the image's). A page costs an
// encoding two bytes however large it is — its number and an empty
// patch — so this is what bounds the memory a hostile frame makes
// Apply allocate: at most maxDeltaPageSize/2 times its length. No engine
// page comes near it (the paper's B is 4 000).
const maxDeltaPageSize = 1 << 16

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

// Least encoded sizes of a page and of a run, which bound the counts a
// decoder accepts: a page number and a run count; an offset, a length
// and at least one byte.
const (
	minPageEncoding = 2
	minRunEncoding  = 3
)

// DecodeDiskDelta parses an AppendBinary encoding. The runs' bytes alias
// b. Structural damage — truncation, counts larger than the input, a
// run that is empty, out of order, overlapping or past the page end,
// trailing bytes — is an error here; whether the delta fits an image is
// Apply's question. Every allocation is bounded by the bytes that
// follow, never by a count they claim.
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
	var runs []Run // every page's runs, in one slice (see patcher)
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
		for k := r.count(minPageEncoding); k > 0 && r.err == nil; k-- {
			p := PageDelta{Num: r.pageNum()}
			first := len(runs)
			for j := r.count(minRunEncoding); j > 0 && r.err == nil; j-- {
				off := r.uvarint()
				data := r.bytes(r.count(1))
				if off > maxDeltaPageSize {
					r.fail("run offset out of range")
				}
				runs = append(runs, Run{Off: int(off), Data: data})
			}
			if first < len(runs) {
				p.Runs = runs[first:len(runs):len(runs)]
			}
			if r.err == nil {
				if err := checkRuns(p.Runs, d.PageSize); err != nil {
					r.fail(fmt.Sprintf("page %d: %v", p.Num, err))
				}
			}
			fd.Pages = append(fd.Pages, p)
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
