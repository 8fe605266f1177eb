package colpage

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// This file is the page directory: what the header and footer of each of
// an access method's data pages say — the forward link, the row count and
// the zone maps — kept in memory beside the pages, the way a column store
// keeps page ranges as metadata rather than inside each page. The one
// chain scan (Scan, scan.go) walks it, down a B+-tree's leaf chain or a
// hash file's bucket chains, instead of opening every page of the chains
// to find the ones worth fetching.

// Directory holds one entry per data page of one file, by page number.
// Writers keep it: every data page is encoded through Encode, which
// records the link and row count it writes and the zone maps the encoder
// computed, and a freed page is dropped. It also answers how many data
// pages the file holds (Pages). It is derived state — in no snapshot —
// and is built from the file's images when the access method attaches to
// the file (NewDirectory), one unmetered pass.
//
// It has no lock of its own. An entry is written only where its page's
// frame bytes are written, which the engine's write lock serializes
// against every reader; walks read it under the read lock. A walk
// consults it only while the file has no dirty frame (Scan.window), so
// the entry it reads says what the page's image says: the last encode
// of every page has been written back. Every test binary checks exactly
// that, per lookup (checkDirectory).
type Directory struct {
	typ     PageType
	file    *storage.File
	entries []DirEntry
	pages   int // entries that are not entryNone

	// The check's image-side entry, reused lookup to lookup.
	checkMu sync.Mutex
	image   DirEntry
}

// DirEntry is one page's entry.
type DirEntry struct {
	Next    storage.PageNum
	HasNext bool
	kind    entryKind
	zones   Zones // a columnar page's
}

type entryKind uint8

const (
	// entryNone: no data page of the owner — an internal page, a freed
	// page, one never written. A walk stops there.
	entryNone entryKind = iota
	// entryCol: a data page, zones its footer.
	entryCol
	// entryBadZones: a data page whose footer does not parse — only a
	// restored image has one. A walk that needs its zones stops there.
	entryBadZones
)

var errBadZones = errors.New("colpage: the page's zone maps do not parse")

// NewDirectory returns the directory of f's data pages, which carry the
// type byte typ, read from the file's images: one unmetered pass over
// its pages, reading headers and footers in place — none for a new file.
func NewDirectory(typ PageType, f *storage.File) *Directory {
	d := &Directory{typ: typ, file: f, entries: make([]DirEntry, f.Extent())}
	for pn := range d.entries {
		e := &d.entries[pn]
		_ = f.View(storage.PageNum(pn), func(page []byte) error {
			typ.readEntry(page, e)
			return nil
		}) // a freed page keeps entryNone
		if e.kind != entryNone {
			d.pages++
		}
	}
	return d
}

// Pages returns the number of data pages the file holds: a B+-tree's
// leaves, a hash file's chain pages. It reads no page.
func (d *Directory) Pages() int { return d.pages }

// Encode writes n over page, the frame bytes of page pn, as EncodePage
// does, and records the page's link, row count and zone maps. A rewrite of
// a page reuses its entry: it allocates nothing unless a string bound
// moved.
func (d *Directory) Encode(pn storage.PageNum, page []byte, n *DataPage) {
	if int(pn) >= len(d.entries) {
		d.entries = slices.Grow(d.entries, int(pn)+1-len(d.entries))[:pn+1]
	}
	e := &d.entries[pn]
	if e.kind == entryNone {
		d.pages++
	}
	d.typ.encodePage(page, n, &e.zones)
	e.kind, e.Next, e.HasNext = entryCol, 0, n.HasNext
	if n.HasNext {
		e.Next = n.Next
	}
}

// Drop forgets a freed page.
func (d *Directory) Drop(pn storage.PageNum) {
	if int(pn) < len(d.entries) && d.entries[pn].kind != entryNone {
		d.entries[pn] = DirEntry{}
		d.pages--
	}
}

// readEntry sets e to what page's header and footer say, reusing
// e.zones.Cols.
func (pt PageType) readEntry(page []byte, e *DirEntry) {
	e.kind, e.Next, e.HasNext = entryNone, 0, false
	if len(page) < DataPageHeader || page[0] != byte(pt) {
		return
	}
	e.Next, e.HasNext = PageLink(page)
	e.kind = entryCol
	if ReadZones(page[DataPageHeader:], &e.zones) != nil {
		e.kind = entryBadZones
	}
}

// clean reports whether the directory's file holds no dirty frame: the
// clean-file rule, under which reads of a B+-tree's leaves go through
// kept lanes and a full scan may read ahead (Scan.window).
func (d *Directory) clean() bool { return !d.file.HasDirtyFrames() }

// Lookup returns page pn's entry, or nil when pn is no data page of the
// owner. The entry is the directory's own: the caller reads it and keeps
// nothing. In a test binary a lookup while the file is clean is checked
// against the page's image, and a disagreement is the error.
func (d *Directory) Lookup(pn storage.PageNum) (*DirEntry, error) {
	e := d.at(int(pn))
	if checking() && d.clean() {
		if err := d.check(pn, e); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// check compares e, pn's entry (nil: none), with what pn's image says.
func (d *Directory) check(pn storage.PageNum, e *DirEntry) error {
	d.checkMu.Lock()
	defer d.checkMu.Unlock()
	img := &d.image
	img.kind = entryNone
	if e != nil {
		// Start from the entry's bounds: reading equal string bounds over
		// them allocates nothing (ReadZones).
		img.zones.Cols = append(img.zones.Cols[:0], e.zones.Cols...)
	}
	_ = d.file.View(pn, func(page []byte) error {
		d.typ.readEntry(page, img)
		return nil
	})
	if !e.same(img) {
		return fmt.Errorf("colpage: directory entry of %s page %d is %v, its image says %v", d.file.Name(), pn, e, img)
	}
	return nil
}

// Diff reports the first page whose entry differs between d and o — for
// tests comparing the directory writers kept with one read from the
// images.
func (d *Directory) Diff(o *Directory) error {
	for pn := range max(len(d.entries), len(o.entries)) {
		if a, b := d.at(pn), o.at(pn); !a.same(b) {
			return fmt.Errorf("colpage: page %d: entry %v, the other directory %v", pn, a, b)
		}
	}
	return nil
}

// at is pn's entry, nil for none.
func (d *Directory) at(pn int) *DirEntry {
	if pn < len(d.entries) && d.entries[pn].kind != entryNone {
		return &d.entries[pn]
	}
	return nil
}

// same reports whether two entries (nil: none) say the same of a page.
func (e *DirEntry) same(o *DirEntry) bool {
	if e.none() || o.none() {
		return e.none() && o.none()
	}
	if e.kind != o.kind || e.Next != o.Next || e.HasNext != o.HasNext {
		return false
	}
	if e.kind != entryCol {
		return true
	}
	return e.zones.N == o.zones.N && slices.EqualFunc(e.zones.Cols, o.zones.Cols, func(a, b ColZone) bool {
		return a.Present == b.Present && (!a.Present || tuple.Equal(a.Min, b.Min) && tuple.Equal(a.Max, b.Max))
	})
}

func (e *DirEntry) none() bool { return e == nil || e.kind == entryNone }

// Empty reports whether the entry is a data page whose footer parses and
// says it holds no row (Zones.N, the chunk's row count): a page a chain
// walk has nothing to read from but its link, which the entry carries.
func (e *DirEntry) Empty() bool { return !e.none() && e.kind == entryCol && e.zones.N == 0 }

// String renders the entry for a check's error.
func (e *DirEntry) String() string {
	if e.none() {
		return "none"
	}
	s := fmt.Sprintf("{next %d %v", e.Next, e.HasNext)
	if e.kind == entryBadZones {
		return s + " zones unreadable}"
	}
	return s + fmt.Sprintf(" zones %+v}", e.zones)
}

// Prunable reports whether the page's zone maps disprove the atoms for
// every row — PageType.Prunable's answer for the page's image, without
// reading it: an error for zones that do not parse.
func (e *DirEntry) Prunable(atoms []Atom) (bool, error) {
	switch {
	case len(atoms) == 0:
		return false, nil
	case e.kind == entryBadZones:
		return false, errBadZones
	}
	return e.zones.Prunable(atoms), nil
}

// Zones returns the page's zone maps — the directory's own, to read and
// not keep — or false when its footer does not parse.
func (e *DirEntry) Zones() (*Zones, bool) {
	return &e.zones, e.kind == entryCol
}
