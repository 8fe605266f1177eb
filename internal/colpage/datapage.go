package colpage

import (
	"encoding/binary"
	"fmt"

	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// This file is the linked tuple data page: the page a B+-tree leaf and a
// hash chain page both are, which the paper prices the same way (C2 per
// data page) whichever access method owns it.
//
//	[1 type][2 count][4 next+1][payload]
//
// count is the number of tuples, next+1 the forward link (0 = none). The
// type byte names the owner and the payload's layout: one column chunk
// (Encode) or the tuples row-major (tuple.Encode), each access method
// having its own byte for either. Which layout a page is written in
// follows the disk's PageLayout at encode time; readers dispatch on the
// type byte, so files of mixed layout work.

// DataPageHeader is the size of the fixed prefix before the payload.
const DataPageHeader = 7

// PageTypes is the pair of type bytes one access method writes its data
// pages under. The values are in every checkpoint; every decode rejects
// a page that carries neither.
type PageTypes struct {
	Row byte // payload is row-major encoded tuples
	Col byte // payload is one column chunk
}

// Has reports whether typ marks a data page of this access method, in
// either layout.
func (pt PageTypes) Has(typ byte) bool { return typ == pt.Row || typ == pt.Col }

// DataPage is the decoded form of a data page.
type DataPage struct {
	Next    storage.PageNum
	HasNext bool
	Tuples  []tuple.Tuple
}

// Size returns the page's size in the row layout, which is what callers
// split and overflow by under both layouts: page counts, and so metered
// I/O, do not depend on the layout.
func (n *DataPage) Size() int {
	sz := DataPageHeader
	for _, tp := range n.Tuples {
		sz += tp.EncodedSize()
	}
	return sz
}

// EncodePage writes n, which the caller has checked fits (Size), over
// page. A column chunk that does not fit — pathological strings can make
// it larger than the rows — falls back to the row layout for this page.
func (pt PageTypes) EncodePage(page []byte, n *DataPage, layout storage.PageLayout) {
	pt.encodePage(page, n, layout, nil)
}

// encodePage is EncodePage, also handing z (when non-nil) the zone maps
// of a columnar page, and reporting whether the page is one.
func (pt PageTypes) encodePage(page []byte, n *DataPage, layout storage.PageLayout, z *Zones) (col bool) {
	typ, off := pt.Row, DataPageHeader
	if layout == storage.PageLayoutCol {
		if used, err := encode(page[DataPageHeader:], n.Tuples, z); err == nil {
			typ, off = pt.Col, DataPageHeader+used
		}
	}
	if typ == pt.Row {
		for _, tp := range n.Tuples {
			off += len(tp.Encode(page[off:off]))
		}
	}
	page[0] = typ
	binary.BigEndian.PutUint16(page[1:], uint16(len(n.Tuples)))
	next := uint32(0)
	if n.HasNext {
		next = uint32(n.Next) + 1
	}
	binary.BigEndian.PutUint32(page[3:], next)
	clear(page[off:])
	return typ == pt.Col
}

// PageLink reads a data page header's forward link.
func PageLink(page []byte) (next storage.PageNum, hasNext bool) {
	if raw := binary.BigEndian.Uint32(page[3:]); raw != 0 {
		return storage.PageNum(raw - 1), true
	}
	return 0, false
}

// rows validates the header — pages reach the engine from snapshot
// files, i.e. from outside — and returns its tuple count.
func (pt PageTypes) rows(page []byte) (int, error) {
	if len(page) < DataPageHeader {
		return 0, fmt.Errorf("colpage: data page of %d bytes", len(page))
	}
	if !pt.Has(page[0]) {
		return 0, fmt.Errorf("colpage: page type %d is not a data page (type %d or %d)", page[0], pt.Row, pt.Col)
	}
	return int(binary.BigEndian.Uint16(page[1:])), nil
}

func errHeaderCount(held, rows int) error {
	return fmt.Errorf("colpage: columnar data page holds %d tuples, header says %d", held, rows)
}

// DecodePage decodes a page to tuples — the path update operations
// (decode, modify, re-encode) use.
func (pt PageTypes) DecodePage(page []byte) (*DataPage, error) {
	rows, err := pt.rows(page)
	if err != nil {
		return nil, err
	}
	n := &DataPage{}
	n.Next, n.HasNext = PageLink(page)
	if page[0] == pt.Col {
		if n.Tuples, err = DecodeTuples(page[DataPageHeader:]); err != nil {
			return nil, fmt.Errorf("colpage: columnar data page: %w", err)
		}
		if len(n.Tuples) != rows {
			return nil, errHeaderCount(len(n.Tuples), rows)
		}
		return n, nil
	}
	n.Tuples = make([]tuple.Tuple, 0, rows+1) // room for an update's insert, as DecodeTuples leaves
	off := DataPageHeader
	for i := 0; i < rows; i++ {
		tp, used, err := tuple.Decode(page[off:])
		if err != nil {
			return nil, fmt.Errorf("colpage: data page tuple %d: %w", i, err)
		}
		n.Tuples = append(n.Tuples, tp)
		off += used
	}
	return n, nil
}

// Lanes is a run of scanned rows in columnar form: the id lane plus one
// vec.Col per column — a batch's slot-0 lanes, or a scan's staging
// lanes.
type Lanes struct {
	IDs  []uint64
	Cols []vec.Col
}

// Reset empties the lanes for reuse, keeping their capacity. Rows moved
// out of them were copied, and string cells point into per-page arenas
// that are never reused, so nothing handed out aliases what comes next.
func (l *Lanes) Reset() {
	l.IDs = l.IDs[:0]
	for c := range l.Cols {
		l.Cols[c].Reset()
	}
}

// MoveRows appends staged rows [lo, hi) to b's slot 0, one copy per
// column.
func (l *Lanes) MoveRows(b *vec.Batch, lo, hi int) error {
	if !b.AppendSlot0Rows(l.IDs, l.Cols, lo, hi) {
		return errMixedShape
	}
	return nil
}

var errMixedShape = fmt.Errorf("colpage: scan produced mixed-shape tuples")

// appendPage decodes onto the lanes the rows of a page of rows tuples
// (rows already validated) for which every atom holds, and returns how
// many the atoms dropped. A columnar page goes through DecodeWhere, which
// materializes no tuple and decodes only the survivors; a row page
// decodes to tuples, is checked whole — one arity throughout, matching
// what the lanes hold — and has its survivors gathered cell by cell, so
// both layouts return the same rows. Lanes holding no rows take the
// page's arity. After an error the lanes hold a partial append.
func (pt PageTypes) appendPage(page []byte, rows int, atoms []Atom, l *Lanes) (int, error) {
	if page[0] == pt.Col {
		ids, cols, dropped, err := DecodeWhere(page[DataPageHeader:], atoms, l.IDs, l.Cols)
		if err != nil {
			return 0, fmt.Errorf("colpage: columnar data page: %w", err)
		}
		if held := len(ids) - len(l.IDs) + dropped; held != rows {
			return 0, errHeaderCount(held, rows)
		}
		l.IDs, l.Cols = ids, cols
		return dropped, nil
	}
	n, err := pt.DecodePage(page)
	if err != nil {
		return 0, err
	}
	arity := len(l.Cols)
	if len(l.IDs) == 0 && len(n.Tuples) > 0 {
		arity = len(n.Tuples[0].Vals)
	}
	kept := n.Tuples[:0]
	for _, tp := range n.Tuples {
		if len(tp.Vals) != arity {
			return 0, fmt.Errorf("colpage: mixed arity in data page: a tuple of %d values among rows of %d", len(tp.Vals), arity)
		}
		if holdsAll(atoms, tp.Vals) {
			kept = append(kept, tp)
		}
	}
	if l.IDs, l.Cols, err = vec.AppendTupleRows(l.IDs, l.Cols, kept); err != nil {
		return 0, fmt.Errorf("colpage: mixed arity in data page: %w", err)
	}
	return rows - len(kept), nil
}

// Take decodes the rows of a scanned page for which every atom holds —
// every row, without atoms — and returns how many the atoms dropped: a
// scan's pushed-down predicate, tested before anything is decoded. The
// rows land straight on b's slot-0 lanes (direct) when nothing is staged
// ahead of the page and all of its rows would fit below max rows, on the
// staging lanes otherwise — from where the caller moves them on in runs
// (MoveRows). A nil b always stages.
func (pt PageTypes) Take(page []byte, atoms []Atom, b *vec.Batch, max int, stage *Lanes) (direct bool, dropped int, err error) {
	rows, err := pt.rows(page)
	if err != nil {
		return false, 0, err
	}
	if b == nil || len(stage.IDs) > 0 || rows > max-b.NumRows() {
		dropped, err = pt.appendPage(page, rows, atoms, stage)
		return false, dropped, err
	}
	dst := Lanes{IDs: b.IDs[0], Cols: b.Slots[0]}
	if dropped, err = pt.appendPage(page, rows, atoms, &dst); err != nil {
		return false, 0, err
	}
	if err := b.SetSlot0(dst.IDs, dst.Cols); err != nil {
		return false, 0, fmt.Errorf("%w: %v", errMixedShape, err)
	}
	return true, dropped, nil
}

// Prunable reports whether page is a columnar page whose zone maps
// disprove the atoms for every row, so a scan may skip it unread. It
// reads the header and footer only, into z (reusable page after page). A
// footer that does not parse is an error (and not prunable). This is the
// rule on an image; the walks answer it from the leaf directory
// (DirEntry.Prunable) without reading the page.
func (pt PageTypes) Prunable(page []byte, atoms []Atom, z *Zones) (bool, error) {
	if len(atoms) == 0 || len(page) < DataPageHeader || page[0] != pt.Col {
		return false, nil
	}
	if err := ReadZones(page[DataPageHeader:], z); err != nil {
		return false, err
	}
	return z.Prunable(atoms), nil
}

// Window is how many linked data pages a scan may prefetch per pool
// batch. Well under the pool capacity so the briefly-pinned window can
// never force out its own pages or exhaust eviction candidates (the
// batch eviction pass then picks exactly the victims an incremental walk
// would); zero disables readahead on tiny pools.
func Window(pool *storage.Pool) int {
	w := min(pool.Capacity()/4, 32)
	if w < 2 {
		return 0
	}
	return w
}
