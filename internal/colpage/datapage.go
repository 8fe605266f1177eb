package colpage

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// This file is the linked tuple data page: the page a B+-tree leaf and a
// hash chain page both are, which the paper prices the same way (C2 per
// data page) whichever access method owns it.
//
//	[1 type][2 count][4 next+1][column chunk]
//
// count is the number of tuples, next+1 the forward link (0 = none). The
// type byte names the owner; the payload is one column chunk
// (colpage.go), written from the page's lanes and read back onto lanes:
// a page has no other in-memory form.

// DataPageHeader is the size of the fixed prefix before the payload.
const DataPageHeader = 7

// PageType is the type byte one access method writes its data pages
// under. The values are in every checkpoint; every decode rejects a page
// that carries another.
type PageType byte

// DataPage is the in-memory form of a data page: its forward link and
// its rows as lanes. Writers decode it (DecodePage), edit the lanes a row
// at a time (InsertRow, DeleteRow, Cut) and encode it back (EncodePage).
type DataPage struct {
	Next    storage.PageNum
	HasNext bool
	Lanes
}

// Size returns the bytes callers split and overflow the page by
// (Lanes.PageSize of all its rows).
func (n *DataPage) Size() int { return n.PageSize(0, len(n.IDs)) }

// PageSize returns the bytes a page holding rows [lo, hi) of the lanes
// takes as callers split and overflow it: the rows row-major
// (tuple.EncodedSize, the paper's S per tuple) plus the most a column
// chunk of them can take beyond that (chunkSlack), so every page a caller
// admits encodes (EncodePage). The slack is 0 on every page of 2r ≥ 17 +
// 2c rows, so page counts are the row encoding's wherever pages fill with
// short rows. A page of more rows than the header's 16-bit count holds
// fits no page.
func (l *Lanes) PageSize(lo, hi int) int {
	r := hi - lo
	if r > math.MaxUint16 {
		return math.MaxInt
	}
	if r == 0 {
		return DataPageHeader + chunkSlack(0, 0)
	}
	sz := DataPageHeader + r*(8+2) // each row's id and arity
	for c := range l.Cols {
		col := &l.Cols[c]
		if t, ok := col.Uniform(); ok && t != tuple.String {
			sz += r * (1 + 8)
			continue
		}
		for i := lo; i < hi; i++ {
			sz += cellSize(col, i)
		}
	}
	return sz + chunkSlack(r, len(l.Cols))
}

// cellSize is the bytes tuple.AppendValue takes for cell i of col.
func cellSize(col *vec.Col, i int) int {
	if col.Tag(i) == tuple.String {
		return 1 + 4 + len(col.Bytes[i])
	}
	return 1 + 8
}

// FitsAlone reports whether a page holding tp alone fits pageSize bytes:
// whether an access method can store tp at all.
func FitsAlone(tp tuple.Tuple, pageSize int) bool {
	return SizeFitsAlone(tp.EncodedSize(), len(tp.Vals), pageSize)
}

// SizeFitsAlone is FitsAlone for a row of cols columns whose
// tuple.EncodedSize is size.
func SizeFitsAlone(size, cols, pageSize int) bool {
	return DataPageHeader+size+chunkSlack(1, cols) <= pageSize
}

// chunkSlack bounds how many bytes a chunk of r rows of c columns without
// zone maps takes beyond the same rows row-major. Against the rows' ids,
// arities and tagged cells, the chunk spends its header and the id lane's
// FOR header (8 + 9), an encoding byte and a zone flag per column (2c),
// and, on an int column of fewer than 9 rows, a FOR header (9) that can
// outweigh the tag byte a row saves (9 − r); it saves at least the 2-byte
// arity a row (−2r). Floats, strings and mixed lanes never take more than
// their tagged cells.
func chunkSlack(r, c int) int {
	return max(0, 17+2*c-2*r+c*max(0, 9-r))
}

// EncodePage writes n, which the caller has checked fits (Size), over
// page.
func (pt PageType) EncodePage(page []byte, n *DataPage) { pt.encodePage(page, n, nil) }

// encodePage is EncodePage, also handing z (when non-nil) the page's zone
// maps. Zone bounds, up to two 40-byte values a column, are not in Size:
// when the chunk with them does not fit, the page is written without
// them (its columns never prune), which always fits. A page Size does not
// admit, or whose lanes disagree on the row count, is a caller's bug and
// panics.
func (pt PageType) encodePage(page []byte, n *DataPage, z *Zones) {
	used, err := encode(page[DataPageHeader:], &n.Lanes, z, true)
	if err != nil {
		used, err = encode(page[DataPageHeader:], &n.Lanes, z, false)
	}
	if err != nil {
		panic(fmt.Sprintf("colpage: data page of size %d does not encode in %d bytes: %v", n.Size(), len(page), err))
	}
	page[0] = byte(pt)
	binary.BigEndian.PutUint16(page[1:], uint16(len(n.IDs)))
	next := uint32(0)
	if n.HasNext {
		next = uint32(n.Next) + 1
	}
	binary.BigEndian.PutUint32(page[3:], next)
	clear(page[DataPageHeader+used:])
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
func (pt PageType) rows(page []byte) (int, error) {
	if len(page) < DataPageHeader {
		return 0, fmt.Errorf("colpage: data page of %d bytes", len(page))
	}
	if page[0] != byte(pt) {
		return 0, fmt.Errorf("colpage: page type %d is not a data page (type %d)", page[0], pt)
	}
	return int(binary.BigEndian.Uint16(page[1:])), nil
}

func errHeaderCount(held, rows int) error {
	return fmt.Errorf("colpage: columnar data page holds %d tuples, header says %d", held, rows)
}

// DecodePage decodes a page into n, its link and its rows, reusing the
// capacity of n's lanes — the first step of an edit (decode, modify,
// re-encode). After an error n holds a partial decode.
func (pt PageType) DecodePage(page []byte, n *DataPage) error {
	rows, err := pt.rows(page)
	if err != nil {
		return err
	}
	n.Next, n.HasNext = PageLink(page)
	n.Reset()
	_, err = appendPage(page, rows, nil, &n.Lanes)
	return err
}

// Lanes is a run of rows in columnar form: the id lane plus one vec.Col
// per column — a data page's rows, a batch's slot-0 lanes, or a scan's
// staging lanes.
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

// Row boxes row i as a tuple, its values copied out of the lanes.
func (l *Lanes) Row(i int) tuple.Tuple { return vec.Row(l.IDs, l.Cols, i) }

// InsertRow puts tp in as row i, moving the rows from i on up one. Lanes
// holding no rows take tp's arity; otherwise a tp of another arity is a
// caller's bug and panics.
func (l *Lanes) InsertRow(i int, tp tuple.Tuple) {
	if len(l.IDs) == 0 {
		l.Cols = slices.Grow(l.Cols[:0], len(tp.Vals))[:len(tp.Vals)]
		for c := range l.Cols {
			l.Cols[c].Reset()
		}
	} else if len(tp.Vals) != len(l.Cols) {
		panic(fmt.Sprintf("colpage: row of %d columns inserted into rows of %d", len(tp.Vals), len(l.Cols)))
	}
	l.IDs = slices.Insert(l.IDs, i, tp.ID)
	for c, v := range tp.Vals {
		l.Cols[c].Insert(i, v)
	}
}

// DeleteRow removes row i, moving the rows after it down one.
func (l *Lanes) DeleteRow(i int) {
	l.IDs = slices.Delete(l.IDs, i, i+1)
	for c := range l.Cols {
		l.Cols[c].Delete(i)
	}
}

// Cut moves rows [m, len) out into lanes of their own, which it returns,
// leaving rows [0, m).
func (l *Lanes) Cut(m int) Lanes {
	out := Lanes{IDs: append([]uint64(nil), l.IDs[m:]...), Cols: make([]vec.Col, len(l.Cols))}
	for c := range l.Cols {
		out.Cols[c].AppendRange(&l.Cols[c], m, len(l.IDs))
		l.Cols[c].Truncate(m)
	}
	l.IDs = l.IDs[:m]
	return out
}

// appendPage decodes onto the lanes the rows of a page of rows tuples
// (rows already validated) for which every atom holds, and returns how
// many the atoms dropped. DecodeWhere materializes no tuple and decodes
// only the survivors. Lanes holding no rows take the page's arity. After
// an error the lanes hold a partial append.
func appendPage(page []byte, rows int, atoms []Atom, l *Lanes) (int, error) {
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

// Take decodes the rows of a scanned page for which every atom holds —
// every row, without atoms — and returns how many the atoms dropped: a
// scan's pushed-down predicate, tested before anything is decoded. The
// rows land straight on b's slot-0 lanes (direct) when nothing is staged
// ahead of the page and all of its rows would fit below max rows, on the
// staging lanes otherwise — from where the caller moves them on in runs
// (MoveRows). A nil b always stages.
func (pt PageType) Take(page []byte, atoms []Atom, b *vec.Batch, max int, stage *Lanes) (direct bool, dropped int, err error) {
	rows, err := pt.rows(page)
	if err != nil {
		return false, 0, err
	}
	return take(page, rows, atoms, nil, b, max, stage)
}

// take is Take for rows rows: those of page the atoms select or, when
// picks is set, the rows the picks take from their kept lanes, rows being
// how many they take in all.
func take(page []byte, rows int, atoms []Atom, picks []pick, b *vec.Batch, max int, stage *Lanes) (direct bool, dropped int, err error) {
	dst, slot0 := stage, Lanes{}
	if direct = b != nil && len(stage.IDs) == 0 && rows <= max-b.NumRows(); direct {
		slot0 = Lanes{IDs: b.IDs[0], Cols: b.Slots[0]}
		dst = &slot0
	}
	if picks != nil {
		dropped, err = appendPicks(picks, rows, dst)
	} else {
		dropped, err = appendPage(page, rows, atoms, dst)
	}
	if err != nil || !direct {
		return false, dropped, err
	}
	if err := b.SetSlot0(slot0.IDs, slot0.Cols); err != nil {
		return false, 0, fmt.Errorf("%w: %v", errMixedShape, err)
	}
	return true, dropped, nil
}

// Prunable reports whether page is a data page of pt whose zone maps
// disprove the atoms for every row, so a scan may skip it unread. It
// reads the header and footer only, into z (reusable page after page). A
// footer that does not parse is an error (and not prunable). This is the
// rule on an image; the chain scan answers it from the page directory
// (DirEntry.Prunable) without reading the page.
func (pt PageType) Prunable(page []byte, atoms []Atom, z *Zones) (bool, error) {
	if len(atoms) == 0 || len(page) < DataPageHeader || page[0] != byte(pt) {
		return false, nil
	}
	if err := ReadZones(page[DataPageHeader:], z); err != nil {
		return false, err
	}
	return z.Prunable(atoms), nil
}
