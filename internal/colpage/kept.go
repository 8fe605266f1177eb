package colpage

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// Kept lanes. A read of a B+-tree's leaf keeps the leaf decoded — its
// rows as lanes, the id lane and one vec.Col per column, and its forward
// link — beside the leaf's bytes, in the slot storage.Pool.Derive keeps a
// value derived from a page in. Every later read of the same bytes works
// on those lanes instead of decoding the page again: a full scan tests
// its prune atoms on them and gathers the rows that pass, a range scan
// (and so a point lookup) cuts its run of rows straight from them and
// follows the kept link, and a btree.Tree.Get binary-searches them. A
// leaf is decoded once per image, not once per read, and a read through
// its kept lanes opens no page byte. The lanes go when the bytes do (a
// write-back, a free, a freed page's reuse; a restored disk starts with
// none), so a leaf a commit rewrote is decoded afresh by the next read.
//
// One rule decides which reads go through kept lanes, the clean-file
// rule (Directory.read): a leaf of a B+-tree whose file holds no dirty
// frame — the rule that also arms a full scan's readahead (Scan.window).
// A hash file's bucket chains, and a file a writer holds dirty frames
// of, decode as any page does: their pages — the differential file's
// above all, and the leaves a writer is about to rewrite — are mostly
// read about once per image, so lanes kept for them would be built and
// never used. A read that knows its leaf is about to be rewritten (a
// Get without build) likewise uses lanes kept there but builds none.

// kept is a leaf's rows as lanes, kept beside its bytes, with the leaf's
// forward link: a read through kept lanes opens no page byte. The lanes
// and the link never change once it is published: concurrent reads share
// them, and rows gathered from it share its string cells. Its selection
// slot is set once, by the first full scan to claim it (selected), and
// never changed after; it goes with the lanes when the image changes.
type kept struct {
	Lanes
	next    storage.PageNum
	hasNext bool
	slot    atomic.Uint32 // slotFree, slotClaimed, then slotSet
	pick    selection     // read only once slot says slotSet
}

// A kept value's selection slot: free until a full scan claims it with
// one CompareAndSwap, set once that scan has written its selection.
const (
	slotFree = iota
	slotClaimed
	slotSet
)

// selection is the rows of a leaf's kept lanes an atom list selects:
// ascending positions, nil for every row. The atoms are the publishing
// scan's, which never change them (Directory.Scan).
type selection struct {
	atoms []Atom
	rows  []int
}

// keep decodes the whole of a data page of pt onto lanes of their own,
// and reads its link.
func (pt PageType) keep(page []byte) (*kept, error) {
	rows, err := pt.rows(page)
	if err != nil {
		return nil, err
	}
	k := &kept{}
	if _, err := appendPage(page, rows, nil, &k.Lanes); err != nil {
		return nil, err
	}
	k.next, k.hasNext = PageLink(page)
	return k, nil
}

// pick is a leaf's kept lanes and the rows of them a scan takes: sel,
// ascending positions, or every row when sel is nil.
type pick struct {
	k   *kept
	sel []int
}

// rows returns how many rows the pick takes.
func (p pick) rows() int {
	if p.sel == nil {
		return len(p.k.IDs)
	}
	return len(p.sel)
}

// appendPicks appends onto l the rows the picks take, in order — rows in
// all — and returns how many of their lanes' rows they left out. It
// gathers lane by lane: the id lane, and each column whose cells share one
// type in l and in every pick, grow once for all the picks and are filled
// by one loop a pick. Lanes holding no rows take the first pick's arity;
// picks of another arity go pick by pick, by appendRows' rule.
func appendPicks(picks []pick, rows int, l *Lanes) (dropped int, err error) {
	if len(picks) == 0 {
		return 0, nil
	}
	arity := len(l.Cols)
	if len(l.IDs) == 0 {
		arity = len(picks[0].k.Cols)
	}
	if slices.ContainsFunc(picks, func(p pick) bool { return len(p.k.Cols) != arity }) {
		for _, p := range picks {
			d, err := p.k.appendRows(p.sel, l)
			if err != nil {
				return 0, err
			}
			dropped += d
		}
		return dropped, nil
	}
	if len(l.Cols) != arity {
		l.Cols = make([]vec.Col, arity)
	}
	for _, p := range picks {
		dropped += len(p.k.IDs) - p.rows()
	}
	if rows == 0 {
		return dropped, nil
	}
	l.IDs = slices.Grow(l.IDs, rows)
	for _, p := range picks {
		if p.sel == nil {
			l.IDs = append(l.IDs, p.k.IDs...)
			continue
		}
		for _, i := range p.sel {
			l.IDs = append(l.IDs, p.k.IDs[i])
		}
	}
	for c := range l.Cols {
		gatherCol(&l.Cols[c], c, picks, rows)
	}
	return dropped, nil
}

// gatherCol appends column c of the rows the picks take onto col, rows in
// all: into one grown run of its lane when col and every pick's column
// hold cells of one type, pick by pick otherwise.
func gatherCol(col *vec.Col, c int, picks []pick, rows int) {
	t, ok, first := tuple.Type(0), true, true
	for _, p := range picks {
		if p.rows() == 0 {
			continue
		}
		pt, uniform := p.k.Cols[c].Uniform()
		if !uniform || !first && pt != t {
			ok = false
			break
		}
		t, first = pt, false
	}
	if ct, uniform := col.Uniform(); !ok || col.Len() > 0 && (!uniform || ct != t) {
		for _, p := range picks {
			if src := &p.k.Cols[c]; p.sel == nil {
				col.AppendRange(src, 0, len(p.k.IDs))
			} else {
				col.AppendRows(src, p.sel)
			}
		}
		return
	}
	switch t {
	case tuple.Int:
		gatherLane(col.GrowInts(rows), picks, c, func(src *vec.Col) []int64 { return src.Ints })
	case tuple.Float:
		gatherLane(col.GrowFloats(rows), picks, c, func(src *vec.Col) []float64 { return src.Floats })
	default:
		gatherLane(col.GrowBytes(rows), picks, c, func(src *vec.Col) [][]byte { return src.Bytes })
	}
}

// gatherLane fills dst with the cells the picks take from the lane of
// their column c that lane names, in order: gatherCol found every pick's
// column holding cells of dst's type alone.
func gatherLane[T any](dst []T, picks []pick, c int, lane func(*vec.Col) []T) {
	j := 0
	for _, p := range picks {
		src := lane(&p.k.Cols[c])
		if p.sel == nil {
			j += copy(dst[j:], src[:len(p.k.IDs)])
			continue
		}
		for _, i := range p.sel {
			dst[j] = src[i]
			j++
		}
	}
}

// appendRows appends onto l the kept rows sel selects (nil: every row)
// and returns how many it left out, with DecodeWhere's rule for the
// lanes' arity.
func (k *kept) appendRows(sel []int, l *Lanes) (int, error) {
	rows := len(k.IDs)
	if len(l.Cols) != len(k.Cols) {
		switch {
		case len(l.IDs) == 0:
			l.Cols = make([]vec.Col, len(k.Cols))
		case rows == 0:
			return 0, nil
		default:
			return 0, fmt.Errorf("colpage: kept lanes of %d columns appended to rows of %d", len(k.Cols), len(l.Cols))
		}
	}
	if sel == nil {
		l.IDs = append(l.IDs, k.IDs...)
		for c := range l.Cols {
			l.Cols[c].AppendRange(&k.Cols[c], 0, rows)
		}
		return 0, nil
	}
	if len(sel) > 0 {
		for _, i := range sel {
			l.IDs = append(l.IDs, k.IDs[i])
		}
		for c := range l.Cols {
			l.Cols[c].AppendRows(&k.Cols[c], sel)
		}
	}
	return rows - len(sel), nil
}

// selectRows is the kept lanes' selectRows: the ascending positions of the
// rows every atom holds for, built in sel's storage (grown when it is too
// short) — or nil when that is every row. An atom on a column the rows do
// not have drops nothing.
func (k *kept) selectRows(atoms []Atom, sel []int) []int {
	rows := len(k.IDs)
	if cap(sel) < rows {
		sel = make([]int, rows)
	}
	sel = sel[:rows]
	first := true
	for _, a := range atoms {
		switch {
		case a.Col < 0 || a.Col >= len(k.Cols):
		case first:
			sel, first = narrowAll(&k.Cols[a.Col], a, sel), false
		case len(sel) > 0:
			sel = Narrow(&k.Cols[a.Col], a.Op, a.Val, sel)
		}
	}
	if len(sel) == rows {
		return nil
	}
	return sel
}

// selection returns the rows of the kept lanes the atoms select, as
// selectRows returns them, when the selection slot holds atoms equal to
// these (sameAtoms): shared by every scan that reads the image, never to
// be changed. With check set (the test binaries' check) it compares them
// with a fresh selection first.
func (k *kept) selection(atoms []Atom, check bool) (sel []int, ok bool, err error) {
	if k.slot.Load() != slotSet || !sameAtoms(k.pick.atoms, atoms) {
		return nil, false, nil
	}
	if check {
		err = k.checkSelection(atoms)
	}
	return k.pick.rows, true, err
}

// publish offers sel, the rows of the kept lanes the atoms select, to the
// selection slot, and returns the rows the caller goes on with: a copy of
// sel's own, set in the slot, when the slot was free (won); sel itself
// when another scan claimed the slot first, whatever its atoms. The first
// atoms win, so two scans with different atoms do not take turns
// rewriting it. The atoms are kept, not copied.
func (k *kept) publish(atoms []Atom, sel []int) (rows []int, won bool) {
	if !k.slot.CompareAndSwap(slotFree, slotClaimed) {
		return sel, false
	}
	if sel != nil {
		sel = append([]int{}, sel...) // non-nil when empty: no row, not every row
	}
	k.pick = selection{atoms: atoms, rows: sel}
	k.slot.Store(slotSet)
	return sel, true
}

// sameAtoms reports whether two atom lists select the same rows of any
// lanes: atom by atom the same column, op and constant type, and
// constants equal under tuple.Compare — the order the row test is defined
// in, so −0 and +0, or two NaNs, are the same constant.
func sameAtoms(a, b []Atom) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Col != y.Col || x.Op != y.Op || x.Val.Type() != y.Val.Type() || tuple.Compare(x.Val, y.Val) != 0 {
			return false
		}
	}
	return true
}

// narrowAll is Narrow over every row, sel's length: the first atom's
// test. On an Int lane of the constant's type it reads the lane straight
// through, not through a selection.
func narrowAll(col *vec.Col, a Atom, sel []int) []int {
	if t, ok := col.Uniform(); ok && t == tuple.Int && a.Val.Type() == tuple.Int {
		band, ok := bandOf(a.Op, a.Val.Int())
		if !ok {
			return sel[:0]
		}
		k := 0
		for i, x := range col.Ints[:len(sel)] {
			if band.holds(uint64(x)) {
				sel[k] = i
				k++
			}
		}
		return sel[:k]
	}
	for i := range sel {
		sel[i] = i
	}
	return Narrow(col, a.Op, a.Val, sel)
}

// Narrow narrows sel, ascending cell positions, to the cells of col for
// which "cell op v" holds, with pred.Op.Holds semantics (tuple.Compare
// order, type tag first), in sel's storage. It is the kernel of the kept
// lanes' row test and of the executor's Filter. A uniform lane whose type
// is not the constant's compares by type tag alone: the atom keeps every
// row of it or none. An Int lane is tested against the atom's band (one
// subtraction and one compare a cell, as the frame-of-reference kernel
// does on the bytes); every other cell is compared in place.
func Narrow(col *vec.Col, op pred.Op, v tuple.Value, sel []int) []int {
	t, uniform := col.Uniform()
	if vt := v.Type(); uniform && t != vt {
		c := 1
		if t < vt {
			c = -1
		}
		if op.HoldsCmp(c) {
			return sel
		}
		return sel[:0]
	}
	k := 0
	if uniform && t == tuple.Int {
		band, ok := bandOf(op, v.Int())
		if !ok {
			return sel[:0]
		}
		for _, i := range sel {
			if band.holds(uint64(col.Ints[i])) {
				sel[k] = i
				k++
			}
		}
		return sel[:k]
	}
	for _, i := range sel {
		if op.HoldsCmp(col.Compare(i, v)) {
			sel[k] = i
			k++
		}
	}
	return sel[:k]
}

// KeptLaneBytes returns the bytes held by v, a value a read kept beside a
// leaf — its lanes' backing arrays, the kept value, the selection a full
// scan published in its slot, and the pool's box around it — or 0 when v
// is no kept lanes (nil, or another deriver's value). A string cell
// counts its bytes, once per cell, though the cells of a dictionary lane
// share theirs; a selection's atoms are the scan's, shared by every leaf,
// and not counted.
func KeptLaneBytes(v any) int {
	k, ok := v.(*kept)
	if !ok {
		return 0
	}
	b := int(unsafe.Sizeof(*k)+unsafe.Sizeof(any(nil))) + cap(k.IDs)*int(unsafe.Sizeof(uint64(0))) +
		cap(k.Cols)*int(unsafe.Sizeof(vec.Col{}))
	b += KeptSelectionBytes(v)
	for c := range k.Cols {
		col := &k.Cols[c]
		b += cap(col.Ints)*int(unsafe.Sizeof(int64(0))) + cap(col.Floats)*int(unsafe.Sizeof(float64(0))) +
			cap(col.Bytes)*int(unsafe.Sizeof([]byte(nil)))
		if _, uniform := col.Uniform(); !uniform {
			b += col.Len() * int(unsafe.Sizeof(tuple.Type(0))) // a widened lane's tags
		}
		for i := range col.Bytes {
			b += len(col.Bytes[i])
		}
	}
	return b
}

// KeptSelectionBytes returns the bytes of the selection a full scan
// published in the slot of v, a value a read kept beside a leaf: 0 when v
// is no kept lanes, its slot is free, or the selection is none of the
// leaf's rows or every one of them, which are stored as no array.
func KeptSelectionBytes(v any) int {
	k, ok := v.(*kept)
	if !ok || k.slot.Load() != slotSet {
		return 0
	}
	return cap(k.pick.rows) * int(unsafe.Sizeof(0))
}

// keptBuilt and keptReused count, over the process, the leaves whose
// lanes reads kept and the reads of a leaf answered from lanes kept
// before: KeptLanes. keptSelected counts the full scans' reads of a leaf
// answered from its selection slot: KeptSelections.
var keptBuilt, keptReused, keptSelected atomic.Int64

// KeptLanes returns how many leaves reads have kept lanes for and how
// many reads of a leaf were answered from lanes kept before, since the
// process started: a read of each leaf once per image builds every
// leaf's lanes and reuses none.
func KeptLanes() (built, reused int64) { return keptBuilt.Load(), keptReused.Load() }

// KeptSelections returns how many reads of a leaf by a full scan took
// the rows its atoms select from the leaf's selection slot, testing no
// cell, since the process started.
func KeptSelections() int64 { return keptSelected.Load() }

// lanesOf is a storage.Pool.Derive function's reading of a data page of
// pt through its kept lanes, d being the value published beside its
// bytes: d itself when it is kept lanes (checked against a fresh decode
// when check is set), lanes decoded now when d is nil and build is set
// (built), and nil when d is another deriver's value or nil without
// build, which leaves the page to be decoded as any other.
func (pt PageType) lanesOf(page []byte, d any, check, build bool) (k *kept, built bool, err error) {
	k, ok := d.(*kept)
	switch {
	case ok:
		if check {
			err = k.check(pt, page)
		}
		return k, false, err
	case d != nil || !build:
		return nil, false, nil
	}
	k, err = pt.keep(page)
	return k, err == nil, err
}

// read reads data page pn through pool and runs fn on its bytes and, when
// keep is set (the file is a B+-tree's) and the file is clean, on the
// page's kept lanes — built and published by the first such read of the
// bytes that has build set. fn gets nil lanes otherwise, and decodes the
// page itself.
func (d *Directory) read(pool *storage.Pool, pn storage.PageNum, keep, build bool, fn func(page []byte, k *kept) error) error {
	if !keep || !d.clean() {
		return pool.Read(d.file, pn, func(page []byte) error { return fn(page, nil) })
	}
	_, err := pool.Derive(d.file, pn, func(page []byte, v any) (any, error) {
		k, built, err := d.typ.lanesOf(page, v, checking(), build)
		switch {
		case err != nil:
			return nil, err
		case k == nil:
			return v, fn(page, nil)
		case built:
			keptBuilt.Add(1)
		default:
			keptReused.Add(1)
		}
		return k, fn(page, k)
	})
	return err
}

// ReadRows runs fn on the rows of B+-tree leaf pn, read through pool by
// the clean-file rule: on the leaf's kept lanes while the file holds no
// dirty frame, on a decode of its own otherwise. A leaf holding no kept
// lanes is given them by this read when build is set, and otherwise
// decoded for it alone. fn must neither change the rows nor keep them:
// kept lanes are shared by every reader.
func (d *Directory) ReadRows(pool *storage.Pool, pn storage.PageNum, build bool, fn func(rows *Lanes) error) error {
	return d.read(pool, pn, true, build, func(page []byte, k *kept) error {
		if k != nil {
			return fn(&k.Lanes)
		}
		var n DataPage // a read may run beside another: lanes of its own
		if err := d.typ.DecodePage(page, &n); err != nil {
			return err
		}
		return fn(&n.Lanes)
	})
}

// checking turns on, in every test binary that is not running
// benchmarks, the checks that what is kept beside the pages still says
// what the pages say: each directory lookup while the file is clean
// (Directory.Lookup), and each use of a leaf's kept lanes (kept.check). A
// benchmark leaves them off, so its profile shows the scan a server runs.
var checking = sync.OnceValue(func() bool {
	if !testing.Testing() {
		return false
	}
	bench := flag.Lookup("test.bench")
	return bench == nil || bench.Value.String() == ""
})

// fresh is kept.check's decode, its lanes reused — one set per column
// count, so that checks of relations of several arities, one after the
// other, do not regrow them — and the check allocates nothing on Int and
// Float lanes; sel is kept.checkSelection's, reused likewise.
var fresh struct {
	sync.Mutex
	l   []Lanes
	sel []int
}

// checkSelection selects afresh the kept rows the atoms select and
// compares them with the selection slot's, which the caller found set
// for these atoms: a mismatch means the slot was written for other atoms
// or other lanes, or changed after it was set.
func (k *kept) checkSelection(atoms []Atom) error {
	fresh.Lock()
	defer fresh.Unlock()
	want := k.selectRows(atoms, fresh.sel)
	if want != nil {
		fresh.sel = want[:0]
	}
	if got := k.pick.rows; (got == nil) != (want == nil) || !slices.Equal(got, want) {
		return fmt.Errorf("colpage: kept selection %v for atoms %v disagrees with a fresh selection %v of the lanes", got, atoms, want)
	}
	return nil
}

// check decodes page, a data page of pt, afresh and compares the kept
// lanes and link, which stand for it, with what it decodes to: a mismatch
// means whatever changed the bytes left the lanes kept.
func (k *kept) check(pt PageType, page []byte) error {
	fresh.Lock()
	defer fresh.Unlock()
	if len(fresh.l) <= len(k.Cols) {
		fresh.l = append(fresh.l, make([]Lanes, len(k.Cols)+1-len(fresh.l))...)
	}
	f := &fresh.l[len(k.Cols)]
	f.Reset()
	rows, err := pt.rows(page)
	if err == nil {
		_, err = appendPage(page, rows, nil, f)
	}
	if err != nil {
		return fmt.Errorf("colpage: kept lanes stand for a page that does not decode: %w", err)
	}
	if next, hasNext := PageLink(page); !k.equal(f) || next != k.next || hasNext != k.hasNext {
		return fmt.Errorf("colpage: kept lanes %v, linked to (%d, %v), disagree with their page's %v, linked to (%d, %v)",
			k.Lanes, k.next, k.hasNext, *f, next, hasNext)
	}
	return nil
}

// equal reports whether the lanes hold the same rows as o: the same ids,
// and cells of the same type and value, floats bit for bit.
func (l *Lanes) equal(o *Lanes) bool {
	if !slices.Equal(l.IDs, o.IDs) || len(l.Cols) != len(o.Cols) {
		return false
	}
	for c := range l.Cols {
		a, b := &l.Cols[c], &o.Cols[c]
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			t := a.Tag(i)
			if b.Tag(i) != t {
				return false
			}
			switch {
			case t == tuple.Int && a.Ints[i] != b.Ints[i],
				t == tuple.Float && math.Float64bits(a.Floats[i]) != math.Float64bits(b.Floats[i]),
				t == tuple.String && !bytes.Equal(a.Bytes[i], b.Bytes[i]):
				return false
			}
		}
	}
	return true
}
