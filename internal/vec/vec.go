// Package vec holds the columnar batch layout the executor's
// batch-at-a-time operators exchange: up to Batch-size rows stored as
// typed column vectors (one []int64, []float64 or [][]byte lane per
// column while its cells share a type) plus a selection vector,
// insert/delete polarity bitmap, and duplicate counts. Filters and agg
// folds iterate the typed lanes directly; row-at-a-time consumers
// gather single tuples back out through TupleAt/OutAt.
package vec

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"viewmat/internal/tuple"
)

// DefaultBatchSize is the row capacity operators fill batches to when
// the caller does not force another size.
const DefaultBatchSize = 1024

// Col is one column vector. While every cell shares one type the column
// is uniform and holds only that type's lane — Ints, Floats or Bytes,
// one entry per row, the other two nil. The first cell of another type
// (legal for heterogenous keys) widens it: from then on all three lanes
// have one entry per row and a per-cell tag selects the live one, so
// such a column still round-trips exactly. A widened column stays
// widened; only Reset narrows it again.
//
// Index a lane directly only after Uniform (or Tag) named it.
type Col struct {
	Ints   []int64
	Floats []float64
	Bytes  [][]byte

	n    int
	typ  tuple.Type   // every cell's type while tags == nil and n > 0
	tags []tuple.Type // per-cell types once widened
}

// Len returns the number of cells appended.
func (c *Col) Len() int { return c.n }

// Uniform reports the single type every cell shares, when one exists —
// the precondition for the executor's tight typed loops.
func (c *Col) Uniform() (tuple.Type, bool) {
	if c.tags != nil || c.n == 0 {
		return 0, false
	}
	return c.typ, true
}

// Tag returns cell i's type.
func (c *Col) Tag(i int) tuple.Type {
	if c.tags != nil {
		return c.tags[i]
	}
	return c.typ
}

// grow makes room for k more cells of type t: a uniform column of that
// type (or an empty one) only counts them, anything else ends up
// widened with k tags appended and the lanes other than t's padded.
// The caller extends t's own lane.
func (c *Col) grow(t tuple.Type, k int) {
	if c.n == 0 && c.tags == nil {
		c.typ = t
	} else if c.tags == nil && c.typ != t {
		c.widen()
	}
	if c.tags != nil {
		for i := 0; i < k; i++ {
			c.tags = append(c.tags, t)
		}
		if t != tuple.Int {
			c.Ints = append(c.Ints, make([]int64, k)...)
		}
		if t != tuple.Float {
			c.Floats = append(c.Floats, make([]float64, k)...)
		}
		if t != tuple.String {
			c.Bytes = append(c.Bytes, make([][]byte, k)...)
		}
	}
	c.n += k
}

// widen converts a uniform column to the tagged three-lane form.
func (c *Col) widen() {
	c.tags = make([]tuple.Type, c.n, 2*c.n+1)
	for i := range c.tags {
		c.tags[i] = c.typ
	}
	if c.typ != tuple.Int {
		c.Ints = make([]int64, c.n, 2*c.n+1)
	}
	if c.typ != tuple.Float {
		c.Floats = make([]float64, c.n, 2*c.n+1)
	}
	if c.typ != tuple.String {
		c.Bytes = make([][]byte, c.n, 2*c.n+1)
	}
}

// GrowInts appends k Int cells and returns them for the caller to fill
// — one grow and a tight loop instead of k appends, which is how page
// lanes decode onto a column.
func (c *Col) GrowInts(k int) []int64 {
	c.grow(tuple.Int, k)
	c.Ints = append(c.Ints, make([]int64, k)...)
	return c.Ints[len(c.Ints)-k:]
}

// GrowFloats is GrowInts for Float cells.
func (c *Col) GrowFloats(k int) []float64 {
	c.grow(tuple.Float, k)
	c.Floats = append(c.Floats, make([]float64, k)...)
	return c.Floats[len(c.Floats)-k:]
}

// GrowBytes is GrowInts for String cells. The slices stored are
// retained as-is and must not be mutated afterwards.
func (c *Col) GrowBytes(k int) [][]byte {
	c.grow(tuple.String, k)
	c.Bytes = append(c.Bytes, make([][]byte, k)...)
	return c.Bytes[len(c.Bytes)-k:]
}

// Append adds one cell to the column.
func (c *Col) Append(v tuple.Value) {
	switch v.Type() {
	case tuple.Int:
		c.GrowInts(1)[0] = v.Int()
	case tuple.Float:
		c.GrowFloats(1)[0] = v.Float()
	default:
		c.GrowBytes(1)[0] = []byte(v.Str())
	}
}

// AppendRange appends cells [lo, hi) of src lane-to-lane: one copy per
// run when src is uniform, cell by cell when it is widened. String
// cells are shared with src, not copied.
func (c *Col) AppendRange(src *Col, lo, hi int) {
	if lo >= hi {
		return
	}
	if src.tags != nil {
		for i := lo; i < hi; i++ {
			c.appendCell(src, i)
		}
		return
	}
	c.grow(src.typ, hi-lo)
	switch src.typ {
	case tuple.Int:
		c.Ints = append(c.Ints, src.Ints[lo:hi]...)
	case tuple.Float:
		c.Floats = append(c.Floats, src.Floats[lo:hi]...)
	default:
		c.Bytes = append(c.Bytes, src.Bytes[lo:hi]...)
	}
}

// AppendRows appends the named cells of src, in order, lane-to-lane.
func (c *Col) AppendRows(src *Col, rows []int) {
	if src.tags != nil {
		for _, i := range rows {
			c.appendCell(src, i)
		}
		return
	}
	c.grow(src.typ, len(rows))
	switch src.typ {
	case tuple.Int:
		c.Ints = appendAt(c.Ints, src.Ints, rows)
	case tuple.Float:
		c.Floats = appendAt(c.Floats, src.Floats, rows)
	default:
		c.Bytes = appendAt(c.Bytes, src.Bytes, rows)
	}
}

// appendAt appends the entries of src the rows name, in order, onto dst,
// growing it once. (The bulk appends append the source itself rather
// than a made slice, which the race detector's build allocates even
// when dst has room.)
func appendAt[T any](dst, src []T, rows []int) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(rows))[:n+len(rows)]
	for k, i := range rows {
		dst[n+k] = src[i]
	}
	return dst
}

func (c *Col) appendCell(src *Col, i int) {
	switch src.Tag(i) {
	case tuple.Int:
		c.GrowInts(1)[0] = src.Ints[i]
	case tuple.Float:
		c.GrowFloats(1)[0] = src.Floats[i]
	default:
		c.GrowBytes(1)[0] = src.Bytes[i]
	}
}

// Insert puts v in as cell i, moving the cells from i on up one: a
// one-row splice, widening as Append does.
func (c *Col) Insert(i int, v tuple.Value) {
	c.Append(v)
	moveLast(c.tags, i, c.n)
	moveLast(c.Ints, i, c.n)
	moveLast(c.Floats, i, c.n)
	moveLast(c.Bytes, i, c.n)
}

// moveLast moves the last of n entries of s to index i, shifting the
// rest up — when s is a live lane, one entry a cell.
func moveLast[T any](s []T, i, n int) {
	if len(s) == n {
		last := s[n-1]
		copy(s[i+1:], s[i:n-1])
		s[i] = last
	}
}

// Delete removes cell i, moving the cells after it down one. A widened
// column stays widened.
func (c *Col) Delete(i int) {
	c.tags = deleteAt(c.tags, i, c.n)
	c.Ints = deleteAt(c.Ints, i, c.n)
	c.Floats = deleteAt(c.Floats, i, c.n)
	c.Bytes = deleteAt(c.Bytes, i, c.n)
	c.n--
}

// deleteAt removes entry i of s when s is a live lane of n entries.
func deleteAt[T any](s []T, i, n int) []T {
	if len(s) == n {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// Truncate drops every cell from n on, keeping the lanes' capacity.
func (c *Col) Truncate(n int) {
	if c.tags != nil {
		c.tags, c.Ints, c.Floats, c.Bytes = c.tags[:n], c.Ints[:n], c.Floats[:n], c.Bytes[:n]
	} else {
		switch c.typ {
		case tuple.Int:
			c.Ints = c.Ints[:n]
		case tuple.Float:
			c.Floats = c.Floats[:n]
		default:
			c.Bytes = c.Bytes[:n]
		}
	}
	c.n = n
}

// Reset empties the column for reuse as a uniform column of whatever
// type comes next, keeping the lanes' capacity.
func (c *Col) Reset() {
	c.Ints, c.Floats, c.Bytes = c.Ints[:0], c.Floats[:0], c.Bytes[:0]
	c.n, c.tags = 0, nil
}

// Value reconstructs cell i as a tuple.Value.
func (c *Col) Value(i int) tuple.Value {
	switch c.Tag(i) {
	case tuple.Int:
		return tuple.I(c.Ints[i])
	case tuple.Float:
		return tuple.F(c.Floats[i])
	default:
		return tuple.S(string(c.Bytes[i]))
	}
}

// Compare orders cell i against v as tuple.Compare(c.Value(i), v)
// does, without boxing the cell.
func (c *Col) Compare(i int, v tuple.Value) int {
	switch t := c.Tag(i); {
	case t != v.Type():
		if t < v.Type() {
			return -1
		}
		return 1
	case t == tuple.Int:
		return cmp.Compare(c.Ints[i], v.Int())
	case t == tuple.Float:
		return tuple.CompareFloat(c.Floats[i], v.Float())
	}
	switch a, b := c.Bytes[i], v.Str(); {
	case string(a) < b:
		return -1
	case string(a) > b:
		return 1
	}
	return 0
}

// CompareCells orders cell i against cell j as tuple.Compare orders
// their values.
func (c *Col) CompareCells(i, j int) int {
	switch t, u := c.Tag(i), c.Tag(j); {
	case t != u:
		return cmp.Compare(t, u)
	case t == tuple.Int:
		return cmp.Compare(c.Ints[i], c.Ints[j])
	case t == tuple.Float:
		return tuple.CompareFloat(c.Floats[i], c.Floats[j])
	}
	return bytes.Compare(c.Bytes[i], c.Bytes[j])
}

// Float64 converts cell i with tuple.Value.AsFloat semantics (strings
// fold to NaN) — the aggregate-fold fast path.
func (c *Col) Float64(i int) float64 {
	switch c.Tag(i) {
	case tuple.Int:
		return float64(c.Ints[i])
	case tuple.Float:
		return c.Floats[i]
	default:
		return math.NaN()
	}
}

// rowIndex maps the k-th named row to its index; nil names every row.
func rowIndex(rows []int, k int) int {
	if rows != nil {
		return rows[k]
	}
	return k
}

// GatherValues boxes the named cells (nil = all of them) into dst, the
// k-th at dst[k*stride] — one column of a row-major gather. The string
// cells of one call share a single backing string.
func (c *Col) GatherValues(dst []tuple.Value, stride int, rows []int) {
	n := c.n
	if rows != nil {
		n = len(rows)
	}
	t, uniform := c.Uniform()
	switch {
	case !uniform:
		for k := 0; k < n; k++ {
			dst[k*stride] = c.Value(rowIndex(rows, k))
		}
	case t == tuple.Int:
		for k := 0; k < n; k++ {
			dst[k*stride] = tuple.I(c.Ints[rowIndex(rows, k)])
		}
	case t == tuple.Float:
		for k := 0; k < n; k++ {
			dst[k*stride] = tuple.F(c.Floats[rowIndex(rows, k)])
		}
	default:
		total := 0
		for k := 0; k < n; k++ {
			total += len(c.Bytes[rowIndex(rows, k)])
		}
		var sb strings.Builder
		sb.Grow(total)
		for k := 0; k < n; k++ {
			sb.Write(c.Bytes[rowIndex(rows, k)])
		}
		arena, off := sb.String(), 0
		for k := 0; k < n; k++ {
			l := len(c.Bytes[rowIndex(rows, k)])
			dst[k*stride] = tuple.S(arena[off : off+l])
			off += l
		}
	}
}

// Batch is the unit of data flowing between batch operators: columnar
// slot bindings (slot 0 = outer/base tuple, slot 1 = joined inner
// tuple), projected output columns once a Project has run, delta
// polarity, duplicate counts, and an optional selection vector naming
// the rows still live after filtering. The three per-row side lanes
// share one convention: nil stands for the common case — Sel nil = all
// rows live, Insert nil = no row is an insert delta, Dup nil = every
// duplicate count is 0 — so a scanned batch carries none of them.
type Batch struct {
	n       int
	slotSet [2]bool
	outSet  bool

	IDs    [2][]uint64 // per-slot tuple ids
	Slots  [2][]Col    // per-slot binding columns
	Out    []Col       // projected output values
	Insert []bool      // true = insert delta; nil = all false
	Dup    []int64     // duplicate count carried by materialized rows (0 = 1); nil = all 0
	Sel    []int       // live row indexes, ascending; nil = all live
	// Dropped counts rows a selecting scan tested against its pushed-down
	// atoms and dropped undecoded: scanned rows the batch stands for but
	// holds no lane of. Operators count them as rows passed until the
	// charged Filter above the scan screens them (C1 per tested row) and
	// clears the count.
	Dropped int
}

// NumRows returns the physical row count (ignoring the selection).
func (b *Batch) NumRows() int { return b.n }

// AppendFilled appends a batch a scan has filled to out. One holding no
// row stands only for the rows its leaf dropped, whose count then rides
// on out's last batch; it goes on alone only when it is the first.
func AppendFilled(out []*Batch, b *Batch) []*Batch {
	switch {
	case b.n > 0 || b.Dropped > 0 && len(out) == 0:
		return append(out, b)
	case b.Dropped > 0:
		out[len(out)-1].Dropped += b.Dropped
	}
	return out
}

// LiveCount returns the number of selected rows.
func (b *Batch) LiveCount() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// LiveIndex maps the k-th live row to its physical index.
func (b *Batch) LiveIndex(k int) int {
	if b.Sel != nil {
		return b.Sel[k]
	}
	return k
}

// HasSlot reports whether slot s carries bindings in this batch.
func (b *Batch) HasSlot(s int) bool { return b.slotSet[s] }

// HasOut reports whether projected output columns are present.
func (b *Batch) HasOut() bool { return b.outSet }

// TryAppend adds one row built from up-to-two slot bindings (nil =
// absent) and optional projected values. The first row establishes the
// batch's shape; it returns false — append to a fresh batch instead —
// when the batch already holds max rows or the row's shape (slot
// presence or column arity) differs from the established one.
func (b *Batch) TryAppend(t0, t1 *tuple.Tuple, out []tuple.Value, insert bool, dup int64, max int) bool {
	if b.n >= max {
		return false
	}
	if b.n == 0 {
		b.establish(t0, t1, out)
	} else if !b.shapeMatches(t0, t1, out) {
		return false
	}
	b.appendSlot(0, t0)
	b.appendSlot(1, t1)
	for c := range b.Out {
		b.Out[c].Append(out[c])
	}
	if insert && b.Insert == nil {
		b.Insert = make([]bool, b.n)
	}
	if b.Insert != nil {
		b.Insert = append(b.Insert, insert)
	}
	if dup != 0 && b.Dup == nil {
		b.Dup = make([]int64, b.n)
	}
	if b.Dup != nil {
		b.Dup = append(b.Dup, dup)
	}
	b.n++
	return true
}

// padSideLanes extends the Insert and Dup lanes a batch carries to its
// row count with the values nil stands for.
func (b *Batch) padSideLanes() {
	if b.Insert != nil {
		b.Insert = append(b.Insert, make([]bool, b.n-len(b.Insert))...)
	}
	if b.Dup != nil {
		b.Dup = append(b.Dup, make([]int64, b.n-len(b.Dup))...)
	}
}

// slot0Only reports whether rows of ncols slot-0 columns and nothing
// else fit the batch's shape; an empty batch takes any.
func (b *Batch) slot0Only(ncols int) bool {
	return b.n == 0 || (b.slotSet[0] && !b.slotSet[1] && !b.outSet && len(b.Slots[0]) == ncols)
}

// AppendSlot0Rows adds rows [lo, hi) of a decoded page — its id lane
// and columns — as slot-0-only rows, each column moved as one run with
// no tuple.Value boxing: the vector-direct scan path. Polarity and dup
// take the zero values a scanned base row carries (Row{T0: tp}). The
// first append establishes the shape; it returns false when the batch
// already holds a different one. The caller bounds hi-lo by the room
// left in the batch.
func (b *Batch) AppendSlot0Rows(ids []uint64, src []Col, lo, hi int) bool {
	if !b.slot0Only(len(src)) {
		return false
	}
	if b.n == 0 {
		b.slotSet[0] = true
		if len(b.Slots[0]) != len(src) {
			b.Slots[0] = make([]Col, len(src))
		}
	}
	b.IDs[0] = append(b.IDs[0], ids[lo:hi]...)
	for c := range src {
		b.Slots[0][c].AppendRange(&src[c], lo, hi)
	}
	b.n += hi - lo
	b.padSideLanes()
	return true
}

// Reserve readies an empty batch for up to rows slot-0-only rows shaped
// like the columns like, whichever way they arrive (AppendSlot0Rows, or
// a page decoded onto b.IDs[0] and b.Slots[0] and installed by
// SetSlot0): the id lane, and the lane of the type each uniform column
// of like holds, are allocated at that capacity now, so rows of those
// types up to that count grow no lane again. It is a hint — rows past
// it, or of another type, grow the lanes as usual — and a batch holding
// rows ignores it.
func (b *Batch) Reserve(like []Col, rows int) {
	if b.n > 0 {
		return
	}
	b.IDs[0] = make([]uint64, 0, rows)
	b.Slots[0] = ReserveCols(like, rows)
}

// ReserveCols returns empty columns, one per column of like, each with
// the lane of the type its like column holds, when that is uniform,
// allocated at a capacity of n cells: appending up to n cells of that
// type grows it no more. It is a hint, as Reserve is.
func ReserveCols(like []Col, n int) []Col {
	cols := make([]Col, len(like))
	for c := range like {
		switch t, ok := like[c].Uniform(); {
		case !ok:
		case t == tuple.Int:
			cols[c].Ints = make([]int64, 0, n)
		case t == tuple.Float:
			cols[c].Floats = make([]float64, 0, n)
		default:
			cols[c].Bytes = make([][]byte, 0, n)
		}
	}
	return cols
}

// SetSlot0 installs ids and cols — b.IDs[0] and b.Slots[0] with whole
// rows appended onto them in place, which is how a page decodes
// straight into its destination batch — as the batch's slot-0 rows. It
// errors when the batch holds another shape or the lanes disagree on
// the row count.
func (b *Batch) SetSlot0(ids []uint64, cols []Col) error {
	if !b.slot0Only(len(cols)) || len(ids) < b.n {
		return fmt.Errorf("vec: %d slot-0 columns appended to a batch of another shape", len(cols))
	}
	for c := range cols {
		if cols[c].Len() != len(ids) {
			return fmt.Errorf("vec: column %d holds %d cells for %d rows", c, cols[c].Len(), len(ids))
		}
	}
	b.slotSet[0] = true
	b.IDs[0], b.Slots[0], b.n = ids, cols, len(ids)
	b.padSideLanes()
	return nil
}

// Truncate drops every physical row from n on. The batch must be dense
// (Sel == nil).
func (b *Batch) Truncate(n int) {
	for s := 0; s < 2; s++ {
		if b.slotSet[s] {
			b.IDs[s] = b.IDs[s][:n]
			for c := range b.Slots[s] {
				b.Slots[s][c].Truncate(n)
			}
		}
	}
	for c := range b.Out {
		b.Out[c].Truncate(n)
	}
	if b.Insert != nil {
		b.Insert = b.Insert[:n]
	}
	if b.Dup != nil {
		b.Dup = b.Dup[:n]
	}
	b.n = n
}

func (b *Batch) establish(t0, t1 *tuple.Tuple, out []tuple.Value) {
	if t0 != nil {
		b.slotSet[0] = true
		b.Slots[0] = make([]Col, len(t0.Vals))
	}
	if t1 != nil {
		b.slotSet[1] = true
		b.Slots[1] = make([]Col, len(t1.Vals))
	}
	if out != nil {
		b.outSet = true
		b.Out = make([]Col, len(out))
	}
}

func (b *Batch) shapeMatches(t0, t1 *tuple.Tuple, out []tuple.Value) bool {
	if (t0 != nil) != b.slotSet[0] || (t1 != nil) != b.slotSet[1] || (out != nil) != b.outSet {
		return false
	}
	if t0 != nil && len(t0.Vals) != len(b.Slots[0]) {
		return false
	}
	if t1 != nil && len(t1.Vals) != len(b.Slots[1]) {
		return false
	}
	if out != nil && len(out) != len(b.Out) {
		return false
	}
	return true
}

func (b *Batch) appendSlot(s int, t *tuple.Tuple) {
	if t == nil {
		return
	}
	b.IDs[s] = append(b.IDs[s], t.ID)
	for c := range b.Slots[s] {
		b.Slots[s][c].Append(t.Vals[c])
	}
}

// TupleAt gathers row i's slot-s binding back into a tuple. Rows of a
// batch without that slot gather as the zero tuple.
func (b *Batch) TupleAt(s, i int) tuple.Tuple {
	if !b.slotSet[s] {
		return tuple.Tuple{}
	}
	return Row(b.IDs[s], b.Slots[s], i)
}

// Row boxes row i of an id lane and its columns as a tuple, its values
// copied out of the lanes.
func Row(ids []uint64, cols []Col, i int) tuple.Tuple {
	t := tuple.Tuple{ID: ids[i]}
	if len(cols) > 0 {
		t.Vals = make([]tuple.Value, len(cols))
		for c := range cols {
			t.Vals[c] = cols[c].Value(i)
		}
	}
	return t
}

// AppendTuples gathers every physical row's slot-s binding onto dst —
// for the few scan callers that act on whole rows.
func (b *Batch) AppendTuples(dst []tuple.Tuple, s int) []tuple.Tuple {
	for i := 0; i < b.n; i++ {
		dst = append(dst, b.TupleAt(s, i))
	}
	return dst
}

// OutAt gathers row i's projected values (nil when no Project ran).
func (b *Batch) OutAt(i int) []tuple.Value {
	if !b.outSet {
		return nil
	}
	vals := make([]tuple.Value, len(b.Out))
	for c := range b.Out {
		vals[c] = b.Out[c].Value(i)
	}
	return vals
}

// AppendLive appends the batch's live rows of src — its Out columns or
// one slot's — onto dst, column c onto dst[c], lane to lane: LiveLen
// rows. Each row goes once or, with byDup, Dup times (a stored row
// standing for its duplicates; a count of 0 appends none). idx is
// scratch for the row indexes and comes back for the next call.
func (b *Batch) AppendLive(dst, src []Col, byDup bool, idx []int) []int {
	rows, all := b.Sel, b.Sel == nil
	if byDup && !b.liveOnce() {
		idx = idx[:0]
		for k := 0; k < b.LiveCount(); k++ {
			i := b.LiveIndex(k)
			for d := b.DupAt(i); d > 0; d-- {
				idx = append(idx, i)
			}
		}
		rows, all = idx, false
	}
	for c := range src {
		if all {
			dst[c].AppendRange(&src[c], 0, b.n)
		} else {
			dst[c].AppendRows(&src[c], rows)
		}
	}
	return idx
}

// LiveLen returns how many rows AppendLive appends: the live rows, each
// Dup times with byDup.
func (b *Batch) LiveLen(byDup bool) int {
	n := b.LiveCount()
	for k := 0; byDup && k < b.LiveCount(); k++ {
		n += int(max(b.DupAt(b.LiveIndex(k)), 0)) - 1
	}
	return n
}

// Dense reports whether AppendLive appends every physical row once, in
// order: no selection and, with byDup, every duplicate count 1.
func (b *Batch) Dense(byDup bool) bool { return b.Sel == nil && (!byDup || b.liveOnce()) }

// liveOnce reports whether every live row's duplicate count is 1.
func (b *Batch) liveOnce() bool {
	if b.Dup == nil {
		return b.LiveCount() == 0
	}
	for k := 0; k < b.LiveCount(); k++ {
		if b.Dup[b.LiveIndex(k)] != 1 {
			return false
		}
	}
	return true
}

// InsertAt returns row i's delta polarity.
func (b *Batch) InsertAt(i int) bool { return b.Insert != nil && b.Insert[i] }

// DupAt returns row i's duplicate count.
func (b *Batch) DupAt(i int) int64 {
	if b.Dup == nil {
		return 0
	}
	return b.Dup[i]
}

// SetOut installs projected output columns (one cell per physical
// row), replacing any previous projection.
func (b *Batch) SetOut(cols []Col) {
	b.Out = cols
	b.outSet = true
}

// Gather copies the named physical rows, in order, into a fresh dense
// batch (Sel == nil) with the same shape, lane to lane.
func (b *Batch) Gather(rows []int) *Batch {
	out := &Batch{n: len(rows), slotSet: b.slotSet, outSet: b.outSet}
	for s := 0; s < 2; s++ {
		if !b.slotSet[s] {
			continue
		}
		out.IDs[s] = make([]uint64, len(rows))
		for k, i := range rows {
			out.IDs[s][k] = b.IDs[s][i]
		}
		out.Slots[s] = gatherCols(b.Slots[s], rows)
	}
	if b.outSet {
		out.Out = gatherCols(b.Out, rows)
	}
	if b.Insert != nil {
		out.Insert = make([]bool, len(rows))
		for k, i := range rows {
			out.Insert[k] = b.Insert[i]
		}
	}
	if b.Dup != nil {
		out.Dup = make([]int64, len(rows))
		for k, i := range rows {
			out.Dup[k] = b.Dup[i]
		}
	}
	return out
}

func gatherCols(src []Col, rows []int) []Col {
	out := make([]Col, len(src))
	for c := range src {
		out[c].AppendRows(&src[c], rows)
	}
	return out
}

// Compact applies the selection vector, returning a dense batch of the
// live rows (b itself when nothing is filtered out).
func (b *Batch) Compact() *Batch {
	if b.Sel == nil {
		return b
	}
	return b.Gather(b.Sel)
}
