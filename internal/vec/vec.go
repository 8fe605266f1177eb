// Package vec holds the columnar batch layout the executor's
// batch-at-a-time operators exchange: up to Batch-size rows stored as
// typed column vectors (one []int64 / []float64 / [][]byte lane per
// column, selected per cell by a type tag) plus a selection vector,
// insert/delete polarity bitmap, and duplicate counts. Filters and agg
// folds iterate the typed lanes directly; row-at-a-time consumers
// gather single tuples back out through TupleAt/OutAt.
//
// The package also carries a round-trip codec between a batch slot and
// the tuple page encoding (see EncodeSlot/DecodeSlot in codec.go), so
// columnar results can be laid out on pages or shipped over the frame
// codec without converting through []tuple.Tuple.
package vec

import (
	"math"

	"viewmat/internal/tuple"
)

// DefaultBatchSize is the row capacity operators fill batches to when
// the caller does not force another size.
const DefaultBatchSize = 1024

// Col is one column vector. Every lane has one entry per row; the
// per-cell tag in Tags selects which lane holds the live payload, so a
// column whose rows disagree on type (legal for heterogenous keys)
// still round-trips exactly.
type Col struct {
	Tags   []tuple.Type
	Ints   []int64
	Floats []float64
	Bytes  [][]byte

	mixed bool
}

// Len returns the number of cells appended.
func (c *Col) Len() int { return len(c.Tags) }

// Uniform reports the single type every cell shares, when one exists —
// the precondition for the executor's tight typed loops.
func (c *Col) Uniform() (tuple.Type, bool) {
	if c.mixed || len(c.Tags) == 0 {
		return 0, false
	}
	return c.Tags[0], true
}

// Append adds one cell to the column.
func (c *Col) Append(v tuple.Value) {
	t := v.Type()
	if len(c.Tags) > 0 && c.Tags[0] != t {
		c.mixed = true
	}
	c.Tags = append(c.Tags, t)
	var iv int64
	var fv float64
	var bv []byte
	switch t {
	case tuple.Int:
		iv = v.Int()
	case tuple.Float:
		fv = v.Float()
	case tuple.String:
		bv = []byte(v.Str())
	}
	c.Ints = append(c.Ints, iv)
	c.Floats = append(c.Floats, fv)
	c.Bytes = append(c.Bytes, bv)
}

// AppendRaw adds one cell from already-unboxed lane values: tag t plus
// the payload in the lane t selects (callers pass zero values for the
// dead lanes). The chunk-decode fast path uses this to fill lanes
// without building tuple.Values; bv is retained as-is, so it must not
// be mutated after the call.
func (c *Col) AppendRaw(t tuple.Type, iv int64, fv float64, bv []byte) {
	if len(c.Tags) > 0 && c.Tags[0] != t {
		c.mixed = true
	}
	c.Tags = append(c.Tags, t)
	c.Ints = append(c.Ints, iv)
	c.Floats = append(c.Floats, fv)
	c.Bytes = append(c.Bytes, bv)
}

// Value reconstructs cell i as a tuple.Value.
func (c *Col) Value(i int) tuple.Value {
	switch c.Tags[i] {
	case tuple.Int:
		return tuple.I(c.Ints[i])
	case tuple.Float:
		return tuple.F(c.Floats[i])
	default:
		return tuple.S(string(c.Bytes[i]))
	}
}

// Float64 converts cell i with tuple.Value.AsFloat semantics (strings
// fold to NaN) — the aggregate-fold fast path.
func (c *Col) Float64(i int) float64 {
	switch c.Tags[i] {
	case tuple.Int:
		return float64(c.Ints[i])
	case tuple.Float:
		return c.Floats[i]
	default:
		return math.NaN()
	}
}

// Batch is the unit of data flowing between batch operators: columnar
// slot bindings (slot 0 = outer/base tuple, slot 1 = joined inner
// tuple), projected output columns once a Project has run, delta
// polarity, duplicate counts, and an optional selection vector naming
// the rows still live after filtering (nil = all rows live).
type Batch struct {
	n       int
	slotSet [2]bool
	outSet  bool

	IDs    [2][]uint64 // per-slot tuple ids
	Slots  [2][]Col    // per-slot binding columns
	Out    []Col       // projected output values
	Insert []bool      // true = insert delta
	Dup    []int64     // duplicate count carried by materialized rows (0 = 1)
	Sel    []int       // live row indexes, ascending; nil = all live
}

// NumRows returns the physical row count (ignoring the selection).
func (b *Batch) NumRows() int { return b.n }

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
	b.Insert = append(b.Insert, insert)
	b.Dup = append(b.Dup, dup)
	b.n++
	return true
}

// AppendSlot0 adds one slot-0-only row copied lane-to-lane from source
// columns (cell i of each), bypassing tuple.Value boxing — the
// vector-direct scan path from decoded column chunks. The first append
// establishes a slot-0-only shape; it returns false when the batch is
// full or already holds a different shape. Polarity and dup take the
// zero values a scanned base row carries (Row{T0: tp}).
func (b *Batch) AppendSlot0(id uint64, src []Col, i int, max int) bool {
	if b.n >= max {
		return false
	}
	if b.n == 0 {
		b.slotSet[0] = true
		b.Slots[0] = make([]Col, len(src))
	} else if !b.slotSet[0] || b.slotSet[1] || b.outSet || len(src) != len(b.Slots[0]) {
		return false
	}
	b.IDs[0] = append(b.IDs[0], id)
	for c := range src {
		sc := &src[c]
		b.Slots[0][c].AppendRaw(sc.Tags[i], sc.Ints[i], sc.Floats[i], sc.Bytes[i])
	}
	b.Insert = append(b.Insert, false)
	b.Dup = append(b.Dup, 0)
	b.n++
	return true
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
	t := tuple.Tuple{ID: b.IDs[s][i]}
	if len(b.Slots[s]) > 0 {
		t.Vals = make([]tuple.Value, len(b.Slots[s]))
		for c := range b.Slots[s] {
			t.Vals[c] = b.Slots[s][c].Value(i)
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

// InsertAt returns row i's delta polarity.
func (b *Batch) InsertAt(i int) bool { return b.Insert[i] }

// DupAt returns row i's duplicate count.
func (b *Batch) DupAt(i int) int64 { return b.Dup[i] }

// SetOut installs projected output columns (one cell per physical
// row), replacing any previous projection.
func (b *Batch) SetOut(cols []Col) {
	b.Out = cols
	b.outSet = true
}

// Gather copies the named physical rows, in order, into a fresh dense
// batch (Sel == nil) with the same shape.
func (b *Batch) Gather(rows []int) *Batch {
	out := &Batch{slotSet: b.slotSet, outSet: b.outSet}
	for s := 0; s < 2; s++ {
		if b.slotSet[s] {
			out.Slots[s] = make([]Col, len(b.Slots[s]))
		}
	}
	if b.outSet {
		out.Out = make([]Col, len(b.Out))
	}
	for _, i := range rows {
		for s := 0; s < 2; s++ {
			if !b.slotSet[s] {
				continue
			}
			out.IDs[s] = append(out.IDs[s], b.IDs[s][i])
			for c := range b.Slots[s] {
				out.Slots[s][c].Append(b.Slots[s][c].Value(i))
			}
		}
		for c := range b.Out {
			out.Out[c].Append(b.Out[c].Value(i))
		}
		out.Insert = append(out.Insert, b.Insert[i])
		out.Dup = append(out.Dup, b.Dup[i])
		out.n++
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
