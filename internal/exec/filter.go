package exec

import (
	"bytes"
	"fmt"

	"viewmat/internal/colpage"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// Pred describes a filter's predicate declaratively so the operator
// can evaluate it either as tight typed loops over column vectors or —
// in row mode — per gathered row with semantics identical to the old
// closure chain. Conditions are ANDed: SkipIDs, then P, then Range,
// then Fn. The zero Pred passes everything (a pure screening charge).
type Pred struct {
	// P evaluates the view predicate. With Full unset only comparison
	// atoms on relation slot 0 are considered (pred.P.EvalSingle); with
	// Full set the whole conjunction runs over slots 0 and 1
	// (pred.P.EvalJoined).
	P    *pred.P
	Full bool
	// SkipIDs drops rows whose slot-0 tuple id is in the set.
	SkipIDs map[uint64]bool
	// Range additionally requires slot-0 column RangeCol to lie in
	// Range.
	Range    *pred.Range
	RangeCol int
	// Fn is an arbitrary residual predicate over the gathered row.
	Fn func(Row) bool
}

// empty reports whether the predicate passes everything.
func (p Pred) empty() bool {
	return p.P == nil && p.SkipIDs == nil && p.Range == nil && p.Fn == nil
}

// row evaluates the predicate against one gathered row — the row-mode
// path and the reference semantics the vectorized kernels must match.
func (p Pred) row(r Row) bool {
	if p.SkipIDs != nil && p.SkipIDs[r.T0.ID] {
		return false
	}
	if p.P != nil {
		if p.Full {
			if !p.P.EvalJoined(r.T0, r.T1) {
				return false
			}
		} else if !p.P.EvalSingle(0, r.T0) {
			return false
		}
	}
	if p.Range != nil && !p.Range.Contains(r.T0.Vals[p.RangeCol]) {
		return false
	}
	return p.Fn == nil || p.Fn(r)
}

// Filter screens rows with a predicate. When charge is set, every
// input row costs one C1 screen — the model's per-tuple screening /
// handling cost — whether or not it passes; uncharged filters
// reproduce paths where the screening CPU was already paid when the
// tuples were marked. The input rows include those a selecting scan
// below tested and dropped undecoded (vec.Batch.Dropped): they are
// screened here, and go no further.
type Filter struct {
	base
	label   string
	input   Operator
	p       Pred
	charge  bool
	rowMode bool
}

// NewFilter builds a charged or uncharged predicate filter.
func NewFilter(o Options, label string, input Operator, p Pred, charge bool) *Filter {
	return &Filter{base: base{meter: o.Meter}, label: label, input: input, p: p, charge: charge, rowMode: o.rowMode()}
}

func (f *Filter) Open() error { return f.input.Open() }

func (f *Filter) NextBatch() (*vec.Batch, error) {
	for {
		b, err := f.input.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		if f.charge {
			f.screen(int64(b.LiveCount() + b.Dropped))
		}
		b.Dropped = 0
		if b.LiveCount() == 0 {
			continue
		}
		if f.p.empty() {
			return f.emitBatch(b), nil
		}
		sel := liveSel(b)
		if f.rowMode || f.p.Fn != nil {
			sel = f.rowFilter(b, sel)
		} else {
			sel = f.vecFilter(b, sel)
		}
		if len(sel) == 0 {
			continue
		}
		if len(sel) < b.LiveCount() {
			// When every row passes the batch goes on as it came, so a
			// dense one stays dense and Compact downstream copies nothing.
			b.Sel = sel
		}
		return f.emitBatch(b), nil
	}
}

// rowFilter applies the reference per-row semantics over gathered rows.
func (f *Filter) rowFilter(b *vec.Batch, sel []int) []int {
	out := sel[:0]
	for _, i := range sel {
		if f.p.row(rowAt(b, i)) {
			out = append(out, i)
		}
	}
	return out
}

// vecFilter applies the predicate atom by atom as selection-narrowing
// column kernels. Each kernel reproduces tuple.Compare semantics
// exactly (mixed-type cells order by type tag) by falling back to the
// boxed comparison when a column isn't uniformly the constant's type.
func (f *Filter) vecFilter(b *vec.Batch, sel []int) []int {
	if f.p.SkipIDs != nil {
		out := sel[:0]
		for _, i := range sel {
			if !f.p.SkipIDs[slotID(b, 0, i)] {
				out = append(out, i)
			}
		}
		sel = out
	}
	if f.p.P != nil {
		for _, a := range f.p.P.Atoms {
			if len(sel) == 0 {
				return sel
			}
			switch at := a.(type) {
			case pred.Cmp:
				if !f.p.Full {
					if at.Rel != 0 {
						continue // EvalSingle ignores other slots
					}
				} else if at.Rel < 0 || at.Rel > 1 {
					return sel[:0] // Eval over an unbound slot is false
				}
				sel = cmpKernel(&b.Slots[at.Rel][at.Col], at.Op, at.Val, sel)
			case pred.JoinEq:
				if !f.p.Full {
					continue
				}
				if at.LRel < 0 || at.LRel > 1 || at.RRel < 0 || at.RRel > 1 {
					return sel[:0]
				}
				sel = eqKernel(&b.Slots[at.LRel][at.LCol], &b.Slots[at.RRel][at.RCol], sel)
			}
		}
	}
	if f.p.Range != nil {
		col := &b.Slots[0][f.p.RangeCol]
		out := sel[:0]
		for _, i := range sel {
			if f.p.Range.Contains(col.Value(i)) {
				out = append(out, i)
			}
		}
		sel = out
	}
	return sel
}

func (f *Filter) Close() error         { return f.input.Close() }
func (f *Filter) Children() []Operator { return []Operator{f.input} }
func (f *Filter) Stats() OpStats       { return f.stats() }
func (f *Filter) Describe() string {
	kind := "Filter"
	if f.p.empty() {
		kind = "Screen"
	}
	if !f.charge {
		return fmt.Sprintf("%s(%s uncharged)", kind, f.label)
	}
	return fmt.Sprintf("%s(%s)", kind, f.label)
}

// liveSel materializes the batch's live row indexes as a fresh,
// mutable selection.
func liveSel(b *vec.Batch) []int {
	n := b.LiveCount()
	sel := make([]int, n)
	for k := 0; k < n; k++ {
		sel[k] = b.LiveIndex(k)
	}
	return sel
}

// slotID returns row i's slot-s tuple id, 0 when the slot is absent —
// the id the zero tuple carried on the row path.
func slotID(b *vec.Batch, s, i int) uint64 {
	if !b.HasSlot(s) {
		return 0
	}
	return b.IDs[s][i]
}

// cmpKernel narrows sel to the rows where "col op val" holds.
func cmpKernel(col *vec.Col, op pred.Op, val tuple.Value, sel []int) []int {
	out := sel[:0]
	if t, ok := col.Uniform(); ok && t == val.Type() {
		switch t {
		case tuple.Int:
			v := val.Int()
			for _, i := range sel {
				if op.HoldsCmp(compareInt(col.Ints[i], v)) {
					out = append(out, i)
				}
			}
			return out
		case tuple.Float:
			v := val.Float()
			for _, i := range sel {
				if op.HoldsCmp(tuple.CompareFloat(col.Floats[i], v)) {
					out = append(out, i)
				}
			}
			return out
		case tuple.String:
			v := []byte(val.Str())
			for _, i := range sel {
				if op.HoldsCmp(bytes.Compare(col.Bytes[i], v)) {
					out = append(out, i)
				}
			}
			return out
		}
	}
	for _, i := range sel {
		if op.Holds(col.Value(i), val) {
			out = append(out, i)
		}
	}
	return out
}

// eqKernel narrows sel to the rows where two columns compare equal
// under tuple.Equal.
func eqKernel(l, r *vec.Col, sel []int) []int {
	out := sel[:0]
	lt, lok := l.Uniform()
	rt, rok := r.Uniform()
	if lok && rok && lt == rt {
		switch lt {
		case tuple.Int:
			for _, i := range sel {
				if l.Ints[i] == r.Ints[i] {
					out = append(out, i)
				}
			}
			return out
		case tuple.Float:
			for _, i := range sel {
				if tuple.CompareFloat(l.Floats[i], r.Floats[i]) == 0 {
					out = append(out, i)
				}
			}
			return out
		case tuple.String:
			for _, i := range sel {
				if bytes.Equal(l.Bytes[i], r.Bytes[i]) {
					out = append(out, i)
				}
			}
			return out
		}
	}
	for _, i := range sel {
		if tuple.Equal(l.Value(i), r.Value(i)) {
			out = append(out, i)
		}
	}
	return out
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Project computes each row's output values from its slot bindings.
// Projection is pure tuple assembly; the model charges it nothing: the
// output columns are gathered straight from the slot vectors
// (projection as metadata).
type Project struct {
	base
	label string
	input Operator
	cols  [][2]int // (slot, column) per output value
}

// NewProjectCols builds a projection that copies (slot, column) pairs
// from the bindings in output order — the vectorized form of a view
// definition's target list.
func NewProjectCols(o Options, label string, input Operator, cols [][2]int) *Project {
	return &Project{label: label, input: input, cols: cols}
}

func (p *Project) Open() error { return p.input.Open() }

func (p *Project) NextBatch() (*vec.Batch, error) {
	b, err := p.input.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	out := b.Compact()
	cols := make([]vec.Col, len(p.cols))
	for c, sc := range p.cols {
		cols[c] = out.Slots[sc[0]][sc[1]]
	}
	out.SetOut(cols)
	return p.emitBatch(out), nil
}

func (p *Project) Close() error         { return p.input.Close() }
func (p *Project) Children() []Operator { return []Operator{p.input} }
func (p *Project) Stats() OpStats       { return p.stats() }
func (p *Project) Describe() string     { return fmt.Sprintf("Project(%s)", p.label) }

// PruneAtoms derives zone-map prune atoms from the screen a sequential
// plan will stack on its scan: every slot-0 comparison atom of p plus
// the optional range restriction on rangeCol. Each atom is entailed by
// that screen, so a page whose zone map disproves any atom holds no
// qualifying row and can be skipped without changing results.
func PruneAtoms(p *pred.P, rg *pred.Range, rangeCol int) []colpage.Atom {
	var out []colpage.Atom
	if p != nil {
		for _, a := range p.Atoms {
			if c, ok := a.(pred.Cmp); ok && c.Rel == 0 {
				out = append(out, colpage.Atom{Col: c.Col, Op: c.Op, Val: c.Val})
			}
		}
	}
	if rg != nil {
		if rg.Lo != nil {
			op := pred.Ge
			if !rg.LoInc {
				op = pred.Gt
			}
			out = append(out, colpage.Atom{Col: rangeCol, Op: op, Val: *rg.Lo})
		}
		if rg.Hi != nil {
			op := pred.Le
			if !rg.HiInc {
				op = pred.Lt
			}
			out = append(out, colpage.Atom{Col: rangeCol, Op: op, Val: *rg.Hi})
		}
	}
	return out
}
