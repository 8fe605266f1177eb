// Package pred implements selection and join predicates for the viewmat
// engine: evaluation against tuples, the substitution-satisfiability
// test used as the second screening stage of rule indexing (Hanson §1,
// after [Blak86]), and the index-interval extraction that drives t-lock
// placement (first screening stage, after [Ston86]).
//
// A predicate is a conjunction of atoms. Each atom is either a
// comparison of one relation's column against a constant, or an
// equi-join between columns of two relations. This is exactly the class
// the paper analyzes (select-project-join with simple restrictions), and
// conjunctions of comparisons admit a complete, cheap satisfiability
// test by interval intersection.
package pred

import (
	"fmt"
	"strings"

	"viewmat/internal/tuple"
)

// Op is a comparison operator.
type Op uint8

// Comparison operators.
const (
	Eq Op = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Holds reports whether "a op b" is true under tuple.Compare ordering
// — the exported form the executor's vectorized filter kernels fall
// back to for mixed-type cells.
func (o Op) Holds(a, b tuple.Value) bool { return o.holds(a, b) }

// holds reports whether "a op b" is true under tuple.Compare ordering.
func (o Op) holds(a, b tuple.Value) bool { return o.HoldsCmp(tuple.Compare(a, b)) }

// HoldsCmp reports whether "a op b" is true given c = tuple.Compare(a,
// b) — the form the typed kernels use once they have compared a cell
// without boxing it.
func (o Op) HoldsCmp(c int) bool {
	switch o {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	}
	return false
}

// Atom is one conjunct of a predicate.
type Atom interface {
	atomString() string
}

// Cmp compares column Col of relation Rel against the constant Val.
// Rel is a caller-chosen relation slot (0 for single-relation
// predicates; 0 and 1 for the two sides of a join view).
type Cmp struct {
	Rel int
	Col int
	Op  Op
	Val tuple.Value
}

func (c Cmp) atomString() string {
	return fmt.Sprintf("r%d.c%d %s %s", c.Rel, c.Col, c.Op, c.Val)
}

// JoinEq is an equi-join atom: relation LRel's column LCol equals
// relation RRel's column RCol.
type JoinEq struct {
	LRel, LCol int
	RRel, RCol int
}

func (j JoinEq) atomString() string {
	return fmt.Sprintf("r%d.c%d = r%d.c%d", j.LRel, j.LCol, j.RRel, j.RCol)
}

// P is a predicate: the conjunction of its atoms. An empty P is true.
type P struct {
	Atoms []Atom
}

// New builds a predicate from atoms.
func New(atoms ...Atom) *P { return &P{Atoms: atoms} }

// True is the empty (always-true) predicate.
func True() *P { return &P{} }

// And returns a new predicate with the extra atoms appended.
func (p *P) And(atoms ...Atom) *P {
	out := &P{Atoms: make([]Atom, 0, len(p.Atoms)+len(atoms))}
	out.Atoms = append(out.Atoms, p.Atoms...)
	out.Atoms = append(out.Atoms, atoms...)
	return out
}

// String renders the predicate.
func (p *P) String() string {
	if len(p.Atoms) == 0 {
		return "true"
	}
	parts := make([]string, len(p.Atoms))
	for i, a := range p.Atoms {
		parts[i] = a.atomString()
	}
	return strings.Join(parts, " and ")
}

// EvalSingle evaluates the predicate against a tuple bound to relation
// slot rel, considering only comparison atoms on that relation. Join
// atoms and atoms on other relations are ignored (treated as true).
// This is the per-tuple restriction test: "does t satisfy the clauses
// of the view predicate that mention t's relation".
func (p *P) EvalSingle(rel int, t tuple.Tuple) bool {
	for _, a := range p.Atoms {
		c, ok := a.(Cmp)
		if !ok || c.Rel != rel {
			continue
		}
		if !c.Op.holds(t.Vals[c.Col], c.Val) {
			return false
		}
	}
	return true
}

// EvalJoined evaluates the full predicate against a two-slot binding
// (slot 0 = t0, slot 1 = t1): the one joined evaluator, which the
// executor's filter kernels reproduce and the second screening stage
// runs a Residual with. An atom referencing a slot outside 0..1 is
// unbound and makes it false.
func (p *P) EvalJoined(t0, t1 tuple.Tuple) bool {
	slot := func(i int) (tuple.Tuple, bool) {
		switch i {
		case 0:
			return t0, true
		case 1:
			return t1, true
		}
		return tuple.Tuple{}, false
	}
	for _, a := range p.Atoms {
		switch at := a.(type) {
		case Cmp:
			t, ok := slot(at.Rel)
			if !ok || !at.Op.holds(t.Vals[at.Col], at.Val) {
				return false
			}
		case JoinEq:
			l, lok := slot(at.LRel)
			r, rok := slot(at.RRel)
			if !lok || !rok || !tuple.Equal(l.Vals[at.LCol], r.Vals[at.RCol]) {
				return false
			}
		}
	}
	return true
}

// Residual compiles the second screening stage for tuples bound to
// relation slot rel: the predicate with such a tuple t substituted, as
// a predicate over t alone at slot 0 (EvalJoined(t, tuple.Tuple{})).
// It holds for t exactly when the predicate stays satisfiable with t
// in slot rel. Its atoms are
//   - rel's own comparisons;
//   - the comparisons of each column a join atom equates with a column
//     of rel, carried across the atom onto rel's column;
//   - each join atom between two columns of rel, and one equating two
//     columns of rel that join atoms tie to the same partner column.
//
// Residual is nil — no tuple passes — when the other slots'
// comparisons alone leave a column's interval empty. The test is
// complete for this atom language: a conjunction of comparisons is
// satisfiable iff every column's interval is nonempty and no Ne atom
// pins an Eq-pinned value, and pinning an interval to a value leaves
// it nonempty iff it contains the value. Join atoms between two other
// slots constrain nothing the intervals track.
func (p *P) Residual(rel int) *P {
	type colRef struct{ rel, col int }
	ranges := map[colRef]*Range{}
	var out []Atom
	for _, a := range p.Atoms {
		c, ok := a.(Cmp)
		switch {
		case !ok:
		case c.Rel == rel:
			out = append(out, Cmp{Col: c.Col, Op: c.Op, Val: c.Val})
		default:
			key := colRef{c.Rel, c.Col}
			if ranges[key] == nil {
				ranges[key] = FullRange()
			}
			if !ranges[key].Restrict(c.Op, c.Val) {
				return nil
			}
		}
	}
	pinned := map[colRef]int{} // partner column → the first column of rel pinning it
	for _, a := range p.Atoms {
		j, ok := a.(JoinEq)
		var own int
		var partner colRef
		switch {
		case !ok:
			continue
		case j.LRel == rel && j.RRel == rel:
			out = append(out, JoinEq{LCol: j.LCol, RCol: j.RCol})
			continue
		case j.LRel == rel:
			own, partner = j.LCol, colRef{j.RRel, j.RCol}
		case j.RRel == rel:
			own, partner = j.RCol, colRef{j.LRel, j.LCol}
		default:
			continue
		}
		if first, ok := pinned[partner]; ok {
			out = append(out, JoinEq{LCol: first, RCol: own})
			continue
		}
		pinned[partner] = own
		for _, b := range p.Atoms {
			if c, ok := b.(Cmp); ok && c.Rel == partner.rel && c.Col == partner.col {
				out = append(out, Cmp{Col: own, Op: c.Op, Val: c.Val})
			}
		}
	}
	return New(out...)
}

// IntervalFor extracts the closed-open value interval implied by the
// predicate for the given relation slot and column. It is used to place
// t-locks: the returned range covers every value of (rel, col) that a
// tuple satisfying the predicate could have. ok is false when the
// predicate does not constrain the column at all (the t-lock must then
// cover the whole index).
func (p *P) IntervalFor(rel, col int) (rg Range, constrained bool) {
	r := FullRange()
	for _, a := range p.Atoms {
		c, ok := a.(Cmp)
		if !ok || c.Rel != rel || c.Col != col || c.Op == Ne {
			continue
		}
		constrained = true
		r.Restrict(c.Op, c.Val)
	}
	return *r, constrained
}

// --- ranges --------------------------------------------------------------

// Range is a (possibly half-open) interval over tuple values, with
// inclusive/exclusive bounds. A nil bound means unbounded on that side.
type Range struct {
	Lo, Hi       *tuple.Value
	LoInc, HiInc bool
	// excluded holds the constants of Ne atoms. Contains drops them
	// wherever they fall; Empty needs them only when the range is pinned
	// to a single point.
	excluded []tuple.Value
}

// FullRange returns the unbounded range.
func FullRange() *Range { return &Range{LoInc: true, HiInc: true} }

// PointRange returns the range containing exactly v.
func PointRange(v tuple.Value) *Range {
	return &Range{Lo: &v, Hi: &v, LoInc: true, HiInc: true}
}

// NewRange returns the range [lo, hi) or [lo, hi] as requested.
func NewRange(lo, hi tuple.Value, loInc, hiInc bool) *Range {
	return &Range{Lo: &lo, Hi: &hi, LoInc: loInc, HiInc: hiInc}
}

// Restrict narrows the range by "col op v" and reports whether the
// range is still (possibly) nonempty.
func (r *Range) Restrict(op Op, v tuple.Value) bool {
	switch op {
	case Eq:
		r.tightenLo(v, true)
		r.tightenHi(v, true)
	case Lt:
		r.tightenHi(v, false)
	case Le:
		r.tightenHi(v, true)
	case Gt:
		r.tightenLo(v, false)
	case Ge:
		r.tightenLo(v, true)
	case Ne:
		r.excluded = append(r.excluded, v)
	}
	return !r.Empty()
}

func (r *Range) tightenLo(v tuple.Value, inc bool) {
	if r.Lo == nil {
		val := v
		r.Lo, r.LoInc = &val, inc
		return
	}
	c := tuple.Compare(v, *r.Lo)
	if c > 0 || (c == 0 && r.LoInc && !inc) {
		val := v
		r.Lo, r.LoInc = &val, inc
	}
}

func (r *Range) tightenHi(v tuple.Value, inc bool) {
	if r.Hi == nil {
		val := v
		r.Hi, r.HiInc = &val, inc
		return
	}
	c := tuple.Compare(v, *r.Hi)
	if c < 0 || (c == 0 && r.HiInc && !inc) {
		val := v
		r.Hi, r.HiInc = &val, inc
	}
}

// Empty reports whether the range provably contains no value.
func (r *Range) Empty() bool {
	if r.Lo == nil || r.Hi == nil {
		return false
	}
	c := tuple.Compare(*r.Lo, *r.Hi)
	if c > 0 {
		return true
	}
	if c == 0 {
		if !r.LoInc || !r.HiInc {
			return true
		}
		for _, ex := range r.excluded {
			if tuple.Equal(ex, *r.Lo) {
				return true
			}
		}
	}
	return false
}

// Unbounded reports whether the range contains every value: no bound
// on either side and no excluded constant.
func (r *Range) Unbounded() bool {
	return r.Lo == nil && r.Hi == nil && len(r.excluded) == 0
}

// HasExclusions reports whether the range excludes a ≠ constant, so the
// values it contains need not form one interval.
func (r *Range) HasExclusions() bool { return len(r.excluded) > 0 }

// Contains reports whether v lies in the range.
func (r *Range) Contains(v tuple.Value) bool {
	if r.Lo != nil {
		c := tuple.Compare(v, *r.Lo)
		if c < 0 || (c == 0 && !r.LoInc) {
			return false
		}
	}
	if r.Hi != nil {
		c := tuple.Compare(v, *r.Hi)
		if c > 0 || (c == 0 && !r.HiInc) {
			return false
		}
	}
	for _, ex := range r.excluded {
		if tuple.Equal(ex, v) {
			return false
		}
	}
	return true
}

// String renders the range.
func (r *Range) String() string {
	var b strings.Builder
	if r.LoInc {
		b.WriteByte('[')
	} else {
		b.WriteByte('(')
	}
	if r.Lo == nil {
		b.WriteString("-inf")
	} else {
		b.WriteString(r.Lo.String())
	}
	b.WriteString(", ")
	if r.Hi == nil {
		b.WriteString("+inf")
	} else {
		b.WriteString(r.Hi.String())
	}
	if r.HiInc {
		b.WriteByte(']')
	} else {
		b.WriteByte(')')
	}
	return b.String()
}

// minAtomSize is the least encoded size of an atom: a comparison of an
// empty string.
const minAtomSize = 1 + 8 + 8 + 1 + 5

// CodeAtoms walks an atom list's byte layout: [4 count], then per atom
// a flag byte — 1 for a join equality, followed by LRel LCol RRel RCol;
// 0 for a comparison, followed by Rel Col [1 op] value — with every
// slot and column an 8-byte int.
func CodeAtoms(c *tuple.Coder, atoms *[]Atom) {
	tuple.List(c, atoms, minAtomSize, func(c *tuple.Coder, a *Atom) {
		j, isJoin := (*a).(JoinEq)
		cmp, isCmp := (*a).(Cmp)
		if !c.Decoding() && !isJoin && !isCmp {
			c.Fail("atom of unknown type %T", *a)
			return
		}
		var decoded Atom
		if c.Bool(&isJoin); isJoin {
			c.Int(&j.LRel)
			c.Int(&j.LCol)
			c.Int(&j.RRel)
			c.Int(&j.RCol)
			decoded = j
		} else {
			c.Int(&cmp.Rel)
			c.Int(&cmp.Col)
			c.U8((*uint8)(&cmp.Op))
			c.Value(&cmp.Val)
			decoded = cmp
		}
		if c.Decoding() {
			*a = decoded
		}
	})
}

// Flag bits of an encoded range. A bound is present only when its Has
// bit is set.
const (
	rangePresent byte = 1 << iota
	rangeHasLo
	rangeHasHi
	rangeLoInc
	rangeHiInc
	rangeFlags = rangeHiInc<<1 - 1
)

// bit returns b when set and 0 otherwise.
func bit(set bool, b byte) byte {
	if set {
		return b
	}
	return 0
}

// CodeRange walks an optional range's byte layout: one flag byte — 0
// for no range (nil), else rangePresent with the Has and Inc bits —
// then the bounds that are present, low first.
func CodeRange(c *tuple.Coder, rg **Range) {
	var flags byte
	if r := *rg; r != nil {
		flags = rangePresent | bit(r.Lo != nil, rangeHasLo) | bit(r.Hi != nil, rangeHasHi) |
			bit(r.LoInc, rangeLoInc) | bit(r.HiInc, rangeHiInc)
	}
	c.U8(&flags)
	if flags&^rangeFlags != 0 || (flags != 0 && flags&rangePresent == 0) {
		c.Fail("range flags %#x", flags)
		return
	}
	if c.Decoding() {
		if *rg = nil; flags != 0 {
			*rg = &Range{LoInc: flags&rangeLoInc != 0, HiInc: flags&rangeHiInc != 0}
		}
	}
	bound := func(has byte, v **tuple.Value) {
		if flags&has != 0 {
			if c.Decoding() {
				*v = new(tuple.Value)
			}
			c.Value(*v)
		}
	}
	if flags != 0 {
		bound(rangeHasLo, &(*rg).Lo)
		bound(rangeHasHi, &(*rg).Hi)
	}
}
