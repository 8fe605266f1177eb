package pred

import (
	"math"
	"math/rand"
	"testing"

	"viewmat/internal/tuple"
)

// satisfiableWith is the second screening stage as first written, the
// reference Residual is checked against: substitute tuple t for
// relation slot rel and report whether the rest of the predicate is
// still satisfiable. Comparison atoms on rel are decided directly; the
// conjunction over the remaining slots is checked by interval
// intersection per (relation, column), rebuilt on every call, with join
// atoms pinning the partner column to the substituted tuple's value.
func satisfiableWith(p *P, rel int, t tuple.Tuple) bool {
	// Decide atoms fully bound by t.
	for _, a := range p.Atoms {
		if c, ok := a.(Cmp); ok && c.Rel == rel {
			if !c.Op.holds(t.Vals[c.Col], c.Val) {
				return false
			}
		}
	}
	// Build intervals for unbound columns. Join atoms against the bound
	// relation pin the partner column to the tuple's value.
	type colRef struct{ rel, col int }
	ranges := map[colRef]*Range{}
	rangeFor := func(r, c int) *Range {
		key := colRef{r, c}
		rg, ok := ranges[key]
		if !ok {
			rg = FullRange()
			ranges[key] = rg
		}
		return rg
	}
	for _, a := range p.Atoms {
		switch at := a.(type) {
		case Cmp:
			if at.Rel == rel {
				continue
			}
			if !rangeFor(at.Rel, at.Col).Restrict(at.Op, at.Val) {
				return false
			}
		case JoinEq:
			switch {
			case at.LRel == rel && at.RRel != rel:
				if !rangeFor(at.RRel, at.RCol).Restrict(Eq, t.Vals[at.LCol]) {
					return false
				}
			case at.RRel == rel && at.LRel != rel:
				if !rangeFor(at.LRel, at.LCol).Restrict(Eq, t.Vals[at.RCol]) {
					return false
				}
			case at.LRel == rel && at.RRel == rel:
				if !tuple.Equal(t.Vals[at.LCol], t.Vals[at.RCol]) {
					return false
				}
			}
		}
	}
	return true
}

// screens runs the compiled second stage for a tuple of slot rel, as
// rules.Table.Screen does, and fails the test where the reference
// disagrees.
func screens(t testing.TB, p *P, rel int, tp tuple.Tuple) bool {
	t.Helper()
	res := p.Residual(rel)
	got := res != nil && res.EvalJoined(tp, tuple.Tuple{})
	if want := satisfiableWith(p, rel, tp); got != want {
		t.Fatalf("predicate %s, slot %d, tuple %v: residual %v says %v, reference %v", p, rel, tp.Vals, res, got, want)
	}
	return got
}

// residualPool is the values screening inputs draw from: Ints, Floats
// and Strings side by side (tuple.Compare orders them by type first),
// ±0, two NaN payloads and ±Inf.
var residualPool = []tuple.Value{
	tuple.I(-1), tuple.I(0), tuple.I(1), tuple.I(2),
	tuple.F(math.Copysign(0, -1)), tuple.F(0), tuple.F(1), tuple.F(1.5),
	tuple.F(math.NaN()), tuple.F(math.Float64frombits(0x7ff8dead0000beef)),
	tuple.F(math.Inf(1)), tuple.F(math.Inf(-1)),
	tuple.S(""), tuple.S("a"), tuple.S("b"),
}

// residualCols is the width of the relations the screening inputs
// range over.
const residualCols = 3

// decodeScreen reads a screening input from bytes: the lock slot, the
// tuple's values, then 4 bytes an atom — a join atom when the first is
// below 64, else a comparison.
func decodeScreen(data []byte) (p *P, rel int, tp tuple.Tuple) {
	pick := func(b byte) tuple.Value { return residualPool[int(b)%len(residualPool)] }
	p = True()
	if len(data) < 1+residualCols {
		return p, 0, tuple.Tuple{Vals: make([]tuple.Value, residualCols)}
	}
	rel = int(data[0] & 1)
	tp.Vals = make([]tuple.Value, residualCols)
	for i := range tp.Vals {
		tp.Vals[i] = pick(data[1+i])
	}
	for b := data[1+residualCols:]; len(b) >= 4 && len(p.Atoms) < 8; b = b[4:] {
		slot := func(x byte) (int, int) { return int(x & 1), int(x>>1) % residualCols }
		if b[0] < 64 {
			l, lc := slot(b[1])
			r, rc := slot(b[2])
			p.Atoms = append(p.Atoms, JoinEq{LRel: l, LCol: lc, RRel: r, RCol: rc})
			continue
		}
		r, c := slot(b[1])
		p.Atoms = append(p.Atoms, Cmp{Rel: r, Col: c, Op: Op(b[2] % 6), Val: pick(b[3])})
	}
	return p, rel, tp
}

// encodeScreen is decodeScreen's inverse over pool values, for seeds.
func encodeScreen(t testing.TB, p *P, rel int, vals ...tuple.Value) []byte {
	t.Helper()
	index := func(v tuple.Value) byte {
		for i, w := range residualPool {
			if v.Type() == w.Type() && v.String() == w.String() && (v.Type() != tuple.Float || math.Float64bits(v.Float()) == math.Float64bits(w.Float())) {
				return byte(i)
			}
		}
		t.Fatalf("value %v is not in the pool", v)
		return 0
	}
	slot := func(r, c int) byte { return byte(c<<1 | r) }
	out := []byte{byte(rel)}
	for _, v := range vals {
		out = append(out, index(v))
	}
	for _, a := range p.Atoms {
		switch at := a.(type) {
		case JoinEq:
			out = append(out, 0, slot(at.LRel, at.LCol), slot(at.RRel, at.RCol), 0)
		case Cmp:
			out = append(out, 64, slot(at.Rel, at.Col), byte(at.Op), index(at.Val))
		}
	}
	return out
}

// residualSeeds are one input per case the residual must get right.
func residualSeeds(t testing.TB) [][]byte {
	i, f, s := tuple.I, tuple.F, tuple.S
	negZero, nan := f(math.Copysign(0, -1)), f(math.NaN())
	join := JoinEq{LRel: 0, LCol: 1, RRel: 1, RCol: 0}
	return [][]byte{
		// Ne on the tuple's own column, and carried across the join.
		encodeScreen(t, New(Cmp{Rel: 0, Col: 0, Op: Ne, Val: i(1)}), 0, i(1), i(0), i(0)),
		encodeScreen(t, New(join, Cmp{Rel: 1, Col: 0, Op: Ne, Val: i(2)}), 0, i(0), i(2), i(0)),
		// NaN above +Inf, as one value whatever its payload.
		encodeScreen(t, New(join, Cmp{Rel: 1, Col: 0, Op: Gt, Val: f(math.Inf(1))}), 0, i(0), f(math.Float64frombits(0x7ff8dead0000beef)), i(0)),
		encodeScreen(t, New(Cmp{Rel: 0, Col: 2, Op: Eq, Val: nan}), 0, i(0), i(0), nan),
		// −0 equals +0, on both sides of the join.
		encodeScreen(t, New(join, Cmp{Rel: 1, Col: 0, Op: Le, Val: f(0)}, Cmp{Rel: 1, Col: 0, Op: Ge, Val: f(0)}), 0, i(0), negZero, i(0)),
		encodeScreen(t, New(join, Cmp{Rel: 0, Col: 1, Op: Ne, Val: negZero}), 1, f(0), i(0), i(0)),
		// Mixed types: Ints below Floats below Strings.
		encodeScreen(t, New(join, Cmp{Rel: 1, Col: 0, Op: Lt, Val: f(1)}), 0, s("a"), i(2), s("b")),
		encodeScreen(t, New(join, Cmp{Rel: 1, Col: 0, Op: Gt, Val: i(2)}, Cmp{Rel: 1, Col: 0, Op: Lt, Val: s("")}), 0, i(0), f(1.5), i(0)),
		// The lock on slot 1, its partner's comparisons carried to it.
		encodeScreen(t, New(join, Cmp{Rel: 0, Col: 1, Op: Lt, Val: i(2)}, Cmp{Rel: 0, Col: 0, Op: Eq, Val: i(1)}), 1, i(1), i(0), i(0)),
		// A same-slot join atom.
		encodeScreen(t, New(JoinEq{LRel: 0, LCol: 0, RRel: 0, RCol: 2}, join), 0, f(0), i(1), negZero),
		// Two columns of the tuple joined to one partner column.
		encodeScreen(t, New(join, JoinEq{LRel: 1, LCol: 0, RRel: 0, RCol: 2}), 0, i(0), i(1), f(1)),
		// An empty partner interval: no tuple passes.
		encodeScreen(t, New(join, Cmp{Rel: 1, Col: 2, Op: Gt, Val: i(1)}, Cmp{Rel: 1, Col: 2, Op: Lt, Val: i(0)}), 0, i(0), i(0), i(0)),
		encodeScreen(t, New(Cmp{Rel: 1, Col: 1, Op: Eq, Val: s("a")}, Cmp{Rel: 1, Col: 1, Op: Ne, Val: s("a")}), 1, i(0), i(0), i(0)),
	}
}

// FuzzScreenResidual checks the residual Register compiles against the
// reference on arbitrary predicates, lock slots and tuples.
func FuzzScreenResidual(f *testing.F) {
	for _, seed := range residualSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, rel, tp := decodeScreen(data)
		screens(t, p, rel, tp)
	})
}

// TestScreenResidualMatchesReference runs random inputs through the
// fuzz target's decoder, so every test run covers more than the seeds.
func TestScreenResidualMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		data := make([]byte, 1+residualCols+4*(1+rng.Intn(6)))
		rng.Read(data)
		p, rel, tp := decodeScreen(data)
		screens(t, p, rel, tp)
	}
}
