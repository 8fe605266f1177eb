package pred

import (
	"testing"
	"testing/quick"

	"viewmat/internal/tuple"
)

func TestOpHolds(t *testing.T) {
	tests := []struct {
		op   Op
		a, b int64
		want bool
	}{
		{Eq, 5, 5, true}, {Eq, 5, 6, false},
		{Ne, 5, 6, true}, {Ne, 5, 5, false},
		{Lt, 4, 5, true}, {Lt, 5, 5, false},
		{Le, 5, 5, true}, {Le, 6, 5, false},
		{Gt, 6, 5, true}, {Gt, 5, 5, false},
		{Ge, 5, 5, true}, {Ge, 4, 5, false},
	}
	for _, tc := range tests {
		if got := tc.op.holds(tuple.I(tc.a), tuple.I(tc.b)); got != tc.want {
			t.Errorf("%d %s %d = %v, want %v", tc.a, tc.op, tc.b, got, tc.want)
		}
	}
}

func TestEvalSingle(t *testing.T) {
	// view predicate: r0.c0 >= 10 and r0.c0 < 20 and r1.c1 = 5
	p := New(
		Cmp{Rel: 0, Col: 0, Op: Ge, Val: tuple.I(10)},
		Cmp{Rel: 0, Col: 0, Op: Lt, Val: tuple.I(20)},
		Cmp{Rel: 1, Col: 1, Op: Eq, Val: tuple.I(5)},
	)
	in := tuple.New(1, tuple.I(15))
	out := tuple.New(2, tuple.I(25))
	if !p.EvalSingle(0, in) {
		t.Error("tuple inside range rejected")
	}
	if p.EvalSingle(0, out) {
		t.Error("tuple outside range accepted")
	}
	// Atoms on rel 1 must not affect rel-0 evaluation.
	if !p.EvalSingle(0, tuple.New(3, tuple.I(10))) {
		t.Error("boundary tuple rejected")
	}
	// Rel-1 evaluation only sees its own atom (col 1).
	if !p.EvalSingle(1, tuple.New(4, tuple.I(0), tuple.I(5))) {
		t.Error("rel-1 tuple satisfying its atom rejected")
	}
}

func TestEvalFullBinding(t *testing.T) {
	// r0.c1 = r1.c0 and r0.c0 > 3
	p := New(
		JoinEq{LRel: 0, LCol: 1, RRel: 1, RCol: 0},
		Cmp{Rel: 0, Col: 0, Op: Gt, Val: tuple.I(3)},
	)
	r0 := tuple.New(1, tuple.I(7), tuple.I(42))
	r1match := tuple.New(2, tuple.I(42), tuple.S("x"))
	r1miss := tuple.New(3, tuple.I(43), tuple.S("y"))
	if !p.EvalJoined(r0, r1match) {
		t.Error("joining pair rejected")
	}
	if p.EvalJoined(r0, r1miss) {
		t.Error("non-joining pair accepted")
	}
	if p.And(JoinEq{LRel: 0, LCol: 0, RRel: 2, RCol: 0}).EvalJoined(r0, r1match) {
		t.Error("unbound join slot must not evaluate true")
	}
}

func TestSatisfiableWithSelection(t *testing.T) {
	// Single-relation predicate: substitution decides everything.
	p := New(Cmp{Rel: 0, Col: 0, Op: Eq, Val: tuple.I(5)})
	if !screens(t, p, 0, tuple.New(1, tuple.I(5))) {
		t.Error("matching tuple screened out")
	}
	if screens(t, p, 0, tuple.New(2, tuple.I(6))) {
		t.Error("non-matching tuple passed screen")
	}
}

func TestSatisfiableWithJoinResidual(t *testing.T) {
	// V: r0.a = 5 and r0.b = r1.b (the paper's §2.1 example).
	p := New(
		Cmp{Rel: 0, Col: 0, Op: Eq, Val: tuple.I(5)},
		JoinEq{LRel: 0, LCol: 1, RRel: 1, RCol: 0},
	)
	// Tuple satisfying its own clauses: residual r1.b = const is
	// satisfiable, so the tuple passes.
	if !screens(t, p, 0, tuple.New(1, tuple.I(5), tuple.I(9))) {
		t.Error("screening rejected a tuple that could join")
	}
	// Tuple failing its restriction is screened out immediately.
	if screens(t, p, 0, tuple.New(2, tuple.I(4), tuple.I(9))) {
		t.Error("screening passed a tuple failing its restriction")
	}
	// Substituting on the other side: residual pins r0.b; combined with
	// a contradictory restriction on r0.b the residual is unsatisfiable.
	p2 := p.And(Cmp{Rel: 0, Col: 1, Op: Lt, Val: tuple.I(3)})
	if screens(t, p2, 1, tuple.New(3, tuple.I(9))) {
		t.Error("residual r0.b=9 and r0.b<3 should be unsatisfiable")
	}
	if !screens(t, p2, 1, tuple.New(4, tuple.I(2))) {
		t.Error("residual r0.b=2 and r0.b<3 should be satisfiable")
	}
}

func TestSatisfiableWithSelfJoinAtom(t *testing.T) {
	p := New(JoinEq{LRel: 0, LCol: 0, RRel: 0, RCol: 1})
	if !screens(t, p, 0, tuple.New(1, tuple.I(4), tuple.I(4))) {
		t.Error("equal columns rejected")
	}
	if screens(t, p, 0, tuple.New(2, tuple.I(4), tuple.I(5))) {
		t.Error("unequal columns accepted")
	}
}

func TestSatisfiableContradictoryResidual(t *testing.T) {
	// Residual atoms on an unbound relation that contradict each other.
	p := New(
		Cmp{Rel: 1, Col: 0, Op: Gt, Val: tuple.I(10)},
		Cmp{Rel: 1, Col: 0, Op: Lt, Val: tuple.I(5)},
	)
	if screens(t, p, 0, tuple.New(1, tuple.I(1))) {
		t.Error("contradictory residual reported satisfiable")
	}
}

func TestIntervalFor(t *testing.T) {
	p := New(
		Cmp{Rel: 0, Col: 0, Op: Ge, Val: tuple.I(10)},
		Cmp{Rel: 0, Col: 0, Op: Lt, Val: tuple.I(20)},
		Cmp{Rel: 0, Col: 1, Op: Eq, Val: tuple.S("x")},
	)
	rg, ok := p.IntervalFor(0, 0)
	if !ok {
		t.Fatal("col 0 should be constrained")
	}
	for _, v := range []int64{10, 15, 19} {
		if !rg.Contains(tuple.I(v)) {
			t.Errorf("%d should be in %s", v, rg.String())
		}
	}
	for _, v := range []int64{9, 20, 100} {
		if rg.Contains(tuple.I(v)) {
			t.Errorf("%d should not be in %s", v, rg.String())
		}
	}
	if _, ok := p.IntervalFor(0, 5); ok {
		t.Error("unconstrained column reported constrained")
	}
	if _, ok := p.IntervalFor(1, 0); ok {
		t.Error("other relation reported constrained")
	}
}

func TestRangeRestrict(t *testing.T) {
	r := FullRange()
	if !r.Restrict(Ge, tuple.I(0)) || !r.Restrict(Lt, tuple.I(10)) {
		t.Fatal("restrictions emptied a live range")
	}
	if r.Contains(tuple.I(-1)) || !r.Contains(tuple.I(0)) || !r.Contains(tuple.I(9)) || r.Contains(tuple.I(10)) {
		t.Errorf("range %s has wrong membership", r.String())
	}
	if r.Restrict(Gt, tuple.I(20)) {
		t.Error("contradictory restriction left range nonempty")
	}
}

func TestRangeEqThenNe(t *testing.T) {
	r := FullRange()
	r.Restrict(Eq, tuple.I(5))
	if r.Restrict(Ne, tuple.I(5)) {
		t.Error("x=5 and x!=5 should be empty")
	}
	r2 := FullRange()
	r2.Restrict(Eq, tuple.I(5))
	if !r2.Restrict(Ne, tuple.I(6)) {
		t.Error("x=5 and x!=6 should be satisfiable")
	}
}

func TestRangeExclusiveBoundsAtPoint(t *testing.T) {
	r := FullRange()
	r.Restrict(Ge, tuple.I(5))
	if !r.Restrict(Le, tuple.I(5)) {
		t.Error("[5,5] should be nonempty")
	}
	r2 := FullRange()
	r2.Restrict(Ge, tuple.I(5))
	if r2.Restrict(Lt, tuple.I(5)) {
		t.Error("[5,5) should be empty")
	}
	// Exclusive replaces inclusive at the same bound.
	r3 := FullRange()
	r3.Restrict(Le, tuple.I(5))
	r3.Restrict(Lt, tuple.I(5))
	if r3.Contains(tuple.I(5)) {
		t.Error("tightening to exclusive must exclude the bound")
	}
}

func TestPointRange(t *testing.T) {
	r := PointRange(tuple.I(7))
	if !r.Contains(tuple.I(7)) || r.Contains(tuple.I(8)) {
		t.Errorf("point range wrong: %s", r.String())
	}
}

// Property: the screen agrees with EvalSingle on fully-bound
// single-relation predicates (substitution decides everything, so
// satisfiability == truth).
func TestPropertySatisfiableMatchesEvalSingleRel(t *testing.T) {
	f := func(v, lo, hi int64) bool {
		p := New(
			Cmp{Rel: 0, Col: 0, Op: Ge, Val: tuple.I(lo)},
			Cmp{Rel: 0, Col: 0, Op: Lt, Val: tuple.I(hi)},
		)
		tp := tuple.New(1, tuple.I(v))
		return screens(t, p, 0, tp) == p.EvalSingle(0, tp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Contains is consistent with Restrict — after restricting a
// full range by "op v", a value w is contained iff "w op v" holds.
func TestPropertyRestrictContains(t *testing.T) {
	ops := []Op{Eq, Lt, Le, Gt, Ge}
	f := func(opIdx uint8, v, w int64) bool {
		op := ops[int(opIdx)%len(ops)]
		r := FullRange()
		r.Restrict(op, tuple.I(v))
		return r.Contains(tuple.I(w)) == op.holds(tuple.I(w), tuple.I(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPredicateString(t *testing.T) {
	if got := True().String(); got != "true" {
		t.Errorf("True().String() = %q", got)
	}
	p := New(Cmp{Rel: 0, Col: 1, Op: Le, Val: tuple.I(9)}, JoinEq{LRel: 0, LCol: 0, RRel: 1, RCol: 0})
	want := "r0.c1 <= 9 and r0.c0 = r1.c0"
	if got := p.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestOpStringAll(t *testing.T) {
	want := map[Op]string{Eq: "=", Ne: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">=", Op(9): "op(9)"}
	for op, s := range want {
		if got := op.String(); got != s {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, s)
		}
	}
}

func TestRangeString(t *testing.T) {
	cases := []struct {
		rg   *Range
		want string
	}{
		{FullRange(), "[-inf, +inf]"},
		{NewRange(tuple.I(1), tuple.I(5), true, false), "[1, 5)"},
		{NewRange(tuple.I(1), tuple.I(5), false, true), "(1, 5]"},
		{PointRange(tuple.S("x")), `["x", "x"]`},
	}
	for _, tc := range cases {
		if got := tc.rg.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}
