package tupletest

import (
	"math"
	"testing"

	"viewmat/internal/tuple"
)

// TestKeySeparatesTypesAndJoinsSignedZero: a key tells I(1) from F(1),
// joins −0 with +0 and two NaN payloads, as tuple.Equal does, and does
// not run one string field into the next.
func TestKeySeparatesTypesAndJoinsSignedZero(t *testing.T) {
	key := func(vs ...tuple.Value) string { return Key(vs) }
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	for _, c := range []struct {
		a, b []tuple.Value
		same bool
	}{
		{[]tuple.Value{tuple.I(1)}, []tuple.Value{tuple.F(1)}, false},
		{[]tuple.Value{tuple.F(math.Copysign(0, -1))}, []tuple.Value{tuple.F(0)}, true},
		{[]tuple.Value{tuple.F(math.NaN())}, []tuple.Value{tuple.F(nan2)}, true},
		{[]tuple.Value{tuple.S("ab"), tuple.S("c")}, []tuple.Value{tuple.S("a"), tuple.S("bc")}, false},
		{[]tuple.Value{tuple.S("a, STRING:b")}, []tuple.Value{tuple.S("a"), tuple.S("b")}, false},
	} {
		if got := key(c.a...) == key(c.b...); got != c.same {
			t.Errorf("Key(%v) = %q, Key(%v) = %q: same = %v, want %v", c.a, key(c.a...), c.b, key(c.b...), got, c.same)
		}
		if want := len(c.a) == len(c.b) && tuple.ValsEqual(tuple.Tuple{Vals: c.a}, tuple.Tuple{Vals: c.b}); want != c.same {
			t.Errorf("%v vs %v: tuple.ValsEqual says %v", c.a, c.b, want)
		}
	}
}
