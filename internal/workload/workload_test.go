package workload

import (
	"reflect"
	"testing"

	"viewmat/internal/costmodel"
)

func TestGenerateCounts(t *testing.T) {
	p := costmodel.Default()
	p.K, p.Q, p.L = 40, 20, 5
	ops, err := Generate(Spec{Params: p, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	u, q := Counts(ops)
	if u != 40 || q != 20 {
		t.Errorf("counts = %d updates, %d queries; want 40, 20", u, q)
	}
	for _, op := range ops {
		if op.Kind == OpUpdate {
			if len(op.Keys) != 5 || len(op.NewPayload) != 5 {
				t.Fatalf("update txn with %d keys, want 5", len(op.Keys))
			}
			for _, k := range op.Keys {
				if k < 0 || k >= int64(p.N) {
					t.Fatalf("key %d out of domain", k)
				}
			}
		}
	}
}

func TestGenerateInterleavesEvenly(t *testing.T) {
	p := costmodel.Default()
	p.K, p.Q, p.L = 100, 100, 2
	ops, _ := Generate(Spec{Params: p, Seed: 2})
	// With k = q, no more than 2 consecutive operations of one kind.
	run, prev := 0, OpKind(-1)
	for _, op := range ops {
		if op.Kind == prev {
			run++
			if run > 2 {
				t.Fatal("operations not interleaved")
			}
		} else {
			run = 1
			prev = op.Kind
		}
	}
}

func TestGenerateQueryRanges(t *testing.T) {
	p := costmodel.Default()
	p.K, p.Q = 10, 50
	ops, _ := Generate(Spec{Params: p, Seed: 3})
	viewTuples := int64(p.F * p.N)
	span := int64(p.FV * float64(viewTuples))
	for _, op := range ops {
		if op.Kind != OpQuery {
			continue
		}
		if op.QueryLo < 0 || op.QueryHi >= viewTuples {
			t.Fatalf("query [%d,%d] outside view domain [0,%d)", op.QueryLo, op.QueryHi, viewTuples)
		}
		if got := op.QueryHi - op.QueryLo + 1; got != span {
			t.Fatalf("query span = %d, want %d", got, span)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := costmodel.Default()
	p.K, p.Q, p.L = 10, 10, 3
	a, _ := Generate(Spec{Params: p, Seed: 42})
	b, _ := Generate(Spec{Params: p, Seed: 42})
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].QueryLo != b[i].QueryLo {
			t.Fatalf("op %d differs between same-seed runs", i)
		}
		for j := range a[i].Keys {
			if a[i].Keys[j] != b[i].Keys[j] {
				t.Fatalf("op %d key %d differs", i, j)
			}
		}
	}
	c, _ := Generate(Spec{Params: p, Seed: 43})
	same := true
	for i := range a {
		if a[i].Kind == OpUpdate && c[i].Kind == OpUpdate && len(a[i].Keys) > 0 && a[i].Keys[0] != c[i].Keys[0] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical key streams")
	}
}

func TestGenerateRejectsInvalidParams(t *testing.T) {
	p := costmodel.Default()
	p.F = 0
	if _, err := Generate(Spec{Params: p}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestTinyViewAndSpanClamped(t *testing.T) {
	p := costmodel.Default()
	p.N, p.F, p.FV = 100, 0.01, 0.001 // view of 1 tuple, span < 1
	p.K, p.Q, p.L = 2, 2, 1
	ops, err := Generate(Spec{Params: p, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.Kind == OpQuery && (op.QueryLo != 0 || op.QueryHi != 0) {
			t.Errorf("degenerate query range [%d,%d]", op.QueryLo, op.QueryHi)
		}
	}
}

func TestSkewConcentratesUpdates(t *testing.T) {
	p := costmodel.Default()
	p.N = 1000
	p.K, p.Q, p.L = 100, 10, 10
	uniform, err := Generate(Spec{Params: p, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := Generate(Spec{Params: p, Seed: 9, Skew: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	distinct := func(ops []Operation) int {
		seen := map[int64]bool{}
		for _, op := range ops {
			for _, k := range op.Keys {
				if k < 0 || k >= 1000 {
					t.Fatalf("key %d out of domain", k)
				}
				seen[k] = true
			}
		}
		return len(seen)
	}
	u, s := distinct(uniform), distinct(skewed)
	if s >= u/2 {
		t.Errorf("skewed workload touched %d distinct keys vs uniform %d; expected strong concentration", s, u)
	}
}

func TestSkewDeterministic(t *testing.T) {
	p := costmodel.Default()
	p.N, p.K, p.Q, p.L = 500, 10, 5, 4
	a, _ := Generate(Spec{Params: p, Seed: 3, Skew: 1.5})
	b, _ := Generate(Spec{Params: p, Seed: 3, Skew: 1.5})
	for i := range a {
		for j := range a[i].Keys {
			if a[i].Keys[j] != b[i].Keys[j] {
				t.Fatal("skewed generation not deterministic")
			}
		}
	}
}

func phasedParams(k, q, l float64) costmodel.Params {
	p := costmodel.Default()
	p.N, p.K, p.Q, p.L = 1500, k, q, l
	return p
}

func TestGeneratePhasedBoundaries(t *testing.T) {
	phases := []Phase{
		{Params: phasedParams(30, 270, 4), Skew: 1.2},
		{Params: phasedParams(270, 30, 4), Skew: 1.2},
		{Params: phasedParams(5, 5, 2)},
	}
	ops, starts, err := GeneratePhased(1, phases...)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 300, 600}; !reflect.DeepEqual(starts, want) {
		t.Fatalf("phase starts %v, want %v", starts, want)
	}
	if len(ops) != 610 {
		t.Fatalf("%d operations, want 610", len(ops))
	}
	for i, ph := range phases {
		end := len(ops)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		seg := ops[starts[i]:end]
		u, q := Counts(seg)
		if u != int(ph.Params.K) || q != int(ph.Params.Q) {
			t.Errorf("phase %d: %d updates, %d queries; want %v, %v", i, u, q, ph.Params.K, ph.Params.Q)
		}
		for _, op := range seg {
			if op.Kind == OpUpdate && len(op.Keys) != int(ph.Params.L) {
				t.Fatalf("phase %d: update of %d keys, want %v", i, len(op.Keys), ph.Params.L)
			}
		}
	}
}

func TestGeneratePhasedRefusals(t *testing.T) {
	if _, _, err := GeneratePhased(1); err == nil {
		t.Error("no phases accepted")
	}
	other := phasedParams(4, 4, 2)
	other.N = 3000
	if _, _, err := GeneratePhased(1, Phase{Params: phasedParams(4, 4, 2)}, Phase{Params: other}); err == nil {
		t.Error("a phase that changes N accepted")
	}
}

func TestGeneratePhasedDeterministic(t *testing.T) {
	phases := []Phase{{Params: phasedParams(30, 270, 4), Skew: 1.2}, {Params: phasedParams(270, 30, 4), Skew: 1.2}}
	a, _, _ := GeneratePhased(7, phases...)
	b, _, _ := GeneratePhased(7, phases...)
	c, _, _ := GeneratePhased(8, phases...)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 gave the same stream")
	}
}
