package vec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"viewmat/internal/tuple"
)

// A column keeps one lane while its cells share a type and widens to
// tagged lanes at the first cell of another. These tests build the same
// cell sequence through every append path, with the type change at
// every position, and hold each column to a plain []tuple.Value.

// cellOf draws a cell of type t; payloads include the values whose
// encodings are easy to get wrong.
func cellOf(rng *rand.Rand, t tuple.Type) tuple.Value {
	switch t {
	case tuple.Int:
		return tuple.I([]int64{0, -1, 7, math.MaxInt64, math.MinInt64, rng.Int63()}[rng.Intn(6)])
	case tuple.Float:
		return tuple.F([]float64{0, -2.5, math.NaN(), math.Inf(1), rng.Float64()}[rng.Intn(5)])
	default:
		return tuple.S([]string{"", "a", "zz", fmt.Sprint(rng.Intn(100))}[rng.Intn(4)])
	}
}

// cellsChangingAt returns n cells of type first up to position at, a
// cell of type second there, and cells of any type after it; at == n is
// the column that never changes type.
func cellsChangingAt(rng *rand.Rand, n, at int, first, second tuple.Type) []tuple.Value {
	ref := make([]tuple.Value, n)
	for i := range ref {
		switch {
		case i < at:
			ref[i] = cellOf(rng, first)
		case i == at:
			ref[i] = cellOf(rng, second)
		default:
			ref[i] = cellOf(rng, tuple.Type(rng.Intn(3)))
		}
	}
	return ref
}

// The append paths: cell by cell; typed bulk grows, one per run of a
// type; AppendRange of source columns cut at cuts (a cut run may hold
// the type change); AppendRows gathering a shuffled source; and
// selected appends, AppendRows picking ascending survivors out of a
// source among dropped cells.
var colBuilders = []struct {
	name  string
	build func(rng *rand.Rand, ref []tuple.Value) *Col
}{
	{"append", func(_ *rand.Rand, ref []tuple.Value) *Col {
		c := &Col{}
		for _, v := range ref {
			c.Append(v)
		}
		return c
	}},
	{"grow", func(_ *rand.Rand, ref []tuple.Value) *Col {
		c := &Col{}
		for lo := 0; lo < len(ref); {
			hi := lo
			for hi < len(ref) && ref[hi].Type() == ref[lo].Type() {
				hi++
			}
			switch ref[lo].Type() {
			case tuple.Int:
				for i, dst := 0, c.GrowInts(hi-lo); i < len(dst); i++ {
					dst[i] = ref[lo+i].Int()
				}
			case tuple.Float:
				for i, dst := 0, c.GrowFloats(hi-lo); i < len(dst); i++ {
					dst[i] = ref[lo+i].Float()
				}
			default:
				for i, dst := 0, c.GrowBytes(hi-lo); i < len(dst); i++ {
					dst[i] = []byte(ref[lo+i].Str())
				}
			}
			lo = hi
		}
		return c
	}},
	{"append-range", func(rng *rand.Rand, ref []tuple.Value) *Col {
		c := &Col{}
		for lo := 0; lo < len(ref); {
			hi := lo + 1 + rng.Intn(len(ref)-lo)
			src := &Col{}
			pad := rng.Intn(3) // the run sits inside its source
			for i := 0; i < pad; i++ {
				src.Append(ref[lo])
			}
			for _, v := range ref[lo:hi] {
				src.Append(v)
			}
			c.AppendRange(src, pad, pad+hi-lo)
			lo = hi
		}
		return c
	}},
	{"append-rows", func(rng *rand.Rand, ref []tuple.Value) *Col {
		perm := rng.Perm(len(ref))
		src := &Col{}
		rows := make([]int, len(ref))
		for at, i := range perm {
			src.Append(ref[i])
			rows[i] = at
		}
		c := &Col{}
		half := len(rows) / 2
		c.AppendRows(src, rows[:half])
		c.AppendRows(src, rows[half:])
		return c
	}},
	// How a selecting page decode gathers survivors: each run of the
	// reference lies in a source of its own among dropped cells of any
	// type, and an ascending selection picks it out — so a dropped cell
	// of another type must not widen the column.
	{"append-selected", func(rng *rand.Rand, ref []tuple.Value) *Col {
		c := &Col{}
		for lo := 0; lo < len(ref); {
			hi := lo + 1 + rng.Intn(len(ref)-lo)
			src := &Col{}
			var sel []int
			for _, v := range ref[lo:hi] {
				for d := rng.Intn(3); d > 0; d-- {
					src.Append(cellOf(rng, tuple.Type(rng.Intn(3))))
				}
				sel = append(sel, src.Len())
				src.Append(v)
			}
			for d := rng.Intn(2); d > 0; d-- {
				src.Append(cellOf(rng, tuple.Type(rng.Intn(3))))
			}
			c.AppendRows(src, sel)
			lo = hi
		}
		return c
	}},
}

func sameValue(a, b tuple.Value) bool {
	return a.Type() == b.Type() && bytes.Equal(tuple.AppendValue(nil, a), tuple.AppendValue(nil, b))
}

func checkCol(t *testing.T, c *Col, ref []tuple.Value) {
	t.Helper()
	if c.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(ref))
	}
	uniform := len(ref) > 0
	for _, v := range ref {
		uniform = uniform && v.Type() == ref[0].Type()
	}
	if typ, ok := c.Uniform(); ok != uniform || (ok && typ != ref[0].Type()) {
		t.Fatalf("Uniform = %v, %v over %v", typ, ok, ref)
	}
	for i, want := range ref {
		if c.Tag(i) != want.Type() {
			t.Fatalf("Tag(%d) = %v, want %v", i, c.Tag(i), want.Type())
		}
		if got := c.Value(i); !sameValue(got, want) {
			t.Fatalf("Value(%d) = %v, want %v", i, got, want)
		}
		got, wantF := c.Float64(i), want.AsFloat()
		if got != wantF && !(math.IsNaN(got) && math.IsNaN(wantF)) {
			t.Fatalf("Float64(%d) = %v, want %v", i, got, wantF)
		}
	}
	flat := make([]tuple.Value, 2*len(ref))
	if len(ref) > 0 {
		c.GatherValues(flat[1:], 2, nil)
	}
	for i, want := range ref {
		if !sameValue(flat[2*i+1], want) {
			t.Fatalf("GatherValues cell %d = %v, want %v", i, flat[2*i+1], want)
		}
	}
}

// checkBatch holds a batch whose slot 0 is (col, ordinal) to the
// reference through the batch-level readers: Gather and Compact.
func checkBatch(t *testing.T, rng *rand.Rand, c *Col, ref []tuple.Value) {
	t.Helper()
	ids := make([]uint64, len(ref))
	var ord Col
	for i := range ref {
		ids[i] = uint64(1000 + i)
		ord.Append(tuple.I(int64(i)))
	}
	if len(ref) == 0 {
		return
	}
	b := &Batch{}
	if !b.AppendSlot0Rows(ids, []Col{*c, ord}, 0, len(ref)) {
		t.Fatal("AppendSlot0Rows rejected an empty batch's first rows")
	}
	checkGathered := func(g *Batch, rows []int) {
		t.Helper()
		if g.NumRows() != len(rows) || g.Sel != nil || g.Insert != nil || g.Dup != nil {
			t.Fatalf("gathered %d of %d rows, sel %v insert %v dup %v", g.NumRows(), len(rows), g.Sel, g.Insert, g.Dup)
		}
		picked := make([]tuple.Value, len(rows))
		for k, i := range rows {
			picked[k] = ref[i]
			if got := g.TupleAt(0, k); got.ID != ids[i] || got.Vals[1].Int() != int64(i) {
				t.Fatalf("gathered row %d = %v, want row %d", k, got, i)
			}
		}
		if len(rows) > 0 {
			checkCol(t, &g.Slots[0][0], picked)
		}
	}
	rows := rng.Perm(len(ref))[:rng.Intn(len(ref)+1)]
	checkGathered(b.Gather(rows), rows)
	b.Sel = append([]int{}, rows...)
	sort.Ints(b.Sel)
	checkGathered(b.Compact(), b.Sel)
}

func TestColTypeChangeAtEveryPosition(t *testing.T) {
	const n = 9
	rng := rand.New(rand.NewSource(1))
	for _, bld := range colBuilders {
		for first := tuple.Int; first <= tuple.String; first++ {
			for second := tuple.Int; second <= tuple.String; second++ {
				if first == second {
					continue
				}
				for at := 0; at <= n; at++ { // 0: first cell; n: never
					name := fmt.Sprintf("%s/%v-to-%v-at-%d", bld.name, first, second, at)
					t.Run(name, func(t *testing.T) {
						ref := cellsChangingAt(rng, n, at, first, second)
						c := bld.build(rng, ref)
						checkCol(t, c, ref)
						checkBatch(t, rng, c, ref)
					})
				}
			}
		}
	}
}

func TestColPropertyRandomSequences(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40)
		at := n
		if n > 0 && rng.Intn(4) > 0 {
			at = rng.Intn(n)
		}
		first := tuple.Type(rng.Intn(3))
		second := tuple.Type((int(first) + 1 + rng.Intn(2)) % 3)
		ref := cellsChangingAt(rng, n, at, first, second)
		for _, bld := range colBuilders {
			func() {
				defer func() {
					if t.Failed() {
						t.Logf("seed %d, builder %s", seed, bld.name)
					}
				}()
				c := bld.build(rng, ref)
				checkCol(t, c, ref)
				checkBatch(t, rng, c, ref)
			}()
		}
	}
}

// Truncate and Reset are the two ways cells leave a column: a batch
// takes back a leaf the range cut, and staging lanes are reused.
func TestColTruncateAndReset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := cellsChangingAt(rng, 12, 8, tuple.Int, tuple.String)
	c := colBuilders[0].build(rng, ref)
	c.Truncate(10)
	checkColLoose(t, c, ref[:10])
	c.Truncate(5) // back inside the uniform prefix: reads the same, stays widened
	checkColLoose(t, c, ref[:5])
	c.Append(tuple.F(1.5))
	checkColLoose(t, c, append(append([]tuple.Value(nil), ref[:5]...), tuple.F(1.5)))
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d", c.Len())
	}
	c.Append(tuple.S("again"))
	checkCol(t, c, []tuple.Value{tuple.S("again")}) // uniform once more

	u := &Col{}
	for i := 0; i < 6; i++ {
		u.Append(tuple.I(int64(i)))
	}
	u.Truncate(2)
	u.Append(tuple.I(9))
	checkCol(t, u, []tuple.Value{tuple.I(0), tuple.I(1), tuple.I(9)})
}

// Insert and Delete are a data page edit's one-row splices: after any
// sequence of them, on a column built by any append path, the column
// reads as the same splices of a plain []tuple.Value, and CompareCells
// orders its cells as tuple.Compare orders their values.
func TestColInsertDeleteMatchesSlice(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12)
		ref := cellsChangingAt(rng, n, rng.Intn(n+1), tuple.Type(rng.Intn(3)), tuple.Type(rng.Intn(3)))
		c := colBuilders[rng.Intn(len(colBuilders))].build(rng, ref)
		for step := 0; step < 20; step++ {
			if len(ref) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(ref))
				c.Delete(i)
				ref = append(ref[:i:i], ref[i+1:]...)
			} else {
				i, v := rng.Intn(len(ref)+1), cellOf(rng, tuple.Type(rng.Intn(3)))
				c.Insert(i, v)
				ref = append(ref[:i:i], append([]tuple.Value{v}, ref[i:]...)...)
			}
			checkColLoose(t, c, ref)
			if typ, ok := c.Uniform(); ok {
				for i, v := range ref {
					if v.Type() != typ {
						t.Fatalf("seed %d: Uniform says %v, cell %d is %v", seed, typ, i, v)
					}
				}
			}
			for i := range ref {
				for j := range ref {
					if got, want := c.CompareCells(i, j), tuple.Compare(ref[i], ref[j]); got != want {
						t.Fatalf("seed %d: CompareCells(%d, %d) = %d, want %d (%v vs %v)", seed, i, j, got, want, ref[i], ref[j])
					}
				}
			}
		}
	}
}

// checkColLoose is checkCol without the Uniform expectation, for
// columns that stay widened after the odd cell was truncated away.
func checkColLoose(t *testing.T, c *Col, ref []tuple.Value) {
	t.Helper()
	if c.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(ref))
	}
	for i, want := range ref {
		if got := c.Value(i); c.Tag(i) != want.Type() || !sameValue(got, want) {
			t.Fatalf("cell %d = %v, want %v", i, got, want)
		}
	}
}

// The side lanes follow Sel's convention: nil until a row needs them.
func TestInsertDupLanesNilUntilNeeded(t *testing.T) {
	b := &Batch{}
	t1 := tp(1, tuple.I(1))
	b.TryAppend(&t1, nil, nil, false, 0, 8)
	b.TryAppend(&t1, nil, nil, false, 0, 8)
	if b.Insert != nil || b.Dup != nil {
		t.Fatal("plain rows materialized the polarity or dup lane")
	}
	b.TryAppend(&t1, nil, nil, true, 0, 8)
	b.TryAppend(&t1, nil, nil, false, 4, 8)
	ids := []uint64{7, 8}
	var src Col
	src.Append(tuple.I(70))
	src.Append(tuple.I(80))
	if !b.AppendSlot0Rows(ids, []Col{src}, 0, 2) {
		t.Fatal("run append rejected")
	}
	wantIns := []bool{false, false, true, false, false, false}
	wantDup := []int64{0, 0, 0, 4, 0, 0}
	for i := range wantIns {
		if b.InsertAt(i) != wantIns[i] || b.DupAt(i) != wantDup[i] {
			t.Fatalf("row %d: insert %v dup %d", i, b.InsertAt(i), b.DupAt(i))
		}
	}
	g := b.Gather([]int{5, 3, 2})
	if g.InsertAt(0) || g.DupAt(1) != 4 || !g.InsertAt(2) || g.TupleAt(0, 0).Vals[0].Int() != 80 {
		t.Fatal("Gather lost the side lanes")
	}
	b.Truncate(3)
	if b.NumRows() != 3 || !b.InsertAt(2) || len(b.Dup) != 3 {
		t.Fatal("Truncate left the side lanes behind")
	}
}
