package vec

import (
	"math"
	"testing"

	"viewmat/internal/tuple"
)

func tp(id uint64, vals ...tuple.Value) tuple.Tuple {
	return tuple.Tuple{ID: id, Vals: vals}
}

func TestTryAppendEstablishesShapeAndSplits(t *testing.T) {
	b := &Batch{}
	t1 := tp(1, tuple.I(10), tuple.S("a"))
	t2 := tp(2, tuple.I(20), tuple.S("b"))
	if !b.TryAppend(&t1, nil, nil, true, 3, 4) {
		t.Fatal("first append rejected")
	}
	if !b.TryAppend(&t2, nil, nil, false, 0, 4) {
		t.Fatal("same-shape append rejected")
	}
	// Arity change must split, not corrupt the lanes.
	t3 := tp(3, tuple.I(30))
	if b.TryAppend(&t3, nil, nil, true, 0, 4) {
		t.Fatal("arity-changing append accepted")
	}
	// Adding an out row to a slot-only batch must split too.
	if b.TryAppend(&t2, nil, []tuple.Value{tuple.I(1)}, true, 0, 4) {
		t.Fatal("out-adding append accepted")
	}
	if b.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", b.NumRows())
	}
	got := b.TupleAt(0, 0)
	if got.ID != 1 || !tuple.Equal(got.Vals[1], tuple.S("a")) {
		t.Fatalf("TupleAt(0,0) = %+v", got)
	}
	if !b.InsertAt(0) || b.InsertAt(1) {
		t.Fatal("polarity lanes wrong")
	}
	if b.DupAt(0) != 3 {
		t.Fatalf("DupAt(0) = %d", b.DupAt(0))
	}
	// Capacity cap.
	full := &Batch{}
	if !full.TryAppend(&t1, nil, nil, true, 0, 1) {
		t.Fatal("append under cap rejected")
	}
	if full.TryAppend(&t2, nil, nil, true, 0, 1) {
		t.Fatal("append past cap accepted")
	}
}

func TestTupleAtAbsentSlotIsZero(t *testing.T) {
	b := &Batch{}
	t1 := tp(7, tuple.I(1))
	b.TryAppend(&t1, nil, nil, true, 0, 4)
	z := b.TupleAt(1, 0)
	if z.ID != 0 || z.Vals != nil {
		t.Fatalf("absent slot gave %+v, want zero tuple", z)
	}
}

func TestGatherAndCompact(t *testing.T) {
	b := &Batch{}
	for i := 0; i < 5; i++ {
		ti := tp(uint64(i+1), tuple.I(int64(i)), tuple.F(float64(i)/2))
		b.TryAppend(&ti, nil, []tuple.Value{tuple.I(int64(i * 10))}, i%2 == 0, int64(i), 8)
	}
	b.Sel = []int{1, 3}
	if b.LiveCount() != 2 || b.LiveIndex(1) != 3 {
		t.Fatalf("selection views wrong: count=%d", b.LiveCount())
	}
	c := b.Compact()
	if c.NumRows() != 2 || c.Sel != nil {
		t.Fatalf("Compact gave %d rows, sel=%v", c.NumRows(), c.Sel)
	}
	for k, src := range []int{1, 3} {
		want := b.TupleAt(0, src)
		got := c.TupleAt(0, k)
		if got.ID != want.ID || !tuple.Equal(got.Vals[0], want.Vals[0]) {
			t.Fatalf("row %d: got %+v want %+v", k, got, want)
		}
		if c.InsertAt(k) != b.InsertAt(src) || c.DupAt(k) != b.DupAt(src) {
			t.Fatalf("row %d: polarity/dup lanes diverged", k)
		}
		if !tuple.Equal(c.OutAt(k)[0], b.OutAt(src)[0]) {
			t.Fatalf("row %d: out lane diverged", k)
		}
	}
	// Compact with no selection returns the batch itself.
	if c2 := c.Compact(); c2 != c {
		t.Fatal("Compact without selection copied")
	}
}

func TestColFloat64MirrorsAsFloat(t *testing.T) {
	var c Col
	c.Append(tuple.I(3))
	c.Append(tuple.F(1.5))
	c.Append(tuple.S("x"))
	if c.Float64(0) != 3 || c.Float64(1) != 1.5 {
		t.Fatalf("numeric Float64 wrong: %v %v", c.Float64(0), c.Float64(1))
	}
	if !math.IsNaN(c.Float64(2)) {
		t.Fatalf("string Float64 = %v, want NaN", c.Float64(2))
	}
	if _, ok := c.Uniform(); ok {
		t.Fatal("mixed column reported uniform")
	}
}

func TestSetOutReplacesProjection(t *testing.T) {
	b := &Batch{}
	t1 := tp(1, tuple.I(5))
	b.TryAppend(&t1, nil, nil, true, 0, 4)
	if b.HasOut() || b.OutAt(0) != nil {
		t.Fatal("fresh batch has an out projection")
	}
	var c Col
	c.Append(tuple.S("proj"))
	b.SetOut([]Col{c})
	if !b.HasOut() || !tuple.Equal(b.OutAt(0)[0], tuple.S("proj")) {
		t.Fatalf("OutAt = %v", b.OutAt(0))
	}
}

// A scan's filled batches reach the executor through AppendFilled: the
// rows a fill holding no survivor dropped ride on the batch before it,
// so no empty batch follows one with rows, and none is lost.
func TestAppendFilledCarriesDroppedRows(t *testing.T) {
	full := func(dropped int) *Batch {
		b := &Batch{Dropped: dropped}
		t1 := tp(1, tuple.I(5))
		b.TryAppend(&t1, nil, nil, false, 0, 4)
		return b
	}
	out := AppendFilled(nil, &Batch{})
	if len(out) != 0 {
		t.Fatalf("an empty fill was kept: %d batches", len(out))
	}
	out = AppendFilled(out, &Batch{Dropped: 3}) // nothing ahead to ride on
	out = AppendFilled(out, full(2))
	out = AppendFilled(out, &Batch{Dropped: 4})
	out = AppendFilled(out, &Batch{})
	if len(out) != 2 || out[0].NumRows() != 0 || out[0].Dropped != 3 || out[1].NumRows() != 1 || out[1].Dropped != 6 {
		t.Fatalf("batches: %d, first %d rows + %d dropped", len(out), out[0].NumRows(), out[0].Dropped)
	}
}

// Compare orders an unboxed cell exactly as tuple.Compare orders the
// boxed one, across types and with NaN, ±0 and ±Inf on either side.
func TestColCompareMatchesTupleCompare(t *testing.T) {
	vals := []tuple.Value{
		tuple.I(math.MinInt64), tuple.I(-1), tuple.I(0), tuple.I(7), tuple.I(math.MaxInt64),
		tuple.F(math.NaN()), tuple.F(math.Inf(-1)), tuple.F(math.Copysign(0, -1)), tuple.F(0), tuple.F(2.5), tuple.F(math.Inf(1)),
		tuple.S(""), tuple.S("a"), tuple.S("ab"), tuple.S("b"),
	}
	var mixed Col
	for _, v := range vals {
		mixed.Append(v)
	}
	for i, a := range vals {
		var uniform Col
		uniform.Append(a)
		for _, b := range vals {
			want := tuple.Compare(a, b)
			if got := mixed.Compare(i, b); got != want {
				t.Errorf("widened cell %v against %v: %d, tuple.Compare says %d", a, b, got, want)
			}
			if got := uniform.Compare(0, b); got != want {
				t.Errorf("uniform cell %v against %v: %d, tuple.Compare says %d", a, b, got, want)
			}
		}
	}
}

// A reserved batch takes rows by either path — a run appended by
// AppendSlot0Rows, then whole rows grown onto its lanes and installed
// by SetSlot0 — into the lanes Reserve allocated: the id lane and the
// lane of each column's type, none of them regrown.
func TestReserveGrowsNoLane(t *testing.T) {
	src := []Col{{}, {}}
	for i := 0; i < 10; i++ {
		src[0].Append(tuple.I(int64(i)))
		src[1].Append(tuple.S("x"))
	}
	ids := make([]uint64, 10)
	b := &Batch{}
	b.Reserve(src, 40)
	if b.HasSlot(0) || b.NumRows() != 0 {
		t.Fatal("Reserve set a shape or rows")
	}
	idLane, intLane, strLane := b.IDs[0][:1], b.Slots[0][0].Ints[:1], b.Slots[0][1].Bytes[:1]
	for lo := 0; lo < 10; lo += 5 {
		if !b.AppendSlot0Rows(ids, src, lo, lo+5) {
			t.Fatal("AppendSlot0Rows refused the reserved batch")
		}
	}
	for r := 0; r < 3; r++ {
		lanes, cols := append(b.IDs[0], ids...), b.Slots[0]
		copy(cols[0].GrowInts(10), src[0].Ints)
		copy(cols[1].GrowBytes(10), src[1].Bytes)
		if err := b.SetSlot0(lanes, cols); err != nil {
			t.Fatal(err)
		}
	}
	if b.NumRows() != 40 {
		t.Fatalf("%d rows, want 40", b.NumRows())
	}
	if &idLane[0] != &b.IDs[0][0] || &intLane[0] != &b.Slots[0][0].Ints[0] || &strLane[0] != &b.Slots[0][1].Bytes[0] {
		t.Error("40 rows onto a batch reserved for 40 regrew a lane")
	}
}
