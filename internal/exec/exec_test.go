package exec

import (
	"fmt"
	"testing"

	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// gathered is Drain's answer gathered back to rows.
func gathered(batches []*vec.Batch, err error) ([]Row, error) {
	return LiveRows(batches), err
}

func tp(id uint64, vals ...int64) tuple.Tuple {
	t := tuple.Tuple{ID: id}
	for _, v := range vals {
		t.Vals = append(t.Vals, tuple.I(v))
	}
	return t
}

func TestDeltaSourcePolarityAndOrder(t *testing.T) {
	src := NewDeltaSource(Options{}, "r", []tuple.Tuple{tp(1, 10), tp(2, 20)}, []tuple.Tuple{tp(3, 30)})
	rows, err := gathered(Drain(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for i, want := range []struct {
		id     uint64
		insert bool
	}{{1, true}, {2, true}, {3, false}} {
		if rows[i].T0.ID != want.id || rows[i].Insert != want.insert {
			t.Errorf("row %d = (id=%d insert=%v), want (id=%d insert=%v)",
				i, rows[i].T0.ID, rows[i].Insert, want.id, want.insert)
		}
	}
	if got := src.Stats().RowsOut; got != 3 {
		t.Errorf("RowsOut = %d, want 3", got)
	}
	if got := src.Stats().Batches; got != 1 {
		t.Errorf("Batches = %d, want 1", got)
	}
}

func TestFilterChargesOneScreenPerInputRow(t *testing.T) {
	for _, bs := range []int{0, 1} {
		m := storage.NewMeter()
		o := Options{Meter: m, BatchSize: bs}
		src := NewDeltaSource(o, "r", []tuple.Tuple{tp(1, 5), tp(2, 15), tp(3, 25)}, nil)
		f := NewFilter(o, Label{"keep>10"}, src, Pred{P: pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Gt, Val: tuple.I(10)})}, true)
		rows, err := gathered(Drain(f))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Errorf("bs=%d: rows = %d, want 2", bs, len(rows))
		}
		if got := m.Snapshot().Screens; got != 3 {
			t.Errorf("bs=%d: meter screens = %d, want 3 (every input row)", bs, got)
		}
		if got := f.Stats().Cost.Screens; got != 3 {
			t.Errorf("bs=%d: operator screens = %d, want 3", bs, got)
		}
	}
}

func TestVectorizedFilterMatchesRowSemantics(t *testing.T) {
	// Mixed-type column: tuple.Compare orders Int < Float < String, and
	// the vectorized kernel must reproduce that tag ordering exactly, at
	// one row a batch as at the default cap. The case is the filter
	// fuzzer's first seed.
	got := checkFilter(t, decodeFilter(filterSeeds()[0]))
	// Floats and strings both outrank the Int constant's type tag.
	if fmt.Sprint(got) != "[2 3 4]" {
		t.Errorf("ids = %v, want [2 3 4]", got)
	}
}

func TestUnchargedFilterChargesNothing(t *testing.T) {
	m := storage.NewMeter()
	o := Options{Meter: m}
	src := NewDeltaSource(o, "r", []tuple.Tuple{tp(1, 5)}, nil)
	f := NewFilter(o, Label{"pass"}, src, Pred{}, false)
	if _, err := Drain(f); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Screens; got != 0 {
		t.Errorf("meter screens = %d, want 0", got)
	}
}

func TestSeqOpensInputsLazily(t *testing.T) {
	var order []string
	gen := func(name string, n int) *MemSource {
		return NewFuncSource(Options{BatchSize: 1}, Label{name}, func() ([]Row, error) {
			order = append(order, name)
			rows := make([]Row, n)
			return rows, nil
		})
	}
	seq := NewSeq(Label{"phases"}, gen("first", 2), gen("second", 1))
	if err := seq.Open(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 0 {
		t.Fatalf("Open ran generators eagerly: %v", order)
	}
	// Pull the first input's single-row batches; the second generator
	// must not have run until the first is exhausted.
	for i := 0; i < 2; i++ {
		if b, err := seq.NextBatch(); err != nil || b == nil {
			t.Fatalf("NextBatch %d: b=%v err=%v", i, b, err)
		}
		if len(order) != 1 || order[0] != "first" {
			t.Fatalf("after batch %d generators run = %v, want [first]", i, order)
		}
	}
	if b, err := seq.NextBatch(); err != nil || b == nil {
		t.Fatalf("third batch: b=%v err=%v", b, err)
	}
	if len(order) != 2 || order[1] != "second" {
		t.Errorf("generators run = %v, want [first second]", order)
	}
	if b, _ := seq.NextBatch(); b != nil {
		t.Error("Seq produced batches past its inputs")
	}
	if err := seq.Close(); err != nil {
		t.Fatal(err)
	}
}

// The corrected expansion's cross terms are two MatchDeltas: the A1 rows
// against adds = A2 (inserts), then the D1 rows against dels = D2
// (deletes). An A1 row matching a D2 tuple, or a D1 row an A2 tuple,
// joins nothing, whatever its polarity.
func TestMatchDeltasEmitsCrossTermPairs(t *testing.T) {
	a1, a2 := []tuple.Tuple{tp(1, 5)}, []tuple.Tuple{tp(2, 5), tp(3, 6)}
	d1, d2 := []tuple.Tuple{tp(4, 6)}, []tuple.Tuple{tp(5, 6), tp(6, 5)}
	o := Options{}
	cross := NewSeq(Label{"cross"},
		NewMatchDeltas(o, NewDeltaSource(o, "a1", a1, nil), a2, nil, 0, 0, 0),
		NewMatchDeltas(o, NewDeltaSource(o, "d1", nil, d1), nil, d2, 0, 0, 0))
	rows, err := gathered(Drain(cross))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (one joined insert, one joined delete)", len(rows))
	}
	if !rows[0].Insert || rows[0].T0.ID != 1 || rows[0].T1.ID != 2 {
		t.Errorf("first row = %+v, want A1×A2 insert", rows[0])
	}
	if rows[1].Insert || rows[1].T0.ID != 4 || rows[1].T1.ID != 5 {
		t.Errorf("second row = %+v, want D1×D2 delete", rows[1])
	}
	if c := Capture(cross).TotalCost(); c != (storage.Stats{}) {
		t.Errorf("cross terms charged %+v, want nothing", c)
	}
}

func TestMatchDeltasFlatScreensAndPolarity(t *testing.T) {
	m := storage.NewMeter()
	o := Options{Meter: m}
	outer := NewFuncSource(o, Label{"r1"}, func() ([]Row, error) {
		return []Row{{T0: tp(1, 7)}}, nil
	})
	md := NewMatchDeltas(o, outer,
		[]tuple.Tuple{tp(2, 7)}, []tuple.Tuple{tp(3, 7), tp(4, 8)}, 0, 0, 5)
	rows, err := gathered(Drain(md))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (add match then del match)", len(rows))
	}
	if !rows[0].Insert || rows[0].T1.ID != 2 {
		t.Errorf("first match = %+v, want insert of A2 tuple", rows[0])
	}
	if rows[1].Insert || rows[1].T1.ID != 3 {
		t.Errorf("second match = %+v, want delete of D2 tuple", rows[1])
	}
	if screens := md.Stats().Cost.Screens; screens != 5 {
		t.Errorf("flat screens = %d, want 5", screens)
	}
}

func TestDeltaApplyRoutesByPolarity(t *testing.T) {
	var ins, del []uint64
	calls := 0
	src := NewDeltaSource(Options{}, "r", []tuple.Tuple{tp(1, 1)}, []tuple.Tuple{tp(2, 2)})
	da := NewDeltaApply(Options{}, Label{"v"}, src,
		func(rows []Row) error {
			calls++
			for _, r := range rows {
				if r.Insert {
					ins = append(ins, r.T0.ID)
				} else {
					del = append(del, r.T0.ID)
				}
			}
			return nil
		})
	if err := Run(da); err != nil {
		t.Fatal(err)
	}
	if len(ins) != 1 || ins[0] != 1 || len(del) != 1 || del[0] != 2 {
		t.Errorf("ins=%v del=%v, want ins=[1] del=[2]", ins, del)
	}
	if calls != 1 {
		t.Errorf("%d apply calls, want 1: a batch's rows go to one call, both polarities", calls)
	}
}

func TestDeltaApplyStopsAtFirstError(t *testing.T) {
	var applied []uint64
	src := NewDeltaSource(Options{}, "r", []tuple.Tuple{tp(1, 1), tp(2, 2), tp(3, 3)}, nil)
	da := NewDeltaApply(Options{}, Label{"v"}, src,
		func(rows []Row) error {
			for _, r := range rows {
				if r.T0.ID == 2 {
					return fmt.Errorf("boom")
				}
				applied = append(applied, r.T0.ID)
			}
			return nil
		})
	if err := Run(da); err == nil {
		t.Fatal("expected error")
	}
	// Rows before the failing one were applied; rows after were not.
	if fmt.Sprint(applied) != "[1]" {
		t.Errorf("applied = %v, want [1] (prefix before error)", applied)
	}
}

func TestProjectColsGathersFromSlots(t *testing.T) {
	src := NewDeltaSource(Options{}, "r", []tuple.Tuple{tp(1, 10, 11), tp(2, 20, 21)}, nil)
	p := NewProjectCols(Options{}, Label{"v"}, src, [][2]int{{0, 1}, {0, 0}})
	rows, err := gathered(Drain(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0].Vals[0].Int() != 11 || rows[0].Vals[1].Int() != 10 {
		t.Errorf("row 0 vals = %v, want [11 10]", rows[0].Vals)
	}
	if !rows[0].Insert || rows[1].T0.ID != 2 {
		t.Errorf("projection must preserve polarity and bindings: %+v", rows)
	}
}

func TestTreeStatsSumEqualsMeterDelta(t *testing.T) {
	m := storage.NewMeter()
	o := Options{Meter: m}
	src := NewDeltaSource(o, "r", []tuple.Tuple{tp(1, 5), tp(2, 15)}, []tuple.Tuple{tp(3, 25)})
	f := NewFilter(o, Label{"all"}, src, Pred{}, true)
	md := NewMatchDeltas(o, f, nil, nil, 0, 0, 4)
	before := m.Snapshot()
	if err := Run(md); err != nil {
		t.Fatal(err)
	}
	delta := m.Snapshot().Sub(before)
	total := Capture(md).TotalCost()
	if total != delta {
		t.Errorf("tree cost %+v != meter delta %+v", total, delta)
	}
}

func TestCaptureAndRender(t *testing.T) {
	m := storage.NewMeter()
	o := Options{Meter: m}
	src := NewDeltaSource(o, "r", []tuple.Tuple{tp(1, 5)}, nil)
	f := NewFilter(o, Label{"v"}, src, Pred{}, true)
	if err := Run(f); err != nil {
		t.Fatal(err)
	}
	n := Capture(f)
	if n.Name != "Screen(v)" || len(n.Children) != 1 {
		t.Fatalf("capture = %+v", n)
	}
	if n.Stats.Batches != 1 {
		t.Errorf("batches = %d, want 1", n.Stats.Batches)
	}
	out := Render(n, 1, 30, 1)
	if out == "" {
		t.Fatal("empty render")
	}
}
