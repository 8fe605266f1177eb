package core

import (
	"testing"

	"viewmat/internal/exec"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

func newTestMatView(t testing.TB) *MatView {
	t.Helper()
	d := storage.NewDisk(512)
	p := storage.NewArena(d, 128).NewPool(storage.NewMeter())
	out := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("v", tuple.String))
	mv, err := NewMatView(d, p, "v", out, 0)
	if err != nil {
		t.Fatal(err)
	}
	matPools[mv] = p
	return mv
}

// matPools holds the pool each test's MatView is driven through.
var matPools = map[*MatView]*storage.Pool{}

// testPool returns the pool the test drives mv through.
func testPool(mv *MatView) *storage.Pool { return matPools[mv] }

// matRow is a distinct stored row and its duplicate count.
type matRow struct {
	Vals  []tuple.Value
	Count int64
}

// insertDelta adds one source occurrence of row: an ApplyDeltaRun of one
// insert under the fresh id id.
func insertDelta(mv *MatView, row []tuple.Value, id uint64) error {
	_, err := mv.ApplyDeltaRun(testPool(mv), [][]tuple.Value{row}, nil, []uint64{id})
	return err
}

// deleteDelta removes one source occurrence of row: an ApplyDeltaRun of
// one delete.
func deleteDelta(mv *MatView, row []tuple.Value) error {
	_, err := mv.ApplyDeltaRun(testPool(mv), [][]tuple.Value{row}, []int8{-1}, []uint64{0})
	return err
}

// scanMat drains the view's stored-copy scan: distinct rows with their
// counts, or with expand one row per logical duplicate.
func scanMat(t testing.TB, mv *MatView, rg *pred.Range, expand bool) []matRow {
	t.Helper()
	batches, err := exec.Drain(mv.scanOp(exec.Options{Pool: testPool(mv)}, exec.Label{"MatScan"}, rg, expand))
	if err != nil {
		t.Fatal(err)
	}
	rows := exec.LiveRows(batches)
	out := make([]matRow, len(rows))
	for i, r := range rows {
		out[i] = matRow{Vals: r.T0.Vals, Count: r.Dup}
	}
	return out
}

func TestMatViewInsertIncrementsDupCount(t *testing.T) {
	mv := newTestMatView(t)
	row := []tuple.Value{tuple.I(1), tuple.S("x")}
	for i := 0; i < 3; i++ {
		if err := insertDelta(mv, row, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if mv.DistinctRows() != 1 {
		t.Errorf("DistinctRows = %d, want 1 (duplicates collapsed)", mv.DistinctRows())
	}
	rows := scanMat(t, mv, nil, false)
	if len(rows) != 1 || rows[0].Count != 3 || len(rows[0].Vals) != 2 {
		t.Errorf("rows = %v", rows)
	}
	if total := len(scanMat(t, mv, nil, true)); total != 3 {
		t.Errorf("expanded scan = %d rows, want the logical cardinality 3", total)
	}
}

func TestMatViewDeleteDecrementsAndRemoves(t *testing.T) {
	mv := newTestMatView(t)
	row := []tuple.Value{tuple.I(1), tuple.S("x")}
	insertDelta(mv, row, 1)
	insertDelta(mv, row, 2)
	if err := deleteDelta(mv, row); err != nil {
		t.Fatal(err)
	}
	rows := scanMat(t, mv, nil, false)
	if len(rows) != 1 || rows[0].Count != 1 {
		t.Errorf("after one delete rows = %v", rows)
	}
	if err := deleteDelta(mv, row); err != nil {
		t.Fatal(err)
	}
	rows = scanMat(t, mv, nil, false)
	if len(rows) != 0 {
		t.Errorf("after final delete rows = %v", rows)
	}
}

func TestMatViewDeleteUnderflowErrors(t *testing.T) {
	mv := newTestMatView(t)
	row := []tuple.Value{tuple.I(1), tuple.S("x")}
	if err := deleteDelta(mv, row); err == nil {
		t.Error("delete of absent row succeeded")
	}
	insertDelta(mv, row, 1)
	deleteDelta(mv, row)
	if err := deleteDelta(mv, row); err == nil {
		t.Error("duplicate-count underflow not detected")
	}
}

func TestMatViewDistinguishesRowsSharingKey(t *testing.T) {
	mv := newTestMatView(t)
	a := []tuple.Value{tuple.I(1), tuple.S("a")}
	b := []tuple.Value{tuple.I(1), tuple.S("b")}
	insertDelta(mv, a, 1)
	insertDelta(mv, b, 2)
	insertDelta(mv, a, 3)
	rows := scanMat(t, mv, pred.PointRange(tuple.I(1)), false)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	counts := map[string]int64{}
	for _, r := range rows {
		counts[r.Vals[1].Str()] = r.Count
	}
	if counts["a"] != 2 || counts["b"] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if err := deleteDelta(mv, b); err != nil {
		t.Fatal(err)
	}
	if err := deleteDelta(mv, b); err == nil {
		t.Error("second delete of b should underflow")
	}
}

func TestMatViewScanRange(t *testing.T) {
	mv := newTestMatView(t)
	for i := int64(0); i < 20; i++ {
		if err := insertDelta(mv, []tuple.Value{tuple.I(i), tuple.S("r")}, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	rows := scanMat(t, mv, pred.NewRange(tuple.I(5), tuple.I(9), true, true), false)
	if len(rows) != 5 {
		t.Errorf("range scan rows = %d, want 5", len(rows))
	}
	if mv.Pages() < 1 || mv.rel.IndexHeight() < 0 {
		t.Error("statistics accessors misbehaved")
	}
}

func TestMatViewValidatesSchema(t *testing.T) {
	mv := newTestMatView(t)
	if err := insertDelta(mv, []tuple.Value{tuple.I(1)}, 1); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := deleteDelta(mv, []tuple.Value{tuple.S("x"), tuple.S("y")}); err == nil {
		t.Error("wrong types accepted")
	}
}
