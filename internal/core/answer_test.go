package core

import (
	"slices"
	"testing"

	"viewmat/internal/pred"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// TestAnswerOwnsItsLanes: a read's answer is the executor batch its scan
// filled by copying rows out of the leaves' kept lanes, so it shares no
// lane with the kept lanes or with another answer. An answer kept across
// a second answer of the same range being written over, and across a
// commit that rewrites the leaves it came from (dropping their kept
// lanes), still holds the rows its query-modification twin answered;
// and the kept lanes still say what their pages say (every read through
// them in a test binary checks them against a fresh decode).
func TestAnswerOwnsItsLanes(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.CreateRelationBTree("r", spSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < 400; i++ {
		if _, err := tx.Insert("r", tuple.I(int64(i)), tuple.I(int64(i*2)), tuple.S(sName(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	def := func(name string) Def {
		return Def{Name: name, Kind: SelectProject, Relations: []string{"r"},
			Pred:    pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(300)}),
			Project: [][]int{{0, 1, 2}}, ViewKeyCol: 0}
	}
	if err := db.CreateView(def("v"), Immediate); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(def("twin"), QueryModification); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name   string
		lo, hi int64
	}{{"within one leaf", 20, 24}, {"across leaves", 50, 250}} {
		t.Run(c.name, func(t *testing.T) {
			rg := pred.NewRange(tuple.I(c.lo), tuple.I(c.hi), true, false)
			read := func(view string) Answer {
				t.Helper()
				a, err := db.QueryViewLanes(view, rg, nil)
				if err != nil {
					t.Fatalf("%s: %v", view, err)
				}
				return a
			}
			kept, twin := read("v"), read("twin").Rows()
			if int64(kept.N) != c.hi-c.lo {
				t.Fatalf("the range answered %d rows, want %d", kept.N, c.hi-c.lo)
			}
			sameRows(t, "the kept answer", kept.Rows(), twin)

			// Write over every lane of a second answer of the range.
			second := read("v")
			for col := range second.Cols {
				l := &second.Cols[col]
				for i := range l.Ints {
					l.Ints[i] = -1
				}
				for i := range l.Bytes {
					l.Bytes[i] = []byte("written")
				}
			}
			sameRows(t, "the kept answer after a second one was written over", kept.Rows(), twin)
			sameRows(t, "a third answer", read("v").Rows(), twin)

			// Rewrite every leaf the answer came from.
			tx := db.Begin()
			for k := c.lo; k < c.hi; k++ {
				if _, err := tx.Update("r", tuple.I(k), uint64(k+1), tuple.I(k), tuple.I(-k), tuple.S("new")); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			sameRows(t, "the kept answer after its leaves were rewritten", kept.Rows(), twin)
			sameRows(t, "an answer after the rewrite", read("v").Rows(), read("twin").Rows())
			if rows := read("v").Rows(); rows[0].Vals[2].Str() != "new" {
				t.Fatalf("the read after the rewrite answered %v", rows[0])
			}
		})
	}
}

// TestAnswerOfTakesOneDenseBatch: a read that yields one dense batch is
// answered with that batch's lanes, uncopied; any other shape — a
// selection, duplicate counts other than 1, several batches — is
// gathered once onto lanes sized for exactly its live rows.
func TestAnswerOfTakesOneDenseBatch(t *testing.T) {
	batch := func(lo, hi int64, dup []int64, sel []int) *vec.Batch {
		var src [2]vec.Col
		ids := make([]uint64, hi-lo)
		for k := lo; k < hi; k++ {
			src[0].Append(tuple.I(k))
			src[1].Append(tuple.S(sName(int(k))))
		}
		b := &vec.Batch{}
		if !b.AppendSlot0Rows(ids, src[:], 0, len(ids)) {
			t.Fatal("AppendSlot0Rows refused an empty batch")
		}
		b.Dup, b.Sel = dup, sel
		return b
	}
	for _, c := range []struct {
		name    string
		batches []*vec.Batch
		byDup   bool
		keys    []int64
	}{
		{"dense", []*vec.Batch{batch(0, 3, nil, nil)}, false, []int64{0, 1, 2}},
		{"dense, every Dup 1", []*vec.Batch{batch(0, 3, []int64{1, 1, 1}, nil)}, true, []int64{0, 1, 2}},
		{"selected", []*vec.Batch{batch(0, 3, nil, []int{0, 2})}, false, []int64{0, 2}},
		{"duplicated", []*vec.Batch{batch(0, 3, []int64{2, 0, 1}, nil)}, true, []int64{0, 0, 2}},
		{"two batches", []*vec.Batch{batch(0, 2, nil, nil), batch(5, 7, nil, []int{1})}, false, []int64{0, 1, 6}},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, err := answerOf("v", c.batches, true, c.byDup)
			if err != nil {
				t.Fatal(err)
			}
			var keys []int64
			for _, r := range a.Rows() {
				if r.Vals[1].Str() != sName(int(r.Vals[0].Int())) {
					t.Fatalf("row %v: its cells came apart", r)
				}
				keys = append(keys, r.Vals[0].Int())
			}
			if !slices.Equal(keys, c.keys) || a.N != len(c.keys) {
				t.Fatalf("answered %d rows, keys %v; want %v", a.N, keys, c.keys)
			}
			b := c.batches[0]
			taken := &a.Cols[0].Ints[0] == &b.Slots[0][0].Ints[0]
			if dense := len(c.batches) == 1 && b.Dense(c.byDup); taken != dense {
				t.Fatalf("dense %v, but the answer took the batch's lanes: %v", dense, taken)
			}
			if ints, strs := cap(a.Cols[0].Ints), cap(a.Cols[1].Bytes); !taken && (ints != a.N || strs != a.N) {
				t.Errorf("gathered onto lanes of %d and %d cells for %d rows", ints, strs, a.N)
			}
		})
	}
}

// TestAnswerRepeatedColumnOwnsItsLane: a view projecting one column
// twice answers with two columns, each on a lane of its own, so a
// caller writing one column's cells reads the other's unchanged — for
// a query-modification view, whose projection names one executor lane
// twice, as for a materialized one.
func TestAnswerRepeatedColumnOwnsItsLane(t *testing.T) {
	for _, strategy := range []Strategy{QueryModification, Immediate} {
		t.Run(strategy.String(), func(t *testing.T) {
			db := newTestDB(t)
			if _, err := db.CreateRelationBTree("r", spSchema(), 0); err != nil {
				t.Fatal(err)
			}
			tx := db.Begin()
			for i := 0; i < 40; i++ {
				if _, err := tx.Insert("r", tuple.I(int64(i)), tuple.I(int64(i*2)), tuple.S(sName(i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			def := Def{Name: "v", Kind: SelectProject, Relations: []string{"r"},
				Pred:    pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(30)}),
				Project: [][]int{{1, 1}}, ViewKeyCol: 0}
			if err := db.CreateView(def, strategy); err != nil {
				t.Fatal(err)
			}
			a, err := db.QueryViewLanes("v", pred.NewRange(tuple.I(40), tuple.I(48), true, false), nil)
			if err != nil {
				t.Fatal(err)
			}
			if a.N != 4 || len(a.Cols) != 2 {
				t.Fatalf("the answer has %d rows of %d columns, want 4 of 2", a.N, len(a.Cols))
			}
			for i := range a.Cols[0].Ints {
				a.Cols[0].Ints[i] = -1
			}
			for i := 0; i < a.N; i++ {
				if got, want := a.Cols[1].Value(i), tuple.I(int64(2*(20+i))); tuple.Compare(got, want) != 0 {
					t.Fatalf("row %d: the second column reads %v after the first was written over, want %v", i, got, want)
				}
			}
		})
	}
}
