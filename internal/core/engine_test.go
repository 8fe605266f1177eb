package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/tuple/tupletest"
)

func testOpts() Options {
	return Options{PageSize: 512, PoolFrames: 64}
}

// newTestDB builds a Database on testOpts and registers the pin-leak
// check: when the test finishes, no pool frame may still be pinned.
func newTestDB(t testing.TB) *Database {
	t.Helper()
	db := NewDatabase(testOpts())
	t.Cleanup(func() { db.assertUnpinned(t) })
	return db
}

// queryPlan is QueryView under an explicit query-modification plan.
func queryPlan(db *Database, name string, rg *pred.Range, plan QueryPlan) ([]ResultRow, error) {
	ans, err := db.QueryViewLanes(name, rg, &plan)
	return ans.Rows(), err
}

// spSchema: r(k INT, a INT, s STRING) clustered on k.
func spSchema() *tuple.Schema {
	return tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("s", tuple.String))
}

// spDef defines V = π(k, s) σ(10 ≤ k < 30)(r).
func spDef(name string) Def {
	return Def{
		Name:      name,
		Kind:      SelectProject,
		Relations: []string{"r"},
		Pred: pred.New(
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(10)},
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(30)},
		),
		Project:    [][]int{{0, 2}},
		ViewKeyCol: 0,
	}
}

// newSPDatabase builds a database with relation r, n seed tuples
// (k = i, a = i*2, s = "s<i%7>"), and one view of the given strategy.
func newSPDatabase(t testing.TB, strategy Strategy, n int) *Database {
	t.Helper()
	db := newTestDB(t)
	if _, err := db.CreateRelationBTree("r", spSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < n; i++ {
		if _, err := tx.Insert("r", tuple.I(int64(i)), tuple.I(int64(i*2)), tuple.S(sName(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(spDef("v"), strategy); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	return db
}

func sName(i int) string { return string(rune('a' + i%7)) }

func rowKeys(rows []ResultRow) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = tupletest.Key(r.Vals)
	}
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, label string, a, b []ResultRow) {
	t.Helper()
	if err := diffRows(a, b); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

func TestSPViewInitialMaterialization(t *testing.T) {
	for _, st := range []Strategy{QueryModification, Immediate, Deferred} {
		db := newSPDatabase(t, st, 50)
		rows, err := db.QueryView("v", nil)
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if len(rows) != 20 {
			t.Errorf("%v: got %d rows, want 20", st, len(rows))
		}
		for _, r := range rows {
			k := r.Vals[0].Int()
			if k < 10 || k >= 30 {
				t.Errorf("%v: out-of-predicate row %v", st, r)
			}
			if len(r.Vals) != 2 {
				t.Errorf("%v: projection arity %d", st, len(r.Vals))
			}
		}
	}
}

func TestSPViewStrategiesAgreeUnderUpdates(t *testing.T) {
	dbs := map[Strategy]*Database{}
	for _, st := range []Strategy{QueryModification, Immediate, Deferred} {
		dbs[st] = newSPDatabase(t, st, 50)
	}
	// Apply the same transactions everywhere: inserts into and out of
	// the predicate range, deletes, updates that move tuples across
	// the predicate boundary.
	mutate := func(db *Database) error {
		tx := db.Begin()
		if _, err := tx.Insert("r", tuple.I(15), tuple.I(1), tuple.S("new-in")); err != nil {
			return err
		}
		if _, err := tx.Insert("r", tuple.I(99), tuple.I(1), tuple.S("new-out")); err != nil {
			return err
		}
		if err := tx.Delete("r", tuple.I(12), 13); err != nil { // id 13 seeded k=12
			return err
		}
		// Move k=5 (outside) to k=20 (inside).
		if _, err := tx.Update("r", tuple.I(5), 6, tuple.I(20), tuple.I(10), tuple.S("moved-in")); err != nil {
			return err
		}
		// Move k=25 (inside) to k=40 (outside).
		if _, err := tx.Update("r", tuple.I(25), 26, tuple.I(40), tuple.I(50), tuple.S("moved-out")); err != nil {
			return err
		}
		return tx.Commit()
	}
	for st, db := range dbs {
		if err := mutate(db); err != nil {
			t.Fatalf("%v: mutate: %v", st, err)
		}
	}
	want, err := dbs[QueryModification].QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Expected contents: seeds 10..29 minus {12} minus {25} plus {15, 20}.
	if len(want) != 20 {
		t.Fatalf("qm rows = %d, want 20", len(want))
	}
	for _, st := range []Strategy{Immediate, Deferred} {
		got, err := dbs[st].QueryView("v", nil)
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		sameRows(t, st.String(), got, want)
	}
}

func TestSPViewRangeQueries(t *testing.T) {
	for _, st := range []Strategy{QueryModification, Immediate, Deferred} {
		db := newSPDatabase(t, st, 50)
		rows, err := db.QueryView("v", pred.NewRange(tuple.I(10), tuple.I(14), true, true))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 5 {
			t.Errorf("%v: range rows = %d, want 5", st, len(rows))
		}
	}
}

func TestDeferredRefreshHappensAtQueryTime(t *testing.T) {
	db := newSPDatabase(t, Deferred, 50)
	tx := db.Begin()
	if _, err := tx.Insert("r", tuple.I(11), tuple.I(0), tuple.S("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	h, _ := db.HR("r")
	if h.ADLen() == 0 {
		t.Fatal("commit did not populate AD")
	}
	bd := db.Breakdown()
	if bd[PhaseDefRefresh].IOs() != 0 {
		t.Error("deferred refresh ran before any query")
	}
	rows, err := db.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 21 {
		t.Errorf("rows = %d, want 21", len(rows))
	}
	if h.ADLen() != 0 {
		t.Error("query did not fold AD")
	}
	bd = db.Breakdown()
	if bd[PhaseADRead].Reads == 0 {
		t.Error("no AD read charged")
	}
	if bd[PhaseDefRefresh] == (bd[PhaseDefRefresh].Sub(bd[PhaseDefRefresh])) {
		t.Error("no deferred refresh cost recorded")
	}
	// Second query with no pending changes refreshes nothing new.
	before := db.Breakdown()[PhaseADRead]
	if _, err := db.QueryView("v", nil); err != nil {
		t.Fatal(err)
	}
	if db.Breakdown()[PhaseADRead] != before {
		t.Error("idle query re-read AD")
	}
}

func TestImmediateRefreshHappensAtCommit(t *testing.T) {
	db := newSPDatabase(t, Immediate, 50)
	tx := db.Begin()
	tx.Insert("r", tuple.I(11), tuple.I(0), tuple.S("x"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	bd := db.Breakdown()
	if bd[PhaseImmRefresh].IOs() == 0 {
		t.Error("commit did not refresh the immediate view")
	}
	if bd[PhaseImmRefresh].ADTouches == 0 {
		t.Error("no C3 overhead charged for marked tuples")
	}
	// A non-matching insert is screened but does not refresh.
	before := db.Breakdown()[PhaseImmRefresh]
	tx = db.Begin()
	tx.Insert("r", tuple.I(500), tuple.I(0), tuple.S("y"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.Breakdown()[PhaseImmRefresh]; got != before {
		t.Errorf("non-matching insert refreshed the view: %v -> %v", before, got)
	}
}

func TestScreeningCostCharged(t *testing.T) {
	db := newSPDatabase(t, Immediate, 50)
	tx := db.Begin()
	tx.Insert("r", tuple.I(15), tuple.I(0), tuple.S("in"))   // stage 2 runs
	tx.Insert("r", tuple.I(500), tuple.I(0), tuple.S("out")) // stage 1 rejects
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.Breakdown()[PhaseScreen].Screens; got != 1 {
		t.Errorf("screen charges = %d, want 1 (only in-interval tuple)", got)
	}
}

func TestQueryModificationPlans(t *testing.T) {
	db := newSPDatabase(t, QueryModification, 200)
	if err := db.CreateSecondaryIndex("r", 1); err != nil {
		t.Fatal(err)
	}
	want, err := queryPlan(db, "v", nil, PlanClustered)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := queryPlan(db, "v", nil, PlanSequential)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "sequential", seq, want)

	db.ResetStats()
	if _, err := queryPlan(db, "v", nil, PlanClustered); err != nil {
		t.Fatal(err)
	}
	clusteredIO := db.Breakdown()[PhaseQuery].Reads
	db.ResetStats()
	if _, err := queryPlan(db, "v", nil, PlanSequential); err != nil {
		t.Fatal(err)
	}
	seqIO := db.Breakdown()[PhaseQuery].Reads
	if clusteredIO >= seqIO {
		t.Errorf("clustered scan (%d reads) should beat sequential (%d reads)", clusteredIO, seqIO)
	}
}

// A sequential scan reads every page holding a row its screen keeps,
// NaN or no NaN. When tuple.Compare called a NaN equal to every value, a
// page whose first Float cell was NaN stored the zone [NaN, NaN], and
// the scan pruned it for f < 0 though it held −3; under
// tuple.CompareFloat the zone is [−3, NaN].
func TestSequentialScanReadsPageWithNaN(t *testing.T) {
	db := newTestDB(t)
	schema := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("f", tuple.Float))
	if _, err := db.CreateRelationBTree("r", schema, 0); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for k, f := range []float64{math.NaN(), -3, 2, 5, math.NaN(), 8} {
		if _, err := tx.Insert("r", tuple.I(int64(k)), tuple.F(f)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	def := Def{
		Name:       "neg",
		Kind:       SelectProject,
		Relations:  []string{"r"},
		Pred:       pred.New(pred.Cmp{Rel: 0, Col: 1, Op: pred.Lt, Val: tuple.F(0)}),
		Project:    [][]int{{0, 1}},
		ViewKeyCol: 0,
	}
	if err := db.CreateView(def, QueryModification); err != nil {
		t.Fatal(err)
	}
	rows, err := queryPlan(db, "neg", nil, PlanSequential)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Vals[0].Int() != 1 || rows[0].Vals[1].Float() != -3 {
		t.Fatalf("f < 0 by a sequential scan: %v, want the one row (1, -3)", rows)
	}
}

// --- join views -------------------------------------------------------------

func joinSchemas() (*tuple.Schema, *tuple.Schema) {
	r1 := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("jv", tuple.Int), tuple.Col("p", tuple.String))
	r2 := tuple.NewSchema(tuple.Col("jv", tuple.Int), tuple.Col("info", tuple.String))
	return r1, r2
}

func joinDef(name string) Def {
	return Def{
		Name:      name,
		Kind:      Join,
		Relations: []string{"r1", "r2"},
		Pred: pred.New(
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(100)},
			pred.JoinEq{LRel: 0, LCol: 1, RRel: 1, RCol: 0},
		),
		Project:    [][]int{{0, 2}, {1}},
		ViewKeyCol: 0,
	}
}

// newJoinDatabase seeds r1 with n tuples (k=i, jv=i%m) and r2 with m
// tuples (jv=j, info), then creates the join view.
func newJoinDatabase(t testing.TB, strategy Strategy, n, m int) *Database {
	t.Helper()
	db := newTestDB(t)
	s1, s2 := joinSchemas()
	if _, err := db.CreateRelationBTree("r1", s1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelationHash("r2", s2, 0, 8); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for j := 0; j < m; j++ {
		if _, err := tx.Insert("r2", tuple.I(int64(j)), tuple.S("info"+sName(j))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := tx.Insert("r1", tuple.I(int64(i)), tuple.I(int64(i%m)), tuple.S("p"+sName(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(joinDef("j"), strategy); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	return db
}

func TestJoinViewInitialContents(t *testing.T) {
	for _, st := range []Strategy{QueryModification, Immediate, Deferred} {
		db := newJoinDatabase(t, st, 60, 10)
		rows, err := db.QueryView("j", nil)
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if len(rows) != 60 { // every r1 tuple (k<100) joins exactly one r2 tuple
			t.Errorf("%v: rows = %d, want 60", st, len(rows))
		}
		for _, r := range rows {
			if len(r.Vals) != 3 {
				t.Fatalf("%v: arity %d", st, len(r.Vals))
			}
			if !strings.HasPrefix(r.Vals[2].Str(), "info") {
				t.Errorf("%v: missing r2 column: %v", st, r)
			}
		}
	}
}

// TestJoinMatchesSignedZeroThroughHashIndex joins r1's +0 to r2's −0 on
// a Float jv, r2 hashed into 7 buckets: tuple.Equal calls them equal, so
// every strategy answers the one row. The index once hashed the raw
// IEEE bits, which put −0 in another bucket than +0, and a QM join
// probing it for +0 answered nothing.
func TestJoinMatchesSignedZeroThroughHashIndex(t *testing.T) {
	for _, st := range paperThree {
		db := newTestDB(t)
		s1 := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("jv", tuple.Float), tuple.Col("p", tuple.String))
		s2 := tuple.NewSchema(tuple.Col("jv", tuple.Float), tuple.Col("info", tuple.String))
		if _, err := db.CreateRelationBTree("r1", s1, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateRelationHash("r2", s2, 0, 7); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateView(joinDef("j"), st); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		if _, err := tx.Insert("r2", tuple.F(math.Copysign(0, -1)), tuple.S("neg")); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Insert("r1", tuple.I(1), tuple.F(0), tuple.S("pos")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if rows, err := db.QueryView("j", nil); err != nil || len(rows) != 1 {
			t.Errorf("%v: +0 ⋈ −0 answers %v (%v), want one row", st, rows, err)
		}
	}
}

func TestJoinViewStrategiesAgreeUnderR1Updates(t *testing.T) {
	dbs := map[Strategy]*Database{}
	for _, st := range []Strategy{QueryModification, Immediate, Deferred} {
		dbs[st] = newJoinDatabase(t, st, 60, 10)
	}
	mutate := func(db *Database) error {
		tx := db.Begin()
		if _, err := tx.Insert("r1", tuple.I(70), tuple.I(3), tuple.S("new")); err != nil {
			return err
		}
		if err := tx.Delete("r1", tuple.I(5), 16); err != nil { // r1 ids start at 11 (after 10 r2 inserts)
			return err
		}
		if _, err := tx.Update("r1", tuple.I(6), 17, tuple.I(6), tuple.I(9), tuple.S("rejoined")); err != nil {
			return err
		}
		// Insert outside the Cf restriction: never enters the view.
		if _, err := tx.Insert("r1", tuple.I(500), tuple.I(2), tuple.S("outside")); err != nil {
			return err
		}
		return tx.Commit()
	}
	for st, db := range dbs {
		if err := mutate(db); err != nil {
			t.Fatalf("%v: %v", st, err)
		}
	}
	want, err := dbs[QueryModification].QueryView("j", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 60 { // 60 − 1 deleted + 1 inserted
		t.Fatalf("qm rows = %d", len(want))
	}
	for _, st := range []Strategy{Immediate, Deferred} {
		got, err := dbs[st].QueryView("j", nil)
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		sameRows(t, st.String(), got, want)
	}
}

func TestJoinViewStrategiesAgreeUnderR2Updates(t *testing.T) {
	// Extension beyond the paper's Model 2: the inner relation changes.
	dbs := map[Strategy]*Database{}
	for _, st := range []Strategy{QueryModification, Immediate, Deferred} {
		dbs[st] = newJoinDatabase(t, st, 30, 10)
	}
	mutate := func(db *Database) error {
		// r2 ids 1..10 seeded first; delete jv=4 (id 5), change info of
		// jv=7 (id 8).
		tx := db.Begin()
		if err := tx.Delete("r2", tuple.I(4), 5); err != nil {
			return err
		}
		if _, err := tx.Update("r2", tuple.I(7), 8, tuple.I(7), tuple.S("updated")); err != nil {
			return err
		}
		return tx.Commit()
	}
	for st, db := range dbs {
		if err := mutate(db); err != nil {
			t.Fatalf("%v: %v", st, err)
		}
	}
	want, _ := dbs[QueryModification].QueryView("j", nil)
	if len(want) != 27 { // 3 r1 tuples joined jv=4
		t.Fatalf("qm rows = %d, want 27", len(want))
	}
	for _, st := range []Strategy{Immediate, Deferred} {
		got, err := dbs[st].QueryView("j", nil)
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		sameRows(t, st.String(), got, want)
	}
}

func TestAppendixAAnomaly(t *testing.T) {
	// Appendix A: deleting a joining pair (t1 ∈ R1, t2 ∈ R2) in one
	// transaction makes Blakeley's expansion delete the join result
	// three times (D1×D2, D1×R2, R1×D2). With duplicate counts the
	// second decrement underflows. The corrected expansion deletes it
	// exactly once.
	fx := joinFx("appendix-a", 10, 10, 90, joinDef("j"))
	ref, err := fx.build(&referenceConfig)
	if err != nil {
		t.Fatal(err)
	}
	// The pair: r1's k=3 and r2's jv=3, which it joins.
	r1, r2 := ref.ref.rels["r1"], ref.ref.rels["r2"]
	d1, d2 := r1[3:4], r2[3:4]

	correct, err := fx.build(&engineConfig{name: "immediate", strategy: Immediate})
	if err != nil {
		t.Fatal(err)
	}
	tx := correct.db.Begin()
	if err := tx.Delete("r1", d1[0].Vals[0], d1[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("r2", d2[0].Vals[0], d2[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("corrected algorithm failed: %v", err)
	}
	rows, err := correct.db.QueryView("j", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Errorf("corrected: rows = %d, want 9", len(rows))
	}

	// The foil's delete rows, handed to the start-state view's own store.
	foil := blakeleyDeletes(fx.views[0], r1, r2, d1, d2)
	if len(foil) != 3 {
		t.Fatalf("foil deletes %d rows, want the pair's one row three times", len(foil))
	}
	buggy, err := fx.build(&engineConfig{name: "immediate", strategy: Immediate})
	if err != nil {
		t.Fatal(err)
	}
	vals, signs := make([][]tuple.Value, len(foil)), make([]int8, len(foil))
	for i, r := range foil {
		vals[i], signs[i] = r.Vals, -1
	}
	var applied int
	err = buggy.db.withPool(func(p *storage.Pool) (err error) {
		applied, err = buggy.db.views["j"].mat.ApplyDeltaRun(p, vals, signs, make([]uint64, len(foil)))
		return err
	})
	if err == nil {
		t.Fatal("the view's store took Blakeley's over-deletion")
	}
	if !strings.Contains(err.Error(), "duplicate-count underflow") {
		t.Errorf("unexpected error: %v", err)
	}
	if applied != 1 {
		t.Errorf("store applied %d of the foil's deletes, want 1 (the second underflows)", applied)
	}
}

// TestPropertyBlakeleyOverDeletesJoiningPairs holds Appendix A's claim
// on the reference side, over seeded random transactions on both
// relations of the Model-2 fixture: the foil's delete rows are the
// corrected expansion's — the view rows the plain-Go reference loses
// when the transaction's deletes leave the start state — exactly when
// no pair deleted together joins, and otherwise those and two more
// copies of each such pair's row (D1×D2 again inside D1×R2 and R1×D2).
func TestPropertyBlakeleyOverDeletesJoiningPairs(t *testing.T) {
	fx := twoSidedFx()
	d := fx.views[0]
	// minus is rel without the tuples of gone (by id).
	minus := func(rel, gone []tuple.Tuple) (out []tuple.Tuple) {
		ids := idSet(gone)
		for _, tp := range rel {
			if !ids[tp.ID] {
				out = append(out, tp)
			}
		}
		return out
	}
	count := func(into map[string]int, rows []ResultRow, times int) {
		for _, r := range rows {
			into[tupletest.Key(r.Vals)] += times
		}
	}
	var clean, paired int
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, err := fx.build(&referenceConfig)
		if err != nil {
			t.Fatal(err)
		}
		script, _ := genScript(rng, fx.keyStream(rng), len(fx.rels),
			phaseMix{rounds: 10, txEvery: 1, ops: [2]int{2, 6}, queries: 1})
		r1, r2 := slices.Clone(e.ref.rels["r1"]), slices.Clone(e.ref.rels["r2"])
		for i, s := range script {
			if err := e.apply(fx, s); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
			if s.op != "commit" {
				continue
			}
			end1, end2 := e.ref.rels["r1"], e.ref.rels["r2"]
			d1, d2 := minus(r1, end1), minus(r2, end2)
			pairs := refJoin(d, d1, d2)
			want, got := map[string]int{}, map[string]int{}
			count(want, refJoin(d, r1, r2), 1)
			count(want, refJoin(d, minus(r1, d1), minus(r2, d2)), -1)
			count(want, pairs, 2)
			count(got, blakeleyDeletes(d, r1, r2, d1, d2), 1)
			maps.DeleteFunc(want, func(_ string, n int) bool { return n == 0 })
			if !maps.Equal(got, want) {
				t.Fatalf("seed %d step %d (|D1| %d, |D2| %d, %d joining pairs): foil deletes %v, want %v",
					seed, i, len(d1), len(d2), len(pairs), got, want)
			}
			if len(pairs) == 0 {
				clean++
			} else {
				paired++
			}
			r1, r2 = slices.Clone(end1), slices.Clone(end2)
		}
	}
	if clean == 0 || paired == 0 {
		t.Fatalf("%d transactions without a joining pair deleted, %d with: the property needs both", clean, paired)
	}
	t.Logf("%d transactions without a joining pair deleted, %d with", clean, paired)
}

// --- aggregates --------------------------------------------------------------

func aggDef(name string, kind agg.Kind) Def {
	return Def{
		Name:      name,
		Kind:      Aggregate,
		Relations: []string{"r"},
		Pred: pred.New(
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(10)},
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(30)},
		),
		AggKind: kind,
		AggCol:  1,
	}
}

func newAggDatabase(t testing.TB, strategy Strategy, kind agg.Kind, n int) *Database {
	t.Helper()
	db := newTestDB(t)
	if _, err := db.CreateRelationBTree("r", spSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < n; i++ {
		if _, err := tx.Insert("r", tuple.I(int64(i)), tuple.I(int64(i*2)), tuple.S(sName(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(aggDef("sumv", kind), strategy); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	return db
}

func TestAggregateStrategiesAgree(t *testing.T) {
	for _, kind := range []agg.Kind{agg.Count, agg.Sum, agg.Avg, agg.Min, agg.Max} {
		vals := map[Strategy]float64{}
		for _, st := range []Strategy{QueryModification, Immediate, Deferred} {
			db := newAggDatabase(t, st, kind, 50)
			// Mutations: in-range insert, in-range delete, update moving out.
			tx := db.Begin()
			tx.Insert("r", tuple.I(15), tuple.I(1000), tuple.S("x"))
			tx.Delete("r", tuple.I(12), 13)
			tx.Update("r", tuple.I(20), 21, tuple.I(50), tuple.I(40), tuple.S("moved"))
			if err := tx.Commit(); err != nil {
				t.Fatalf("%v/%v: %v", kind, st, err)
			}
			v, ok, err := db.QueryAggregate("sumv")
			if err != nil || !ok {
				t.Fatalf("%v/%v: ok=%v err=%v", kind, st, ok, err)
			}
			vals[st] = v
		}
		if vals[Immediate] != vals[QueryModification] || vals[Deferred] != vals[QueryModification] {
			t.Errorf("%v: values diverge: %v", kind, vals)
		}
	}
}

func TestAggregateMinRecomputeOnExtremeDelete(t *testing.T) {
	db := newAggDatabase(t, Immediate, agg.Min, 50)
	// Min over a = 2k for k in [10,30) is 20 (tuple k=10, id 11).
	v, ok, _ := db.QueryAggregate("sumv")
	if !ok || v != 20 {
		t.Fatalf("initial MIN = %v ok=%v", v, ok)
	}
	tx := db.Begin()
	tx.Delete("r", tuple.I(10), 11)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, ok, _ = db.QueryAggregate("sumv")
	if !ok || v != 22 {
		t.Errorf("MIN after extreme delete = %v ok=%v, want 22", v, ok)
	}
}

// TestNonFiniteAggregates: MIN, MAX, SUM and AVG over {1} answer as the
// reference's textbook fold after a NaN or +Inf row joins and again
// after it leaves, on every strategy, scalar and grouped. Folding MIN
// and MAX with < and > made {1, NaN} answer 1 or NaN by arrival order,
// and a sum that had taken a NaN or ±Inf stayed NaN after its delete.
func TestNonFiniteAggregates(t *testing.T) {
	schema := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("g", tuple.Int), tuple.Col("f", tuple.Float))
	for _, kind := range []agg.Kind{agg.Min, agg.Max, agg.Sum, agg.Avg} {
		for _, bad := range []float64{math.NaN(), math.Inf(1)} {
			for _, st := range paperThree {
				name := fmt.Sprintf("%v/%v/%v", kind, bad, st)
				db := newTestDB(t)
				if _, err := db.CreateRelationBTree("r", schema, 0); err != nil {
					t.Fatal(err)
				}
				rows := []tuple.Tuple{{Vals: []tuple.Value{tuple.I(0), tuple.I(0), tuple.F(1)}}}
				tx := db.Begin()
				if _, err := tx.Insert("r", rows[0].Vals...); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				scalar := Def{Name: "s", Kind: Aggregate, Relations: []string{"r"}, Pred: pred.True(), AggKind: kind, AggCol: 2}
				grouped := Def{Name: "g", Kind: GroupedAggregate, Relations: []string{"r"}, Pred: pred.True(), AggKind: kind, AggCol: 2, GroupBy: 1}
				for _, d := range []Def{scalar, grouped} {
					if err := db.CreateView(d, st); err != nil {
						t.Fatal(err)
					}
				}
				check := func(when string) {
					t.Helper()
					want, _, err := refFold(kind, rows, 2)
					if err != nil {
						t.Fatal(err)
					}
					same := func(v float64) bool { return v == want || math.IsNaN(v) && math.IsNaN(want) }
					if v, ok, err := db.QueryAggregate("s"); err != nil || !ok || !same(v) {
						t.Errorf("%s %s: scalar = %v (ok=%v, %v), want %v", name, when, v, ok, err, want)
					}
					if g, err := db.QueryGroups("g", nil); err != nil || len(g) != 1 || !same(g[0].Value) {
						t.Errorf("%s %s: groups = %v (%v), want one of %v", name, when, g, err, want)
					}
				}
				tx = db.Begin()
				id, err := tx.Insert("r", tuple.I(1), tuple.I(0), tuple.F(bad))
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				rows = append(rows, tuple.Tuple{Vals: []tuple.Value{tuple.I(1), tuple.I(0), tuple.F(bad)}})
				check("with the row")
				tx = db.Begin()
				if err := tx.Delete("r", tuple.I(1), id); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				rows = rows[:1]
				check("after its delete")
			}
		}
	}
}

func TestAggregateQueryIsOnePageRead(t *testing.T) {
	db := newAggDatabase(t, Immediate, agg.Sum, 200)
	db.ResetStats()
	if _, _, err := db.QueryAggregate("sumv"); err != nil {
		t.Fatal(err)
	}
	q := db.Breakdown()[PhaseQuery]
	if q.Reads != 1 {
		t.Errorf("aggregate query charged %d reads, want 1 (C_query3 = C2)", q.Reads)
	}
	// Query modification pays a full restricted scan instead.
	qm := newAggDatabase(t, QueryModification, agg.Sum, 200)
	qm.ResetStats()
	if _, _, err := qm.QueryAggregate("sumv"); err != nil {
		t.Fatal(err)
	}
	if got := qm.Breakdown()[PhaseQuery].Reads; got <= 1 {
		t.Errorf("QM aggregate charged %d reads, want a scan", got)
	}
}

// --- engine-level misc -------------------------------------------------------

func TestMixedImmediateDeferredOnSameRelationRejected(t *testing.T) {
	db := newTestDB(t)
	db.CreateRelationBTree("r", spSchema(), 0)
	if err := db.CreateView(spDef("a"), Deferred); err != nil {
		t.Fatal(err)
	}
	d := spDef("b")
	if err := db.CreateView(d, Immediate); err == nil {
		t.Error("mixed strategies over one relation accepted")
	}
	// QueryModification alongside Deferred is allowed.
	c := spDef("c")
	if err := db.CreateView(c, QueryModification); err != nil {
		t.Errorf("QM view alongside deferred rejected: %v", err)
	}
}

func TestQMViewSeesUnfoldedHRChanges(t *testing.T) {
	db := newTestDB(t)
	db.CreateRelationBTree("r", spSchema(), 0)
	if err := db.CreateView(spDef("def"), Deferred); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(func() Def { d := spDef("qm"); return d }(), QueryModification); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	tx.Insert("r", tuple.I(15), tuple.I(3), tuple.S("x"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Without querying the deferred view (no fold), the QM view must
	// still see the change.
	rows, err := db.QueryView("qm", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Errorf("QM view rows = %d, want 1 (pending HR change visible)", len(rows))
	}
}

// TestQMPendingOverlayScreens pins what a query-modification read
// beside a deferred sibling pays at C1: one screen for each row the
// base scan yields and one for each pending add, under the one charged
// screen. A pending delete costs no screen of its own: the scan still
// yields its base row, which the screen skips by id. The deletes'
// screens went with the select-project overlay that screened pending
// deletes apart from the scan (k pending deletes, k screens fewer).
func TestQMPendingOverlayScreens(t *testing.T) {
	for _, def := range []Def{spDef("v"), aggDef("v", agg.Sum), gaDef("v", agg.Min)} {
		db := newTestDB(t)
		if _, err := db.CreateRelationBTree("r", spSchema(), 0); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		ids := map[int64]uint64{}
		for i := int64(0); i < 60; i++ {
			id, err := tx.Insert("r", tuple.I(i), tuple.I(i%5), tuple.S(sName(int(i))))
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		tx.MustCommit()
		if err := db.CreateView(def, QueryModification); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateView(spDef("d"), Deferred); err != nil {
			t.Fatal(err)
		}
		screens := func() int64 {
			t.Helper()
			before := db.Meter().Snapshot().Screens
			if _, err := readView(db, def); err != nil {
				t.Fatal(err)
			}
			return db.Meter().Snapshot().Screens - before
		}
		base := screens()

		// Net changes: adds at keys 15, 45 and 22 (the update's new row);
		// deletes of keys 12, 25, 50 and 22's old row.
		tx = db.Begin()
		for _, k := range []int64{15, 45} {
			if _, err := tx.Insert("r", tuple.I(k), tuple.I(1), tuple.S("x")); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range []int64{12, 25, 50} {
			if err := tx.Delete("r", tuple.I(k), ids[k]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Update("r", tuple.I(22), ids[22], tuple.I(22), tuple.I(4), tuple.S("y")); err != nil {
			t.Fatal(err)
		}
		tx.MustCommit()
		if h, _ := db.HR("r"); h.ADLen() == 0 {
			t.Fatal("the commit was folded; nothing is pending")
		}
		const adds = 3
		if got := screens(); got != base+adds {
			t.Errorf("%s: read over 3 pending adds and 4 pending deletes screened %d, want %d (the %d base rows and the adds)",
				def.Kind, got, base+adds, base)
		}
	}
}

func TestSharedHRRefreshesAllDeferredViews(t *testing.T) {
	db := newTestDB(t)
	db.CreateRelationBTree("r", spSchema(), 0)
	a := spDef("a")
	b := spDef("b")
	b.Project = [][]int{{0}}
	b.ViewKeyCol = 0
	if err := db.CreateView(a, Deferred); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(b, Deferred); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	tx.Insert("r", tuple.I(15), tuple.I(3), tuple.S("x"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Query only view a; the shared fold must refresh b too.
	if _, err := db.QueryView("a", nil); err != nil {
		t.Fatal(err)
	}
	h, _ := db.HR("r")
	if h.ADLen() != 0 {
		t.Fatal("fold did not happen")
	}
	rows, err := db.QueryView("b", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Errorf("sibling deferred view rows = %d, want 1", len(rows))
	}
}

func TestCreateViewValidation(t *testing.T) {
	db := newTestDB(t)
	db.CreateRelationBTree("r", spSchema(), 0)
	bad := spDef("x")
	bad.Relations = []string{"missing"}
	if err := db.CreateView(bad, Immediate); err == nil {
		t.Error("view over missing relation accepted")
	}
	if err := db.CreateView(spDef("v"), Immediate); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(spDef("v"), Immediate); err == nil {
		t.Error("duplicate view name accepted")
	}
}

func TestDropView(t *testing.T) {
	db := newSPDatabase(t, Immediate, 20)
	if err := db.DropView("v"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryView("v", nil); err == nil {
		t.Error("dropped view still queryable")
	}
	// Writes no longer pay screening for the dropped view.
	db.ResetStats()
	tx := db.Begin()
	tx.Insert("r", tuple.I(15), tuple.I(0), tuple.S("x"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.Breakdown()[PhaseScreen].Screens; got != 0 {
		t.Errorf("dropped view still screening: %d", got)
	}
	if err := db.DropView("v"); err == nil {
		t.Error("double drop succeeded")
	}
}

// TestTxRefusesRowsNoPageHolds: a row too wide for a 512-byte page to
// hold alone is refused by Tx.Insert and Tx.Update, not halfway through
// Commit. A commit of a short row and then such a row used to fail in
// the B+-tree with the short row already in r: unlogged, and no view
// maintained for it.
func TestTxRefusesRowsNoPageHolds(t *testing.T) {
	db := newSPDatabase(t, Immediate, 10)
	wide := tuple.S(strings.Repeat("x", 600))
	tx := db.Begin()
	okID, err := tx.Insert("r", tuple.I(20), tuple.I(1), tuple.S("ok"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("r", tuple.I(21), tuple.I(2), wide); err == nil {
		t.Error("Tx.Insert accepted a row no page holds")
	}
	commitErr := tx.Commit()
	r, _ := db.Relation("r")
	var visible bool
	err = db.withPool(func(p *storage.Pool) (err error) {
		_, visible, err = r.Get(p, tuple.I(20), okID, true)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if commitErr != nil {
		if visible {
			t.Errorf("the failed commit (%v) left the row before it in r", commitErr)
		}
	} else if rows, err := db.QueryView("v", nil); err != nil || !visible || !containsKey(rows, 20) {
		t.Errorf("the commit of the short row: in r %v, in v %v (%v)", visible, containsKey(rows, 20), err)
	}
	tx = db.Begin()
	if _, err := tx.Update("r", tuple.I(20), okID, tuple.I(20), tuple.I(1), wide); err == nil {
		t.Error("Tx.Update accepted a row no page holds")
	}
}

// containsKey reports whether a row of rows has key k in column 0.
func containsKey(rows []ResultRow, k int64) bool {
	for _, r := range rows {
		if r.Vals[0].Int() == k {
			return true
		}
	}
	return false
}

func TestTxErrors(t *testing.T) {
	db := newSPDatabase(t, Immediate, 10)
	tx := db.Begin()
	if _, err := tx.Insert("nope", tuple.I(1)); err == nil {
		t.Error("insert into unknown relation accepted")
	}
	if _, err := tx.Insert("r", tuple.I(1)); err == nil {
		t.Error("arity-violating insert accepted")
	}
	if err := tx.Delete("nope", tuple.I(1), 1); err == nil {
		t.Error("delete on unknown relation accepted")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Error("double commit accepted")
	}
	tx2 := db.Begin()
	tx2.Delete("r", tuple.I(999), 999)
	if err := tx2.Commit(); err == nil {
		t.Error("delete of absent tuple committed")
	}
}
