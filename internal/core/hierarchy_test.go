package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/exec"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
)

// childSPDef defines name = π(k, s) σ(lo ≤ k < hi)(parent) over a
// parent whose output schema is (k, s) — the spDef view or another
// childSPDef view.
func childSPDef(name, parent string, lo, hi int64) Def {
	return Def{
		Name:      name,
		Kind:      SelectProject,
		Relations: []string{parent},
		Pred: pred.New(
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(lo)},
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(hi)},
		),
		Project:    [][]int{{0, 1}},
		ViewKeyCol: 0,
	}
}

// hRow models one surviving base tuple for oracle computations.
type hRow struct {
	k int64
	s string
}

// applyHierarchyScript commits the standard mutation mix (in-range
// inserts including a duplicate key, a delete, an update moving a key
// out of range, another delete) in two transactions and returns the
// surviving base contents.
func applyHierarchyScript(t testing.TB, db *Database, n int) []hRow {
	t.Helper()
	tx := db.Begin()
	if _, err := tx.Insert("r", tuple.I(17), tuple.I(1000), tuple.S("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("r", tuple.I(19), tuple.I(5), tuple.S("y")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	if err := tx.Delete("r", tuple.I(12), 13); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Update("r", tuple.I(20), 21, tuple.I(50), tuple.I(40), tuple.S("moved")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("r", tuple.I(21), 22); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows := []hRow{{17, "x"}, {19, "y"}, {50, "moved"}}
	for i := 0; i < n; i++ {
		if i == 12 || i == 20 || i == 21 {
			continue
		}
		rows = append(rows, hRow{int64(i), sName(i)})
	}
	return rows
}

// expectSP filters the base model through the root view's predicate
// [10, 30) and every descendant's (lo, hi) bound, returning the (k, s)
// rows the deepest view should hold.
func expectSP(model []hRow, bounds ...[2]int64) []ResultRow {
	var out []ResultRow
	for _, r := range model {
		if r.k < 10 || r.k >= 30 {
			continue
		}
		ok := true
		for _, b := range bounds {
			if r.k < b[0] || r.k >= b[1] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, ResultRow{Vals: []tuple.Value{tuple.I(r.k), tuple.S(r.s)}})
		}
	}
	return out
}

func TestHierarchyDDLErrors(t *testing.T) {
	db := newSPDatabase(t, Deferred, 30)

	if err := db.CreateView(childSPDef("c", "nope", 0, 100), Deferred); !errors.Is(err, ErrUnknownSource) {
		t.Errorf("unknown source: got %v, want ErrUnknownSource", err)
	}
	join := Def{Name: "j", Kind: Join, Relations: []string{"v", "r"}}
	if err := db.CreateView(join, Deferred); !errors.Is(err, ErrChildJoin) {
		t.Errorf("join over view: got %v, want ErrChildJoin", err)
	}
	if err := db.CreateView(aggDef("sa", agg.Sum), Deferred); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(childSPDef("csa", "sa", 0, 100), Deferred); !errors.Is(err, ErrParentScalar) {
		t.Errorf("scalar parent: got %v, want ErrParentScalar", err)
	}
	if err := db.CreateView(spDef("q"), QueryModification); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(childSPDef("cq", "q", 0, 100), Deferred); !errors.Is(err, ErrParentNotMaterialized) {
		t.Errorf("QM parent: got %v, want ErrParentNotMaterialized", err)
	}

	cycle := []ViewSpec{
		{Def: childSPDef("a", "b", 0, 100), Strategy: Deferred},
		{Def: childSPDef("b", "a", 0, 100), Strategy: Deferred},
	}
	if err := db.CreateViews(cycle); !errors.Is(err, ErrHierarchyCycle) {
		t.Errorf("cycle: got %v, want ErrHierarchyCycle", err)
	}
	dup := []ViewSpec{
		{Def: childSPDef("d", "v", 0, 100), Strategy: Deferred},
		{Def: childSPDef("d", "v", 0, 100), Strategy: Deferred},
	}
	if err := db.CreateViews(dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate batch name: got %v", err)
	}

	// Forward reference inside a batch: the child precedes its parent.
	fwd := []ViewSpec{
		{Def: childSPDef("cw", "w", 12, 28), Strategy: Deferred},
		{Def: childSPDef("w", "v", 11, 29), Strategy: Deferred},
	}
	if err := db.CreateViews(fwd); err != nil {
		t.Fatalf("forward reference: %v", err)
	}
	kids, err := db.ViewChildren("w")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 1 || kids[0] != "cw" {
		t.Errorf("ViewChildren(w) = %v, want [cw]", kids)
	}

	if err := db.DropView("w"); !errors.Is(err, ErrHasChildren) {
		t.Errorf("drop parent with child: got %v, want ErrHasChildren", err)
	}
	if err := db.DropView("cw"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropView("w"); err != nil {
		t.Errorf("drop after child removed: %v", err)
	}
}

// TestHierarchyChainStrategiesAgree runs a depth-3 chain r → v → c →
// gc, with every maintenance strategy at the child levels, through the
// standard mutation script and checks all three views against the
// oracle — both at query time (read-triggered refresh) and after
// RefreshAll.
func TestHierarchyChainStrategiesAgree(t *testing.T) {
	childStrategies := []Strategy{Immediate, Deferred, QueryModification, Snapshot, RecomputeOnDemand}
	for _, pst := range []Strategy{Immediate, Deferred} {
		for _, cst := range childStrategies {
			t.Run(fmt.Sprintf("%v-%v", pst, cst), func(t *testing.T) {
				db := newSPDatabase(t, pst, 50)
				if err := db.CreateView(childSPDef("c", "v", 15, 25), cst); err != nil {
					t.Fatal(err)
				}
				views := []struct {
					name   string
					bounds [][2]int64
				}{
					{"v", nil},
					{"c", [][2]int64{{15, 25}}},
				}
				// A query-modification child has no materialization, so it
				// cannot be a parent; the chain stops at depth 2 for it.
				if cst != QueryModification {
					if err := db.CreateView(childSPDef("gc", "c", 18, 24), cst); err != nil {
						t.Fatal(err)
					}
					views = append(views, struct {
						name   string
						bounds [][2]int64
					}{"gc", [][2]int64{{15, 25}, {18, 24}}})
				}
				model := applyHierarchyScript(t, db, 50)

				check := func(stage string) {
					t.Helper()
					for _, v := range views {
						rows, err := db.QueryView(v.name, nil)
						if err != nil {
							t.Fatalf("%s %s: %v", stage, v.name, err)
						}
						sameRows(t, stage+" "+v.name, rows, expectSP(model, v.bounds...))
					}
				}
				check("after-commit")
				if err := db.RefreshAll(); err != nil {
					t.Fatal(err)
				}
				check("after-refreshall")
			})
		}
	}
}

// TestHierarchyAggregateChildren checks scalar-aggregate and
// grouped-aggregate children over a select-project parent, and a
// select-project child over a grouped-aggregate parent.
func TestHierarchyAggregateChildren(t *testing.T) {
	for _, cst := range []Strategy{Immediate, Deferred} {
		t.Run(fmt.Sprintf("over-sp-%v", cst), func(t *testing.T) {
			db := newSPDatabase(t, Deferred, 50)
			caDef := Def{
				Name:      "ca",
				Kind:      Aggregate,
				Relations: []string{"v"},
				Pred:      pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(12)}),
				AggKind:   agg.Sum,
				AggCol:    0,
			}
			if err := db.CreateView(caDef, cst); err != nil {
				t.Fatal(err)
			}
			cgDef := Def{
				Name:      "cg",
				Kind:      GroupedAggregate,
				Relations: []string{"v"},
				Pred:      pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(0)}),
				AggKind:   agg.Count,
				AggCol:    0,
				GroupBy:   1,
			}
			if err := db.CreateView(cgDef, cst); err != nil {
				t.Fatal(err)
			}
			model := applyHierarchyScript(t, db, 50)

			wantSum := 0.0
			wantGroups := map[string]float64{}
			for _, row := range expectSP(model) {
				k := row.Vals[0].Int()
				if k >= 12 {
					wantSum += float64(k)
				}
				wantGroups[row.Vals[1].String()]++
			}

			if err := db.RefreshAll(); err != nil {
				t.Fatal(err)
			}
			got, ok, err := db.QueryAggregate("ca")
			if err != nil || !ok {
				t.Fatalf("ca: ok=%v err=%v", ok, err)
			}
			if got != wantSum {
				t.Errorf("ca = %v, want %v", got, wantSum)
			}
			groups, err := db.QueryGroups("cg", nil)
			if err != nil {
				t.Fatal(err)
			}
			gotGroups := map[string]float64{}
			for _, g := range groups {
				gotGroups[g.Group.String()] = g.Value
			}
			if !reflect.DeepEqual(gotGroups, wantGroups) {
				t.Errorf("cg groups = %v, want %v", gotGroups, wantGroups)
			}
		})
	}

	t.Run("over-grouped", func(t *testing.T) {
		db := newGroupDatabase(t, Deferred, agg.Sum, 50)
		// Child over the grouped parent g: groups ≥ 2 as (group, value).
		if err := db.CreateView(childSPDef("cg2", "g", 2, 100), Deferred); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		if _, err := tx.Insert("r", tuple.I(50), tuple.I(3), tuple.S("x")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Delete("r", tuple.I(7), 8); err != nil { // group 7%5 = 2
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := db.RefreshAll(); err != nil {
			t.Fatal(err)
		}
		parent, err := db.QueryGroups("g", nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []ResultRow
		for _, g := range parent {
			if g.Group.Int() >= 2 {
				want = append(want, ResultRow{Vals: []tuple.Value{g.Group, tuple.F(g.Value)}})
			}
		}
		rows, err := db.QueryView("cg2", nil)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "cg2", rows, want)
	})
}

// TestHierarchyDrainAndCompaction pins the maintenance mechanics: a
// small pending log drains through a ViewDeltaScan replay and the
// consumed suffix is compacted away; a log that rivals the parent's
// size makes the cost gate recompute instead.
func TestHierarchyDrainAndCompaction(t *testing.T) {
	db := newSPDatabase(t, Immediate, 50)
	if err := db.CreateView(childSPDef("c", "v", 12, 28), Deferred); err != nil {
		t.Fatal(err)
	}
	model := applyHierarchyScript(t, db, 50)

	// The immediate parent logged the script's deltas at commit time;
	// the deferred child has not consumed them yet.
	if n, err := db.ViewDeltaLogLen("v"); err != nil || n == 0 {
		t.Fatalf("parent log after commits: n=%d err=%v, want > 0", n, err)
	}
	rows, err := db.QueryView("c", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "drained child", rows, expectSP(model, [2]int64{12, 28}))
	if n, _ := db.ViewDeltaLogLen("v"); n != 0 {
		t.Errorf("parent log after drain: %d entries, want 0 (compacted)", n)
	}
	plans, err := db.CapturedPlans("c")
	if err != nil {
		t.Fatal(err)
	}
	pc := plans[PlanPathRefresh]
	if pc == nil || !strings.Contains(exec.Render(pc.Root, 1, 30, 1), "ViewDeltaScan(v") {
		t.Error("small-log refresh did not replay the parent's delta log")
	}

	// Pile up a log larger than the parent: 60 in-place updates of one
	// in-range key log two rows each, while the parent holds ~20 rows.
	id := uint64(16) // seed row k=15
	for i := 0; i < 60; i++ {
		tx := db.Begin()
		nid, err := tx.Update("r", tuple.I(15), id, tuple.I(15), tuple.I(int64(i)), tuple.S(sName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		id = nid
		model = replaceKey(model, 15, sName(i))
	}
	if n, _ := db.ViewDeltaLogLen("v"); n < 100 {
		t.Fatalf("parent log before recompute: %d entries, want ≥ 100", n)
	}
	rows, err = db.QueryView("c", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "recomputed child", rows, expectSP(model, [2]int64{12, 28}))
	if n, _ := db.ViewDeltaLogLen("v"); n != 0 {
		t.Errorf("parent log after recompute: %d entries, want 0", n)
	}
	// The recompute path rebuilds via populate, so the child's refresh
	// capture still shows the earlier small drain, and the populate
	// capture is fresh.
	plans, err = db.CapturedPlans("c")
	if err != nil {
		t.Fatal(err)
	}
	if plans[PlanPathPopulate] == nil {
		t.Error("cost-gated recompute did not record a populate plan")
	}
}

// replaceKey rewrites the model row for key k with a new s value.
func replaceKey(model []hRow, k int64, s string) []hRow {
	out := model[:0]
	for _, r := range model {
		if r.k == k {
			r.s = s
		}
		out = append(out, r)
	}
	return out
}

// TestHierarchySharedChildDrain checks that two deferred children
// pending at the same position of the same parent drain from one
// shared replay: the leader's plan carries the SharedDelta build
// subtree, the follower renders a zero-cost reference, and a
// sharing-disabled engine computes the same contents.
func TestHierarchySharedChildDrain(t *testing.T) {
	build := func(gate func() bool) *Database {
		t.Helper()
		db := NewDatabase(testOpts())
		setShareGate(db, gate)
		t.Cleanup(func() { db.assertUnpinned(t) })
		if _, err := db.CreateRelationBTree("r", spSchema(), 0); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		for i := 0; i < 50; i++ {
			if _, err := tx.Insert("r", tuple.I(int64(i)), tuple.I(int64(i*2)), tuple.S(sName(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateView(spDef("v"), Deferred); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"c0", "c1"} {
			if err := db.CreateView(childSPDef(name, "v", 12, 28), Deferred); err != nil {
				t.Fatal(err)
			}
		}
		model := applyHierarchyScript(t, db, 50)
		_ = model
		return db
	}

	shared := build(gateModel)
	if err := shared.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	render := func(db *Database, view, path string) string {
		t.Helper()
		plans, err := db.CapturedPlans(view)
		if err != nil {
			t.Fatal(err)
		}
		pc := plans[path]
		if pc == nil {
			t.Fatalf("%s: no %s plan captured", view, path)
		}
		return exec.Render(pc.Root, 1, 30, 1)
	}
	if s := render(shared, "c0", PlanPathRefresh); !strings.Contains(s, "SharedDelta(viewdelta v views=2)") {
		t.Errorf("leader plan lacks shared build subtree:\n%s", s)
	}
	if s := render(shared, "c1", PlanPathRefresh); !strings.Contains(s, "SharedDeltaRef(viewdelta v charged-to=c0)") {
		t.Errorf("follower plan lacks reference:\n%s", s)
	}
	foundUnit := false
	for _, u := range shared.LastRefreshUnits() {
		if reflect.DeepEqual(u.Views, []string{"c0", "c1"}) {
			foundUnit = true
		}
	}
	if !foundUnit {
		t.Errorf("no [c0 c1] unit in %v", shared.LastRefreshUnits())
	}
	if n, _ := shared.ViewDeltaLogLen("v"); n != 0 {
		t.Errorf("parent log not compacted after shared drain: %d", n)
	}

	unshared := build(gatePrivate)
	if err := unshared.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	if s := render(unshared, "c0", PlanPathRefresh); strings.Contains(s, "SharedDelta") {
		t.Errorf("sharing off but plan shows shared node:\n%s", s)
	}
	for _, name := range []string{"c0", "c1"} {
		a, err := shared.QueryView(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := unshared.QueryView(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, name, a, b)
	}
}

// TestHierarchyFailpointLeavesCleanState injects a failure at the
// start of a grandchild's drain and checks the contract: the error
// surfaces, no pool frame stays pinned, the failed child is still
// stale (nothing partially applied), and clearing the failpoint
// converges to the oracle.
func TestHierarchyFailpointLeavesCleanState(t *testing.T) {
	db := newSPDatabase(t, Deferred, 50)
	if err := db.CreateView(childSPDef("c", "v", 12, 28), Deferred); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(childSPDef("gc", "c", 15, 25), Deferred); err != nil {
		t.Fatal(err)
	}
	model := applyHierarchyScript(t, db, 50)

	boom := errors.New("injected hierarchy failure")
	setHierarchyFailpoint(db, func(view string) error {
		if view == "gc" {
			return boom
		}
		return nil
	})
	if err := db.RefreshAll(); !errors.Is(err, boom) {
		t.Fatalf("RefreshAll with failpoint: got %v, want injected error", err)
	}
	db.assertUnpinned(t)

	// The parent chain above the failure is fresh; the failed child is
	// still pending and untouched.
	if stale, err := db.ViewIsStale("c"); err != nil || stale {
		t.Errorf("c stale=%v err=%v, want fresh", stale, err)
	}
	if stale, err := db.ViewIsStale("gc"); err != nil || !stale {
		t.Errorf("gc stale=%v err=%v, want stale", stale, err)
	}

	setHierarchyFailpoint(db, nil)
	if err := db.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryView("gc", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "gc after retry", rows, expectSP(model, [2]int64{12, 28}, [2]int64{15, 25}))
}

// TestHierarchyFailpointInSharedGroup is the same contract for the
// shared-drain path: the group's failpoints run before any row is
// applied, so neither sibling advances.
func TestHierarchyFailpointInSharedGroup(t *testing.T) {
	db := newSPDatabase(t, Deferred, 50)
	for _, name := range []string{"c0", "c1"} {
		if err := db.CreateView(childSPDef(name, "v", 12, 28), Deferred); err != nil {
			t.Fatal(err)
		}
	}
	model := applyHierarchyScript(t, db, 50)

	boom := errors.New("injected group failure")
	setHierarchyFailpoint(db, func(view string) error {
		if view == "c1" {
			return boom
		}
		return nil
	})
	if err := db.RefreshAll(); !errors.Is(err, boom) {
		t.Fatalf("RefreshAll with group failpoint: got %v, want injected error", err)
	}
	db.assertUnpinned(t)
	for _, name := range []string{"c0", "c1"} {
		if stale, err := db.ViewIsStale(name); err != nil || !stale {
			t.Errorf("%s stale=%v err=%v, want stale (group aborts before applying)", name, stale, err)
		}
	}

	setHierarchyFailpoint(db, nil)
	if err := db.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"c0", "c1"} {
		rows, err := db.QueryView(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, name+" after retry", rows, expectSP(model, [2]int64{12, 28}))
	}
}

// TestHierarchyPersistence round-trips a depth-3 hierarchy through
// Save/Load: contents and continued maintenance must both survive.
func TestHierarchyPersistence(t *testing.T) {
	db := newSPDatabase(t, Deferred, 50)
	if err := db.CreateView(childSPDef("c", "v", 12, 28), Deferred); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(childSPDef("gc", "c", 15, 25), Immediate); err != nil {
		t.Fatal(err)
	}
	model := applyHierarchyScript(t, db, 50)
	// Hammer one key so the AD file folds a run of same-key updates.
	id := uint64(16)
	for i := 0; i < 8; i++ {
		tx := db.Begin()
		nid, err := tx.Update("r", tuple.I(15), id, tuple.I(15), tuple.I(int64(i)), tuple.S("h"))
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		id = nid
	}
	model = replaceKey(model, 15, "h")
	if err := db.RefreshAll(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.assertUnpinned(t) })

	for _, name := range []string{"v", "c", "gc"} {
		a, err := db.QueryView(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := db2.QueryView(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "loaded "+name, b, a)
	}
	kids, err := db2.ViewChildren("v")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 1 || kids[0] != "c" {
		t.Errorf("loaded ViewChildren(v) = %v", kids)
	}

	// Maintenance continues on the loaded engine.
	tx := db2.Begin()
	if _, err := tx.Insert("r", tuple.I(16), tuple.I(7), tuple.S("z")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db2.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	model = append(model, hRow{16, "z"})
	rows, err := db2.QueryView("gc", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "gc after reload+commit", rows, expectSP(model, [2]int64{12, 28}, [2]int64{15, 25}))
}
