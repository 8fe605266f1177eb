package core

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/exec"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

var updatePlans = flag.Bool("update-plans", false, "rewrite the golden plan-tree files")

// newUnclusteredSPDatabase clusters r on column 1 and adds a secondary
// on the view key source (column 0), so the unclustered access path is
// the only indexed route to the view predicate's interval.
func newUnclusteredSPDatabase(t *testing.T, n int) *Database {
	t.Helper()
	db := newTestDB(t)
	if _, err := db.CreateRelationBTree("r", spSchema(), 1); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < n; i++ {
		if _, err := tx.Insert("r", tuple.I(int64(i)), tuple.I(int64(i*2)), tuple.S(sName(i))); err != nil {
			t.Fatal(err)
		}
	}
	tx.MustCommit()
	if err := db.CreateSecondaryIndex("r", 0); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(spDef("v"), QueryModification); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	return db
}

// planScenarios drives every query plan and maintenance strategy
// through its operator pipeline and snapshots the rendered plan trees.
// One golden file per scenario under testdata/plans; regenerate with
//
//	go test ./internal/core -run TestPlanTreeGoldens -update-plans
var planScenarios = []struct {
	name string
	run  func(t *testing.T) (*Database, string)
}{
	{"qm-sp-clustered", func(t *testing.T) (*Database, string) {
		db := newSPDatabase(t, QueryModification, 200)
		if _, err := queryPlan(db, "v", nil, PlanClustered); err != nil {
			t.Fatal(err)
		}
		return db, "v"
	}},
	{"qm-sp-unclustered", func(t *testing.T) (*Database, string) {
		db := newUnclusteredSPDatabase(t, 200)
		if _, err := queryPlan(db, "v", nil, PlanUnclustered); err != nil {
			t.Fatal(err)
		}
		return db, "v"
	}},
	{"qm-sp-sequential", func(t *testing.T) (*Database, string) {
		db := newSPDatabase(t, QueryModification, 200)
		if _, err := queryPlan(db, "v", nil, PlanSequential); err != nil {
			t.Fatal(err)
		}
		return db, "v"
	}},
	{"qm-sp-pending-overlay", func(t *testing.T) (*Database, string) {
		// A QM view sharing a relation with a deferred sibling reads the
		// hypothetical relation after a commit parks net changes in the
		// HR: pending adds ahead of the scan, under the charged screen,
		// as the fold kinds read it (qm-agg-pending-overlay).
		db := newTestDB(t)
		if _, err := db.CreateRelationBTree("r", spSchema(), 0); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		for i := 0; i < 100; i++ {
			if _, err := tx.Insert("r", tuple.I(int64(i)), tuple.I(int64(i*2)), tuple.S(sName(i))); err != nil {
				t.Fatal(err)
			}
		}
		tx.MustCommit()
		if err := db.CreateView(spDef("v"), QueryModification); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateView(spDef("d"), Deferred); err != nil {
			t.Fatal(err)
		}
		db.ResetStats()
		tx = db.Begin()
		if _, err := tx.Insert("r", tuple.I(15), tuple.I(1), tuple.S("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Insert("r", tuple.I(500), tuple.I(1), tuple.S("y")); err != nil {
			t.Fatal(err)
		}
		tx.MustCommit()
		if _, err := db.QueryView("v", nil); err != nil {
			t.Fatal(err)
		}
		return db, "v"
	}},
	{"qm-join-loopjoin", func(t *testing.T) (*Database, string) {
		db := newJoinDatabase(t, QueryModification, 60, 12)
		if _, err := db.QueryView("j", nil); err != nil {
			t.Fatal(err)
		}
		return db, "j"
	}},
	{"qm-agg", func(t *testing.T) (*Database, string) {
		db := newAggDatabase(t, QueryModification, agg.Sum, 50)
		if _, _, err := db.QueryAggregate("sumv"); err != nil {
			t.Fatal(err)
		}
		return db, "sumv"
	}},
	{"qm-groups", func(t *testing.T) (*Database, string) {
		db := newGroupDatabase(t, QueryModification, agg.Sum, 60)
		if _, err := db.QueryGroups("g", nil); err != nil {
			t.Fatal(err)
		}
		return db, "g"
	}},
	{"immediate-sp", func(t *testing.T) (*Database, string) {
		db := newSPDatabase(t, Immediate, 200)
		tx := db.Begin()
		if _, err := tx.Insert("r", tuple.I(15), tuple.I(1), tuple.S("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Insert("r", tuple.I(500), tuple.I(1), tuple.S("y")); err != nil {
			t.Fatal(err)
		}
		tx.MustCommit()
		if _, err := db.QueryView("v", nil); err != nil {
			t.Fatal(err)
		}
		return db, "v"
	}},
	{"deferred-sp", func(t *testing.T) (*Database, string) {
		db := newSPDatabase(t, Deferred, 200)
		tx := db.Begin()
		if _, err := tx.Insert("r", tuple.I(15), tuple.I(1), tuple.S("x")); err != nil {
			t.Fatal(err)
		}
		tx.MustCommit()
		if _, err := db.QueryView("v", nil); err != nil {
			t.Fatal(err)
		}
		return db, "v"
	}},
	{"immediate-join", func(t *testing.T) (*Database, string) {
		db := newJoinDatabase(t, Immediate, 60, 12)
		tx := db.Begin()
		id, err := tx.Insert("r1", tuple.I(70), tuple.I(5), tuple.S("px"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Insert("r2", tuple.I(12), tuple.S("infox")); err != nil {
			t.Fatal(err)
		}
		tx.MustCommit()
		tx = db.Begin()
		if err := tx.Delete("r1", tuple.I(70), id); err != nil {
			t.Fatal(err)
		}
		tx.MustCommit()
		return db, "j"
	}},
	{"immediate-agg", func(t *testing.T) (*Database, string) {
		db := newAggDatabase(t, Immediate, agg.Sum, 50)
		tx := db.Begin()
		if _, err := tx.Insert("r", tuple.I(15), tuple.I(7), tuple.S("x")); err != nil {
			t.Fatal(err)
		}
		tx.MustCommit()
		if _, _, err := db.QueryAggregate("sumv"); err != nil {
			t.Fatal(err)
		}
		return db, "sumv"
	}},
	{"deferred-agg-rebuild", func(t *testing.T) (*Database, string) {
		// Deleting a contributor to a MAX forces the fold to fall back
		// to a full rebuild — the nested rebuild-agg pipeline.
		db := newAggDatabase(t, Deferred, agg.Max, 50)
		tps, err := db.lookupKey("r", tuple.I(29))
		if err != nil || len(tps) == 0 {
			t.Fatalf("lookup k=29: %v (%d tuples)", err, len(tps))
		}
		tx := db.Begin()
		if err := tx.Delete("r", tuple.I(29), tps[0].ID); err != nil {
			t.Fatal(err)
		}
		tx.MustCommit()
		if _, _, err := db.QueryAggregate("sumv"); err != nil {
			t.Fatal(err)
		}
		return db, "sumv"
	}},
	{"immediate-groups", func(t *testing.T) (*Database, string) {
		db := newGroupDatabase(t, Immediate, agg.Sum, 60)
		tx := db.Begin()
		if _, err := tx.Insert("r", tuple.I(7), tuple.I(2), tuple.S("x")); err != nil {
			t.Fatal(err)
		}
		tx.MustCommit()
		if _, err := db.QueryGroups("g", nil); err != nil {
			t.Fatal(err)
		}
		return db, "g"
	}},
	{"shared-delta-join-leader", func(t *testing.T) (*Database, string) {
		// Three deferred join views over one base pair refresh as one
		// shared-delta group; the first consumer by name (j0) carries
		// the SharedDelta build subtree in its refresh plan.
		db := sharedFanoutScenario(t)
		return db, "j0"
	}},
	{"shared-delta-join-follower", func(t *testing.T) (*Database, string) {
		// A follower consumer renders a zero-cost SharedDeltaRef naming
		// the view the build was charged to.
		db := sharedFanoutScenario(t)
		return db, "j1"
	}},
	{"hierarchy-child-drain", func(t *testing.T) (*Database, string) {
		// A deferred child over a deferred parent drains the parent's
		// in-memory delta log: its refresh plan reads a ViewDeltaScan
		// — the delta-of-a-delta — instead of any base relation.
		db := newSPDatabase(t, Deferred, 200)
		if err := db.CreateView(childSPDef("c", "v", 12, 28), Deferred); err != nil {
			t.Fatal(err)
		}
		db.ResetStats()
		tx := db.Begin()
		if _, err := tx.Insert("r", tuple.I(15), tuple.I(1), tuple.S("x")); err != nil {
			t.Fatal(err)
		}
		tx.MustCommit()
		if _, err := db.QueryView("c", nil); err != nil {
			t.Fatal(err)
		}
		return db, "c"
	}},
	{"hierarchy-shared-child-leader", func(t *testing.T) (*Database, string) {
		// Two deferred siblings drain one parent log position as a
		// shared-delta group; the leader carries the SharedDelta build.
		db := sharedChildScenario(t)
		return db, "c0"
	}},
	{"hierarchy-shared-child-follower", func(t *testing.T) (*Database, string) {
		// The sibling renders a zero-cost SharedDeltaRef naming the
		// view the log replay was charged to.
		db := sharedChildScenario(t)
		return db, "c1"
	}},
	{"snapshot-sp", func(t *testing.T) (*Database, string) {
		db := newSPDatabase(t, Snapshot, 200)
		tx := db.Begin()
		if _, err := tx.Insert("r", tuple.I(15), tuple.I(1), tuple.S("x")); err != nil {
			t.Fatal(err)
		}
		tx.MustCommit()
		if err := db.RefreshSnapshot("v"); err != nil {
			t.Fatal(err)
		}
		if _, err := db.QueryView("v", nil); err != nil {
			t.Fatal(err)
		}
		return db, "v"
	}},
	{"recompute-sp", func(t *testing.T) (*Database, string) {
		db := newSPDatabase(t, RecomputeOnDemand, 200)
		tx := db.Begin()
		if _, err := tx.Insert("r", tuple.I(15), tuple.I(1), tuple.S("x")); err != nil {
			t.Fatal(err)
		}
		tx.MustCommit()
		if _, err := db.QueryView("v", nil); err != nil {
			t.Fatal(err)
		}
		return db, "v"
	}},
	{"recompute-join", func(t *testing.T) (*Database, string) {
		// A join view's full rebuild: the populate-shaped loop join over
		// the restricted outer, uncharged, into a fresh store.
		db := newJoinDatabase(t, RecomputeOnDemand, 60, 12)
		tx := db.Begin()
		if _, err := tx.Insert("r1", tuple.I(70), tuple.I(5), tuple.S("px")); err != nil {
			t.Fatal(err)
		}
		tx.MustCommit()
		if _, err := db.QueryView("j", nil); err != nil {
			t.Fatal(err)
		}
		return db, "j"
	}},
	{"agg-create-fill", func(t *testing.T) (*Database, string) {
		// The scalar aggregate's create-time fill is the charged
		// rebuild-agg pipeline, recorded on the refresh path.
		return newAggDatabase(t, Immediate, agg.Sum, 50), "sumv"
	}},
	{"recompute-groups", func(t *testing.T) (*Database, string) {
		// The grouped rebuild: fold every group from the source, flush
		// the group rows in group order.
		db := newGroupDatabase(t, RecomputeOnDemand, agg.Sum, 60)
		tx := db.Begin()
		if _, err := tx.Insert("r", tuple.I(7), tuple.I(2), tuple.S("x")); err != nil {
			t.Fatal(err)
		}
		tx.MustCommit()
		if _, err := db.QueryGroups("g", nil); err != nil {
			t.Fatal(err)
		}
		return db, "g"
	}},
	{"immediate-groups-min-recompute", func(t *testing.T) (*Database, string) {
		// Deleting a group's MIN recomputes that one group inside the
		// apply sink: a restricted scan of r, one screen per scanned row,
		// all charged to DeltaApply(g.groups).
		db := newGroupDatabase(t, Immediate, agg.Min, 50)
		tx := db.Begin()
		if err := tx.Delete("r", tuple.I(2), 3); err != nil {
			t.Fatal(err)
		}
		tx.MustCommit()
		return db, "g"
	}},
	{"immediate-groups-min-recompute-clustered", func(t *testing.T) (*Database, string) {
		// Clustered on the grouping column, the one-group recompute
		// narrows to a point scan of that group.
		db := newTestDB(t)
		s := tuple.NewSchema(tuple.Col("g", tuple.Int), tuple.Col("v", tuple.Int))
		if _, err := db.CreateRelationBTree("r", s, 0); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		var victim uint64
		for g := int64(0); g < 4; g++ {
			for j := int64(0); j < 25; j++ {
				id, err := tx.Insert("r", tuple.I(g), tuple.I(j))
				if err != nil {
					t.Fatal(err)
				}
				if g == 2 && j == 0 {
					victim = id
				}
			}
		}
		tx.MustCommit()
		def := Def{Name: "gmin", Kind: GroupedAggregate, Relations: []string{"r"}, Pred: pred.True(),
			AggKind: agg.Min, AggCol: 1, GroupBy: 0}
		if err := db.CreateView(def, Immediate); err != nil {
			t.Fatal(err)
		}
		db.ResetStats()
		tx = db.Begin()
		if err := tx.Delete("r", tuple.I(2), victim); err != nil {
			t.Fatal(err)
		}
		tx.MustCommit()
		return db, "gmin"
	}},
	{"qm-agg-pending-overlay", func(t *testing.T) (*Database, string) {
		db := pendingOverlayScenario(t, aggDef("sumv", agg.Sum))
		if _, _, err := db.QueryAggregate("sumv"); err != nil {
			t.Fatal(err)
		}
		return db, "sumv"
	}},
	{"qm-groups-pending-overlay", func(t *testing.T) (*Database, string) {
		db := pendingOverlayScenario(t, gaDef("g", agg.Sum))
		if _, err := db.QueryGroups("g", nil); err != nil {
			t.Fatal(err)
		}
		return db, "g"
	}},
	{"qm-child-sp", func(t *testing.T) (*Database, string) {
		// A query-modification child rewrites onto its parent's stored
		// rows: ParentScan, the charged screen (child predicate and query
		// range), project.
		db := newSPDatabase(t, Immediate, 200)
		if err := db.CreateView(childSPDef("c", "v", 12, 28), QueryModification); err != nil {
			t.Fatal(err)
		}
		db.ResetStats()
		lo, hi := tuple.I(14), tuple.I(20)
		if _, err := db.QueryView("c", &pred.Range{Lo: &lo, Hi: &hi, LoInc: true}); err != nil {
			t.Fatal(err)
		}
		return db, "c"
	}},
	{"qm-child-sp-over-groups", func(t *testing.T) (*Database, string) {
		// Over a grouped-aggregate parent the ParentScan yields one
		// (group, value) row per live group.
		db := newGroupDatabase(t, Immediate, agg.Sum, 50)
		if err := db.CreateView(childSPDef("c", "g", 2, 100), QueryModification); err != nil {
			t.Fatal(err)
		}
		db.ResetStats()
		if _, err := db.QueryView("c", nil); err != nil {
			t.Fatal(err)
		}
		return db, "c"
	}},
	{"qm-child-agg", func(t *testing.T) (*Database, string) {
		db := newSPDatabase(t, Immediate, 200)
		def := Def{Name: "ca", Kind: Aggregate, Relations: []string{"v"},
			Pred:    pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(12)}),
			AggKind: agg.Sum, AggCol: 0}
		if err := db.CreateView(def, QueryModification); err != nil {
			t.Fatal(err)
		}
		db.ResetStats()
		if _, _, err := db.QueryAggregate("ca"); err != nil {
			t.Fatal(err)
		}
		return db, "ca"
	}},
	{"qm-child-groups", func(t *testing.T) (*Database, string) {
		db := newSPDatabase(t, Immediate, 200)
		def := Def{Name: "cg", Kind: GroupedAggregate, Relations: []string{"v"},
			Pred:    pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(0)}),
			AggKind: agg.Count, AggCol: 0, GroupBy: 1}
		if err := db.CreateView(def, QueryModification); err != nil {
			t.Fatal(err)
		}
		db.ResetStats()
		if _, err := db.QueryGroups("cg", nil); err != nil {
			t.Fatal(err)
		}
		return db, "cg"
	}},
}

// pendingOverlayScenario builds a query-modification view over r beside
// a deferred sibling and parks one insert and one delete in the HR, so
// the view's read streams the pending adds ahead of the base scan and
// skips the pending deletes.
func pendingOverlayScenario(t *testing.T, def Def) *Database {
	t.Helper()
	db := newTestDB(t)
	if _, err := db.CreateRelationBTree("r", spSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	var victim uint64
	for i := 0; i < 60; i++ {
		id, err := tx.Insert("r", tuple.I(int64(i)), tuple.I(int64(i%5)), tuple.S(sName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 20 {
			victim = id
		}
	}
	tx.MustCommit()
	if err := db.CreateView(def, QueryModification); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(spDef("d"), Deferred); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	tx = db.Begin()
	if _, err := tx.Insert("r", tuple.I(15), tuple.I(1), tuple.S("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("r", tuple.I(20), victim); err != nil {
		t.Fatal(err)
	}
	tx.MustCommit()
	return db
}

// sharedFanoutScenario stales the 3-views-one-base fixture with churn
// on both join sides and refreshes it through the shared-delta path.
func sharedFanoutScenario(t *testing.T) *Database {
	t.Helper()
	db := newFanJoinDatabase(t, gateModel, Deferred, 60, 10)
	tx := db.Begin()
	if _, err := tx.Insert("r1", tuple.I(25), tuple.I(5), tuple.S("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("r1", tuple.I(5), 16); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("r2", tuple.I(4), 5); err != nil {
		t.Fatal(err)
	}
	tx.MustCommit()
	if _, err := db.QueryView("j0", nil); err != nil {
		t.Fatal(err)
	}
	return db
}

// sharedChildScenario stales a deferred parent with two deferred
// children over overlapping slices and refreshes the whole hierarchy,
// so the siblings consume the parent's log as one shared group.
func sharedChildScenario(t *testing.T) *Database {
	t.Helper()
	db := newSPDatabase(t, Deferred, 200)
	if err := db.CreateView(childSPDef("c0", "v", 12, 28), Deferred); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(childSPDef("c1", "v", 15, 25), Deferred); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	tx := db.Begin()
	if _, err := tx.Insert("r", tuple.I(16), tuple.I(1), tuple.S("x")); err != nil {
		t.Fatal(err)
	}
	tx.MustCommit()
	if err := db.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	return db
}

// renderScenario runs Explain and flattens the per-path trees into one
// deterministic document.
func renderScenario(t *testing.T, db *Database, view string) string {
	t.Helper()
	ex, err := db.Explain(view, WorkloadHints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.PlanTrees) == 0 {
		t.Fatal("no plan trees captured")
	}
	paths := make([]string, 0, len(ex.PlanTrees))
	for p := range ex.PlanTrees {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var sb strings.Builder
	for _, p := range paths {
		sb.WriteString("== " + p + " ==\n")
		sb.WriteString(ex.PlanTrees[p])
	}
	return sb.String()
}

func TestPlanTreeGoldens(t *testing.T) {
	for _, sc := range planScenarios {
		t.Run(sc.name, func(t *testing.T) {
			db, view := sc.run(t)
			got := renderScenario(t, db, view)
			golden := filepath.Join("testdata", "plans", sc.name+".golden")
			if *updatePlans {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update-plans): %v", err)
			}
			if got != string(want) {
				t.Errorf("plan trees diverged from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestOperatorStatsMatchMeter asserts the exec attribution invariant
// end-to-end: for every operator tree the engine executes during a
// mixed serial workload, the sum of per-operator metered charges equals
// the storage.Meter delta spanning that tree's run.
func TestOperatorStatsMatchMeter(t *testing.T) {
	check := func(t *testing.T, db *Database, work func()) {
		t.Helper()
		captures := 0
		db.SetPlanObserver(func(view, path string, root *exec.PlanNode, delta storage.Stats) {
			captures++
			if got := root.TotalCost(); got != delta {
				t.Errorf("%s/%s: tree cost %+v != meter delta %+v", view, path, got, delta)
			}
		})
		defer db.SetPlanObserver(nil)
		work()
		if captures == 0 {
			t.Error("workload executed no operator trees")
		}
	}

	t.Run("sp-clustered-sequential", func(t *testing.T) {
		db := newSPDatabase(t, QueryModification, 200)
		check(t, db, func() {
			for _, plan := range []QueryPlan{PlanClustered, PlanSequential} {
				if _, err := queryPlan(db, "v", nil, plan); err != nil {
					t.Fatal(err)
				}
			}
		})
	})

	t.Run("sp-unclustered", func(t *testing.T) {
		db := newUnclusteredSPDatabase(t, 200)
		check(t, db, func() {
			if _, err := queryPlan(db, "v", nil, PlanUnclustered); err != nil {
				t.Fatal(err)
			}
		})
	})

	for _, st := range []Strategy{Immediate, Deferred} {
		st := st
		t.Run("sp-"+st.String(), func(t *testing.T) {
			db := newSPDatabase(t, st, 200)
			check(t, db, func() {
				tx := db.Begin()
				if _, err := tx.Insert("r", tuple.I(15), tuple.I(1), tuple.S("x")); err != nil {
					t.Fatal(err)
				}
				tx.MustCommit()
				if _, err := db.QueryView("v", nil); err != nil {
					t.Fatal(err)
				}
			})
		})
		t.Run("join-"+st.String(), func(t *testing.T) {
			db := newJoinDatabase(t, st, 60, 12)
			check(t, db, func() {
				tx := db.Begin()
				id, err := tx.Insert("r1", tuple.I(70), tuple.I(5), tuple.S("px"))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tx.Insert("r2", tuple.I(12), tuple.S("infox")); err != nil {
					t.Fatal(err)
				}
				tx.MustCommit()
				tx = db.Begin()
				if err := tx.Delete("r1", tuple.I(70), id); err != nil {
					t.Fatal(err)
				}
				tx.MustCommit()
				if _, err := db.QueryView("j", nil); err != nil {
					t.Fatal(err)
				}
			})
		})
	}

	t.Run("aggregates", func(t *testing.T) {
		db := newAggDatabase(t, Deferred, agg.Max, 50)
		tps, err := db.lookupKey("r", tuple.I(29))
		if err != nil || len(tps) == 0 {
			t.Fatalf("lookup: %v", err)
		}
		check(t, db, func() {
			tx := db.Begin()
			if err := tx.Delete("r", tuple.I(29), tps[0].ID); err != nil {
				t.Fatal(err)
			}
			tx.MustCommit()
			if _, _, err := db.QueryAggregate("sumv"); err != nil {
				t.Fatal(err)
			}
		})
	})

	t.Run("groups", func(t *testing.T) {
		db := newGroupDatabase(t, Immediate, agg.Sum, 60)
		check(t, db, func() {
			tx := db.Begin()
			if _, err := tx.Insert("r", tuple.I(7), tuple.I(2), tuple.S("x")); err != nil {
				t.Fatal(err)
			}
			tx.MustCommit()
			if _, err := db.QueryGroups("g", nil); err != nil {
				t.Fatal(err)
			}
		})
	})

	t.Run("snapshot-recompute", func(t *testing.T) {
		db := newSPDatabase(t, Snapshot, 200)
		check(t, db, func() {
			tx := db.Begin()
			if _, err := tx.Insert("r", tuple.I(15), tuple.I(1), tuple.S("x")); err != nil {
				t.Fatal(err)
			}
			tx.MustCommit()
			if err := db.RefreshSnapshot("v"); err != nil {
				t.Fatal(err)
			}
			if _, err := db.QueryView("v", nil); err != nil {
				t.Fatal(err)
			}
		})
	})
}
