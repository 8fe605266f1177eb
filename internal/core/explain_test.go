package core

import (
	"math"
	"strings"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/costmodel"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
)

func TestProfileViewDerivesParameters(t *testing.T) {
	db := newSPDatabase(t, Immediate, 200)
	hints := WorkloadHints{UpdateTxns: 30, Queries: 60, TuplesPerTxn: 7, QueryFraction: 0.25}
	p, err := db.ProfileView("v", hints)
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 200 {
		t.Errorf("N = %v, want 200", p.N)
	}
	// Seeds: keys 0..199, predicate 10 ≤ k < 30 → f = 0.1.
	if math.Abs(p.F-0.1) > 1e-9 {
		t.Errorf("f = %v, want 0.1", p.F)
	}
	if p.K != 30 || p.Q != 60 || p.L != 7 || p.FV != 0.25 {
		t.Errorf("hints not applied: k=%v q=%v l=%v fv=%v", p.K, p.Q, p.L, p.FV)
	}
	if p.B != 512 {
		t.Errorf("B = %v, want the database page size", p.B)
	}
	if p.S <= 0 || p.S > 512 {
		t.Errorf("S = %v out of range", p.S)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("profiled params invalid: %v", err)
	}
}

func TestProfileViewJoinDerivesFR2(t *testing.T) {
	db := newJoinDatabase(t, Immediate, 60, 12)
	p, err := db.ProfileView("j", WorkloadHints{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.FR2-0.2) > 1e-9 { // 12/60
		t.Errorf("fR2 = %v, want 0.2", p.FR2)
	}
}

func TestProfileViewErrors(t *testing.T) {
	db := newTestDB(t)
	db.CreateRelationBTree("r", spSchema(), 0)
	if err := db.CreateView(spDef("v"), Immediate); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ProfileView("v", WorkloadHints{}); err == nil {
		t.Error("profiling an empty relation succeeded")
	}
	if _, err := db.ProfileView("missing", WorkloadHints{}); err == nil {
		t.Error("profiling a missing view succeeded")
	}
}

func TestExplainRanksStrategies(t *testing.T) {
	db := newSPDatabase(t, Deferred, 300)
	// Query-heavy profile: the model should prefer materialization.
	ex, err := db.Explain("v", WorkloadHints{UpdateTxns: 5, Queries: 100, TuplesPerTxn: 2, QueryFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Current != Deferred || ex.View != "v" {
		t.Errorf("explanation header wrong: %+v", ex)
	}
	if ex.CurrentKey != "deferred" {
		t.Errorf("CurrentKey = %q", ex.CurrentKey)
	}
	if len(ex.Costs) < 5 {
		t.Errorf("costs table has %d rows", len(ex.Costs))
	}
	if _, ok := ex.Costs[ex.Cheapest]; !ok {
		t.Error("cheapest strategy missing from the cost table")
	}
	if ex.Costs[ex.Cheapest] > ex.Costs[ex.CurrentKey] {
		t.Error("cheapest costs more than current")
	}
}

func TestExplainJoinAndAggregate(t *testing.T) {
	jdb := newJoinDatabase(t, QueryModification, 40, 8)
	ex, err := jdb.Explain("j", WorkloadHints{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.CurrentKey != "loopjoin" {
		t.Errorf("join QM CurrentKey = %q", ex.CurrentKey)
	}
	if _, ok := ex.Costs["loopjoin"]; !ok {
		t.Error("join explanation missing loopjoin row")
	}

	adb := newAggDatabase(t, Immediate, agg.Sum, 100)
	ex, err = adb.Explain("sumv", WorkloadHints{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ex.Costs["clustered"]; !ok {
		t.Error("aggregate explanation missing recompute row")
	}
	if ex.CurrentKey != "immediate" {
		t.Errorf("aggregate CurrentKey = %q", ex.CurrentKey)
	}
}

// newScanQMDatabase builds a query-modification view V = π(a, k)
// σ(a < 90)(r) over 300 rows of r(k, a = k, s) clustered on k: a has no
// index, so a query scans r sequentially.
func newScanQMDatabase(t *testing.T) *Database {
	t.Helper()
	db := newTestDB(t)
	if _, err := db.CreateRelationBTree("r", spSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < 300; i++ {
		if _, err := tx.Insert("r", tuple.I(int64(i)), tuple.I(int64(i)), tuple.S(sName(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	def := Def{
		Name:       "v",
		Kind:       SelectProject,
		Relations:  []string{"r"},
		Pred:       pred.New(pred.Cmp{Rel: 0, Col: 1, Op: pred.Lt, Val: tuple.I(90)}),
		Project:    [][]int{{1, 0}},
		ViewKeyCol: 0,
	}
	if err := db.CreateView(def, QueryModification); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExplainPricesTheRunnablePath: Explain reads the advisor's price
// list, so a query-modification view is priced at the access path its
// plan runs, not at the cheapest path the tables list. Here r is
// clustered on k and the view selects on the unindexed a, so the query
// scans sequentially.
func TestExplainPricesTheRunnablePath(t *testing.T) {
	db := newScanQMDatabase(t)
	if _, err := db.QueryView("v", nil); err != nil {
		t.Fatal(err)
	}
	hints := WorkloadHints{UpdateTxns: 5, Queries: 100, TuplesPerTxn: 4, QueryFraction: 0.1}
	ex, err := db.Explain("v", hints)
	if err != nil {
		t.Fatal(err)
	}
	if tree := ex.PlanTrees[PlanPathQuery]; !strings.Contains(tree, "SeqScan") {
		t.Fatalf("query plan is not a sequential scan:\n%s", tree)
	}
	if ex.CurrentKey != "sequential" {
		t.Errorf("CurrentKey = %q, want sequential", ex.CurrentKey)
	}
	for _, alg := range []string{"clustered", "unclustered", "loopjoin"} {
		if c, ok := ex.Costs[alg]; ok {
			t.Errorf("Costs holds the QM path %s (%.1f) the engine does not run", alg, c)
		}
	}
	db.mu.RLock()
	costs := db.strategyCostsLocked(db.views["v"], ex.Params)
	db.mu.RUnlock()
	best := QueryModification
	for _, s := range strategyOrder {
		if c, ok := costs[s]; ok && c < costs[best] {
			best = s
		}
	}
	if got := StrategyFor(costmodel.Algorithm(ex.Cheapest)); got != best {
		t.Errorf("Explain's cheapest is %s (%s), the advisor ranks %s first (costs %v)", ex.Cheapest, got, best, costs)
	}
}

// TestExplainPricesTheDefaultPlan: a view's default plan is the access
// path its queries run, and so the one Explain prices. Here r is
// clustered on the view's key column, so PlanAuto would scan the clustering
// index; after SetDefaultPlan(PlanSequential) the query scans
// sequentially, and Costs holds sequential, not clustered.
func TestExplainPricesTheDefaultPlan(t *testing.T) {
	db := newSPDatabase(t, QueryModification, 300)
	if err := db.SetDefaultPlan("v", PlanSequential); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryView("v", nil); err != nil {
		t.Fatal(err)
	}
	ex, err := db.Explain("v", WorkloadHints{UpdateTxns: 5, Queries: 100, TuplesPerTxn: 4, QueryFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if tree := ex.PlanTrees[PlanPathQuery]; !strings.Contains(tree, "SeqScan") {
		t.Fatalf("query plan is not a sequential scan:\n%s", tree)
	}
	if _, ok := ex.Costs["sequential"]; !ok || ex.CurrentKey != "sequential" {
		t.Errorf("Costs %v, CurrentKey %q: want the sequential row current", ex.Costs, ex.CurrentKey)
	}
	if c, ok := ex.Costs["clustered"]; ok {
		t.Errorf("Costs holds the clustered path (%.1f) the default plan does not run", c)
	}
}

// TestStrategyCostKeyMapping: Explain's CurrentKey names the cost-table
// row of the view's strategy. Each maintenance strategy reads its own
// row; query modification reads the access path the physical design
// admits, and that row is in Costs.
func TestStrategyCostKeyMapping(t *testing.T) {
	hints := WorkloadHints{UpdateTxns: 5, Queries: 100, TuplesPerTxn: 4, QueryFraction: 0.1}
	db := newSPDatabase(t, QueryModification, 300)
	for _, tc := range []struct {
		s    Strategy
		want string
	}{{Immediate, "immediate"}, {Deferred, "deferred"}, {Snapshot, "snapshot"}, {RecomputeOnDemand, "recompute-on-demand"}} {
		if err := db.SetStrategy("v", tc.s); err != nil {
			t.Fatal(err)
		}
		ex, err := db.Explain("v", hints)
		if err != nil {
			t.Fatal(err)
		}
		if ex.CurrentKey != tc.want {
			t.Errorf("%v: CurrentKey = %q, want %q", tc.s, ex.CurrentKey, tc.want)
		}
	}

	for _, tc := range []struct {
		name, view, want string
		db               *Database
	}{
		{"clustered on the selection column", "v", "clustered", newSPDatabase(t, QueryModification, 300)},
		{"secondary index on the selection column", "v", "unclustered", newUnclusteredSPDatabase(t, 300)},
		{"no index on the selection column", "v", "sequential", newScanQMDatabase(t)},
		{"join", "j", "loopjoin", newJoinDatabase(t, QueryModification, 40, 8)},
	} {
		ex, err := tc.db.Explain(tc.view, hints)
		if err != nil {
			t.Fatal(err)
		}
		if ex.CurrentKey != tc.want {
			t.Errorf("QM, %s: CurrentKey = %q, want %q", tc.name, ex.CurrentKey, tc.want)
		}
		if _, ok := ex.Costs[ex.CurrentKey]; !ok {
			t.Errorf("QM, %s: Costs has no %q row: %v", tc.name, ex.CurrentKey, ex.Costs)
		}
	}
}
