package core

import (
	"strings"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
)

func TestStringers(t *testing.T) {
	kinds := map[Kind]string{SelectProject: "select-project", Join: "join", Aggregate: "aggregate", Kind(99): "kind(99)"}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	strategies := map[Strategy]string{
		QueryModification: "query-modification", Immediate: "immediate", Deferred: "deferred",
		Snapshot: "snapshot", RecomputeOnDemand: "recompute-on-demand", Strategy(42): "strategy(42)",
	}
	for s, want := range strategies {
		if got := s.String(); got != want {
			t.Errorf("Strategy.String() = %q, want %q", got, want)
		}
	}
	plans := map[QueryPlan]string{
		PlanAuto: "auto", PlanClustered: "clustered", PlanUnclustered: "unclustered",
		PlanSequential: "sequential", PlanLoopJoin: "loopjoin", QueryPlan(9): "plan(9)",
	}
	for p, want := range plans {
		if got := p.String(); got != want {
			t.Errorf("QueryPlan.String() = %q, want %q", got, want)
		}
	}
}

func TestEngineAccessors(t *testing.T) {
	db := newSPDatabase(t, Immediate, 10)
	if db.Meter() == nil || db.Disk() == nil {
		t.Error("accessors returned nil")
	}
	def, st, ok := db.View("v")
	if !ok || def.Name != "v" || st != Immediate {
		t.Errorf("View(v) = %v %v %v", def, st, ok)
	}
	if _, _, ok := db.View("missing"); ok {
		t.Error("View(missing) ok")
	}
	if names := db.ViewNames(); len(names) != 1 || names[0] != "v" {
		t.Errorf("ViewNames = %v", names)
	}
	if err := db.SetDefaultPlan("v", PlanSequential); err != nil {
		t.Fatal(err)
	}
	if err := db.SetDefaultPlan("missing", PlanSequential); err == nil {
		t.Error("SetDefaultPlan on missing view")
	}
}

func TestSetDefaultPlanIsUsed(t *testing.T) {
	db := newSPDatabase(t, QueryModification, 100)
	db.ResetStats()
	if _, err := db.QueryView("v", nil); err != nil { // auto → clustered
		t.Fatal(err)
	}
	clustered := db.Breakdown()[PhaseQuery].Reads
	if err := db.SetDefaultPlan("v", PlanSequential); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	if _, err := db.QueryView("v", nil); err != nil {
		t.Fatal(err)
	}
	seq := db.Breakdown()[PhaseQuery].Reads
	if seq <= clustered {
		t.Errorf("sequential default plan (%d reads) should cost more than clustered (%d)", seq, clustered)
	}
}

func TestMatViewAccessors(t *testing.T) {
	mv := newTestMatView(t)
	if mv.Schema() == nil || len(mv.Schema().Cols) != 2 {
		t.Errorf("Schema = %v", mv.Schema())
	}
	if mv.KeyCol() != 0 {
		t.Errorf("KeyCol = %d", mv.KeyCol())
	}
}

func TestMustCommitPanicsOnError(t *testing.T) {
	db := newSPDatabase(t, Immediate, 5)
	tx := db.Begin()
	tx.Delete("r", tuple.I(999), 999) // will fail at commit
	defer func() {
		if recover() == nil {
			t.Error("MustCommit did not panic")
		}
	}()
	tx.MustCommit()
}

func TestDefValidateErrors(t *testing.T) {
	schemas := []*tuple.Schema{spSchema()}
	joinSchemasList := func() []*tuple.Schema { a, b := joinSchemas(); return []*tuple.Schema{a, b} }
	cases := []struct {
		name    string
		def     Def
		schemas []*tuple.Schema
		frag    string
	}{
		{"no name", Def{Kind: SelectProject, Relations: []string{"r"}, Pred: pred.True(), Project: [][]int{{0}}}, schemas, "name"},
		{"wrong relation count", func() Def { d := spDef("x"); d.Relations = []string{"a", "b"}; return d }(), schemas, "relation"},
		{"schema count mismatch", spDef("x"), nil, "schemas"},
		{"nil predicate", func() Def { d := spDef("x"); d.Pred = nil; return d }(), schemas, "predicate"},
		{"pred slot out of range", func() Def {
			d := spDef("x")
			d.Pred = pred.New(pred.Cmp{Rel: 3, Col: 0, Op: pred.Eq, Val: tuple.I(1)})
			return d
		}(), schemas, "slot"},
		{"pred col out of range", func() Def {
			d := spDef("x")
			d.Pred = pred.New(pred.Cmp{Rel: 0, Col: 9, Op: pred.Eq, Val: tuple.I(1)})
			return d
		}(), schemas, "column"},
		{"join atom in sp view", func() Def {
			d := spDef("x")
			d.Pred = d.Pred.And(pred.JoinEq{LRel: 0, LCol: 0, RRel: 0, RCol: 1})
			return d
		}(), schemas, "join"},
		{"join without join atom", func() Def {
			d := joinDef("x")
			d.Pred = pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(1)})
			return d
		}(), joinSchemasList(), "join atom"},
		{"join slot out of range", func() Def {
			d := joinDef("x")
			d.Pred = pred.New(pred.JoinEq{LRel: 0, LCol: 1, RRel: 5, RCol: 0})
			return d
		}(), joinSchemasList(), "slot"},
		// Definitions only a hostile request or snapshot would carry: at
		// the parent commit the first panics and the rest validate.
		{"predicate slot negative", func() Def {
			d := spDef("x")
			d.Pred = pred.New(pred.Cmp{Rel: -1, Col: 0, Op: pred.Lt, Val: tuple.I(1)})
			return d
		}(), schemas, "slot -1"},
		{"unknown kind", func() Def {
			d := spDef("x")
			d.Kind = 7
			return d
		}(), schemas, "unknown kind 7"},
		{"unknown operator", func() Def {
			d := spDef("x")
			d.Pred = pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge + 1, Val: tuple.I(1)})
			return d
		}(), schemas, "unknown operator"},
		{"join slot negative", func() Def {
			d := joinDef("x")
			d.Pred = pred.New(pred.JoinEq{LRel: -1, LCol: 1, RRel: 1, RCol: 0})
			return d
		}(), joinSchemasList(), "slot -1"},
		{"join column out of range", func() Def {
			d := joinDef("x")
			d.Pred = pred.New(pred.JoinEq{LRel: 0, LCol: 1, RRel: 1, RCol: 40})
			return d
		}(), joinSchemasList(), "column 40"},
		{"join column negative", func() Def {
			d := joinDef("x")
			d.Pred = pred.New(pred.JoinEq{LRel: 0, LCol: -1, RRel: 1, RCol: 0})
			return d
		}(), joinSchemasList(), "column -1"},
		{"unknown aggregate kind", aggDef("x", agg.StdDev+1), schemas, "unknown aggregate kind"},
		{"agg col out of range", func() Def {
			d := aggDef("x", agg.Sum)
			d.AggCol = 9
			return d
		}(), schemas, "aggregates column"},
		{"agg on string column", func() Def {
			d := aggDef("x", agg.Sum)
			d.AggCol = 2
			return d
		}(), schemas, "string"},
		{"projection count mismatch", func() Def {
			d := spDef("x")
			d.Project = [][]int{{0}, {1}}
			return d
		}(), schemas, "projection"},
		{"projected col out of range", func() Def {
			d := spDef("x")
			d.Project = [][]int{{0, 9}}
			return d
		}(), schemas, "out of range"},
		{"empty projection", func() Def {
			d := spDef("x")
			d.Project = [][]int{{}}
			return d
		}(), schemas, "projects no columns"},
		{"view key out of range", func() Def {
			d := spDef("x")
			d.ViewKeyCol = 5
			return d
		}(), schemas, "clusters"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.def.Validate(tc.schemas)
			if err == nil {
				t.Fatal("invalid definition accepted")
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("error %q missing %q", err, tc.frag)
			}
		})
	}
	// COUNT over a string column is fine (it never reads the value).
	d := aggDef("ok", agg.Count)
	d.AggCol = 2
	if err := d.Validate(schemas); err != nil {
		t.Errorf("COUNT(string) rejected: %v", err)
	}
}

func TestQMJoinViewSeesUnfoldedHRChanges(t *testing.T) {
	// foldRelationsLocked: a QM join view over relations feeding a
	// deferred view must trigger the shared fold before scanning.
	db := newTestDB(t)
	s1, s2 := joinSchemas()
	db.CreateRelationBTree("r1", s1, 0)
	db.CreateRelationHash("r2", s2, 0, 8)
	tx := db.Begin()
	for j := int64(0); j < 5; j++ {
		tx.Insert("r2", tuple.I(j), tuple.S("i"))
	}
	for i := int64(0); i < 10; i++ {
		tx.Insert("r1", tuple.I(i), tuple.I(i%5), tuple.S("p"))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Deferred SP view puts an HR on r1; QM join view shares r1.
	spOnR1 := Def{
		Name:       "sp",
		Kind:       SelectProject,
		Relations:  []string{"r1"},
		Pred:       pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(100)}),
		Project:    [][]int{{0}},
		ViewKeyCol: 0,
	}
	if err := db.CreateView(spOnR1, Deferred); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(joinDef("j"), QueryModification); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	if _, err := tx.Insert("r1", tuple.I(50), tuple.I(2), tuple.S("new")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	h, _ := db.HR("r1")
	if h.ADLen() == 0 {
		t.Fatal("AD empty before QM join query")
	}
	rows, err := db.QueryView("j", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Errorf("QM join rows = %d, want 11 (pending insert visible)", len(rows))
	}
	if h.ADLen() != 0 {
		t.Error("QM join query did not fold the shared HR")
	}
	// And the sibling deferred view was refreshed by the fold.
	spRows, err := db.QueryView("sp", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(spRows) != 11 {
		t.Errorf("deferred sibling rows = %d, want 11", len(spRows))
	}
}

func TestQMAggregateSeesUnfoldedHRChanges(t *testing.T) {
	db := newTestDB(t)
	db.CreateRelationBTree("r", spSchema(), 0)
	tx := db.Begin()
	for i := int64(0); i < 40; i++ {
		tx.Insert("r", tuple.I(i), tuple.I(i), tuple.S("s"))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	spView := spDef("def")
	if err := db.CreateView(spView, Deferred); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(aggDef("qmagg", agg.Sum), QueryModification); err != nil {
		t.Fatal(err)
	}
	base, _, err := db.QueryAggregate("qmagg") // sum of a for k in [10,30) = 10..29 → 390
	if err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	tx.Insert("r", tuple.I(15), tuple.I(1000), tuple.S("x"))
	tx.Delete("r", tuple.I(12), 13)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, ok, err := db.QueryAggregate("qmagg")
	if err != nil || !ok {
		t.Fatal(err)
	}
	want := base + 1000 - 12
	if got != want {
		t.Errorf("QM aggregate over live HR = %v, want %v", got, want)
	}
}

func TestAggregateOverHashRelation(t *testing.T) {
	// rebuildAggregate's and computeAggregateFromBase's hash-relation
	// paths (ScanAll instead of a clustered range scan).
	db := newTestDB(t)
	s := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int))
	if _, err := db.CreateRelationHash("h", s, 0, 8); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := int64(0); i < 30; i++ {
		tx.Insert("h", tuple.I(i), tuple.I(i))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	def := Def{
		Name:      "hsum",
		Kind:      Aggregate,
		Relations: []string{"h"},
		Pred:      pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(10)}),
		AggKind:   agg.Sum,
		AggCol:    1,
	}
	for _, st := range []Strategy{QueryModification, Immediate} {
		name := def
		name.Name = def.Name + st.String()
		if err := db.CreateView(name, st); err != nil {
			t.Fatal(err)
		}
		v, ok, err := db.QueryAggregate(name.Name)
		if err != nil || !ok || v != 45 {
			t.Errorf("%v over hash relation = %v ok=%v err=%v, want 45", st, v, ok, err)
		}
	}
	// Min-delete recompute over the hash relation exercises the hash
	// rebuild path.
	minDef := def
	minDef.Name = "hmin"
	minDef.AggKind = agg.Min
	if err := db.CreateView(minDef, Immediate); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	tx.Delete("h", tuple.I(0), 1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.QueryAggregate("hmin")
	if err != nil || !ok || v != 1 {
		t.Errorf("MIN after extreme delete = %v ok=%v err=%v, want 1", v, ok, err)
	}
}
