// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). The Figure
// benchmarks regenerate each figure's data from the analytic cost
// model and report its headline quantity as a custom metric; the Sim
// benchmarks replay the paper's workload against the executable engine
// and report measured milliseconds per view query for each strategy.
//
//	go test -bench . -benchmem
package viewmat_test

import (
	"fmt"
	"testing"
	"time"

	"viewmat/internal/agg"
	"viewmat/internal/core"
	"viewmat/internal/costmodel"
	"viewmat/internal/figures"
	"viewmat/internal/pred"
	"viewmat/internal/report"
	"viewmat/internal/sim"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/workload"
)

// --- analytic figures -------------------------------------------------------

func BenchmarkTableParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := figures.ParamsTable(costmodel.Default())
		if len(fig.Rows) == 0 {
			b.Fatal("empty params table")
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = figures.Figure1(costmodel.Default())
	}
	// Headline: the P at which clustered overtakes immediate.
	if cross, ok := costmodel.CrossoverP(costmodel.Default(), costmodel.Model1Costs,
		costmodel.AlgImmediate, costmodel.AlgClustered, 0.05, 0.9); ok {
		b.ReportMetric(cross, "crossoverP")
	}
	_ = report.Render(fig)
}

func benchRegions(b *testing.B, gen func(costmodel.Params) *figures.Figure, deferredAllowed bool) {
	b.Helper()
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = gen(costmodel.Default())
	}
	counts := map[costmodel.Algorithm]int{}
	for _, pt := range fig.Regions {
		counts[pt.Best]++
	}
	b.ReportMetric(float64(counts[costmodel.AlgClustered]+counts[costmodel.AlgLoopJoin]), "qmCells")
	b.ReportMetric(float64(counts[costmodel.AlgImmediate]), "immediateCells")
	b.ReportMetric(float64(counts[costmodel.AlgDeferred]), "deferredCells")
	if !deferredAllowed && counts[costmodel.AlgDeferred] > 0 {
		b.Fatal("deferred unexpectedly best somewhere")
	}
}

func BenchmarkFigure2(b *testing.B) { benchRegions(b, figures.Figure2, false) }
func BenchmarkFigure3(b *testing.B) { benchRegions(b, figures.Figure3, false) }
func BenchmarkFigure4(b *testing.B) { benchRegions(b, figures.Figure4, true) }

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if fig := figures.Figure5(costmodel.Default()); len(fig.Series) != 3 {
			b.Fatal("figure 5 malformed")
		}
	}
	if cross, ok := costmodel.CrossoverP(costmodel.Default(), costmodel.Model2Costs,
		costmodel.AlgLoopJoin, costmodel.AlgImmediate, 0.5, 0.999); ok {
		b.ReportMetric(cross, "crossoverP")
	}
}

// Model 2's maps may legitimately contain a deferred region ("higher
// values of P, fR2 and l favor deferred view maintenance", §4).
func BenchmarkFigure6(b *testing.B) { benchRegions(b, figures.Figure6, true) }
func BenchmarkFigure7(b *testing.B) { benchRegions(b, figures.Figure7, true) }

func BenchmarkFigure8(b *testing.B) {
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		fig = figures.Figure8(costmodel.Default())
	}
	// Headline: maintenance cost as a fraction of recomputation at l=25.
	var imm, rec float64
	for _, s := range fig.Series {
		switch s.Name {
		case "immediate":
			imm = s.Y[4] // l = 25
		case "clustered (recompute)":
			rec = s.Y[4]
		}
	}
	b.ReportMetric(imm/rec, "maintToRecomputeRatio")
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if fig := figures.Figure9(costmodel.Default()); len(fig.Series) != 5 {
			b.Fatal("figure 9 malformed")
		}
	}
	if cross, ok := costmodel.EqualCostP(costmodel.Default(), 25); ok {
		b.ReportMetric(cross, "equalCostP_l25")
	}
}

func BenchmarkEmpDept(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if fig := figures.EmpDeptFigure(); len(fig.Rows) == 0 {
			b.Fatal("empdept figure empty")
		}
	}
	if cross, ok := costmodel.CrossoverP(costmodel.EmpDept(), costmodel.Model2Costs,
		costmodel.AlgLoopJoin, costmodel.AlgImmediate, 0.001, 0.5); ok {
		b.ReportMetric(cross, "qmWinsAboveP") // paper reports ≈ .08
	}
}

// --- measured engine runs ----------------------------------------------------

// benchParams scales the paper's workload down so one full replay fits
// a benchmark iteration.
func benchParams() costmodel.Params {
	p := costmodel.Default()
	p.N = 2000
	p.K, p.Q, p.L = 10, 10, 5
	return p
}

func benchSim(b *testing.B, model sim.Model, strategy core.Strategy) {
	b.Helper()
	b.ReportAllocs()
	var avg, scope float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Model: model, Strategy: strategy, Params: benchParams(),
			Seed: int64(i + 1), AggKind: agg.Sum,
		})
		if err != nil {
			b.Fatal(err)
		}
		avg = res.AvgPerQuery
		scope = res.ModelScopeAvg
	}
	b.ReportMetric(avg, "msPerQuery")
	b.ReportMetric(scope, "scopeMsPerQuery")
}

func BenchmarkSimModel1QueryMod(b *testing.B)  { benchSim(b, sim.Model1, core.QueryModification) }
func BenchmarkSimModel1Immediate(b *testing.B) { benchSim(b, sim.Model1, core.Immediate) }
func BenchmarkSimModel1Deferred(b *testing.B)  { benchSim(b, sim.Model1, core.Deferred) }
func BenchmarkSimModel2QueryMod(b *testing.B)  { benchSim(b, sim.Model2, core.QueryModification) }
func BenchmarkSimModel2Immediate(b *testing.B) { benchSim(b, sim.Model2, core.Immediate) }
func BenchmarkSimModel2Deferred(b *testing.B)  { benchSim(b, sim.Model2, core.Deferred) }
func BenchmarkSimModel3QueryMod(b *testing.B)  { benchSim(b, sim.Model3, core.QueryModification) }
func BenchmarkSimModel3Immediate(b *testing.B) { benchSim(b, sim.Model3, core.Immediate) }
func BenchmarkSimModel3Deferred(b *testing.B)  { benchSim(b, sim.Model3, core.Deferred) }

// --- ablations (design choices DESIGN.md calls out) --------------------------

// BenchmarkAblationRefreshBatching measures §4's refresh-timing
// argument at the model level: one refresh for a batch of u changes vs
// refreshing in two half-batches.
func BenchmarkAblationRefreshBatching(b *testing.B) {
	p := costmodel.Default().WithP(0.8)
	var once, split float64
	for i := 0; i < b.N; i++ {
		once = costmodel.CDefRefresh1(p)
		half := p
		half.K = p.K / 2
		split = 2 * costmodel.CDefRefresh1(half)
	}
	b.ReportMetric(split/once, "splitToBatchedRatio") // ≥ 1 by the Yao triangle inequality
}

// BenchmarkAblationC3Sensitivity reports how much of the deferred-vs-
// immediate gap the A/D upkeep constant controls (the Figure 4 claim).
func BenchmarkAblationC3Sensitivity(b *testing.B) {
	base := costmodel.Default().WithP(0.5)
	base.F = 1
	var gap1, gap2 float64
	for i := 0; i < b.N; i++ {
		p1 := base
		p1.C3 = 1
		gap1 = costmodel.TotalDeferred1(p1) - costmodel.TotalImmediate1(p1)
		p2 := base
		p2.C3 = 2
		gap2 = costmodel.TotalDeferred1(p2) - costmodel.TotalImmediate1(p2)
	}
	b.ReportMetric(gap1, "gapC3eq1")
	b.ReportMetric(gap2, "gapC3eq2")
}

// BenchmarkSimSweepFigure1 regenerates Figure 1's shape from measured
// engine runs (three P points, all strategies) and reports the
// measured crossover direction.
func BenchmarkSimSweepFigure1(b *testing.B) {
	p := benchParams()
	var points []sim.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = sim.SweepP(sim.Model1, p, []float64{0.1, 0.5, 0.9}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points[0].Measured["immediate"], "lowP_immediate")
	b.ReportMetric(points[0].Measured["query-modification"], "lowP_qm")
	b.ReportMetric(points[2].Measured["immediate"], "highP_immediate")
	b.ReportMetric(points[2].Measured["query-modification"], "highP_qm")
}

// BenchmarkAblationPeriodicRefreshMeasured compares deferred refresh
// policies on the engine: pure on-demand vs refresh-every-commit. The
// §4 claim is that on-demand pays no more refresh I/O: one refresh of
// the whole backlog writes each page it dirties once where per-commit
// refreshes write it once each, y(n, m, a+b) ≤ y(n, m, a) + y(n, m, b).
// Both arms are charged every phase of the same five commits and one
// query: a per-commit refresh runs inside its commit, on the pages the
// commit left in the pool, so its refresh phases alone would read less
// than a cold on-demand refresh for want of the reads its commit paid.
// Reads and writes are reported apart; the writes must obey the
// inequality, and so must the whole run's I/O.
func BenchmarkAblationPeriodicRefreshMeasured(b *testing.B) {
	var onDemand, periodic storage.Stats
	for i := 0; i < b.N; i++ {
		onDemand = measureRefreshIO(b, 0)
		periodic = measureRefreshIO(b, 1)
	}
	b.ReportMetric(float64(onDemand.Reads), "onDemandReads")
	b.ReportMetric(float64(onDemand.Writes), "onDemandWrites")
	b.ReportMetric(float64(periodic.Reads), "perCommitReads")
	b.ReportMetric(float64(periodic.Writes), "perCommitWrites")
	if onDemand.IOs() > periodic.IOs() || onDemand.Writes > periodic.Writes {
		b.Fatalf("on-demand (%v) exceeded per-commit (%v)", onDemand, periodic)
	}
}

// measureRefreshIO runs five 4-row update commits under a Deferred view
// refreshed every `every` commits (0: on demand) and one query, and
// returns what every phase of them charged.
func measureRefreshIO(b *testing.B, every int) storage.Stats {
	b.Helper()
	db := core.NewDatabase(core.Options{PageSize: 512, PoolFrames: 64})
	schema := tupleSchema3()
	if _, err := db.CreateRelationBTree("r", schema, 0); err != nil {
		b.Fatal(err)
	}
	tx := db.Begin()
	ids := map[int64]uint64{}
	for i := int64(0); i < 300; i++ {
		id, err := tx.Insert("r", tuple.I(i), tuple.I(i), tuple.I(i))
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	def := core.Def{
		Name:      "v",
		Kind:      core.SelectProject,
		Relations: []string{"r"},
		Pred: pred.New(
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(60)},
		),
		Project:    [][]int{{0, 1}},
		ViewKeyCol: 0,
	}
	if err := db.CreateView(def, core.Deferred); err != nil {
		b.Fatal(err)
	}
	if every > 0 {
		if err := db.SetDeferredRefreshEvery("v", every); err != nil {
			b.Fatal(err)
		}
	}
	db.ResetStats()
	for round := 0; round < 5; round++ {
		tx := db.Begin()
		for j := int64(0); j < 4; j++ {
			k := (int64(round)*4 + j) % 60
			id, err := tx.Update("r", tuple.I(k), ids[k], tuple.I(k), tuple.I(k+1000), tuple.I(k))
			if err != nil {
				b.Fatal(err)
			}
			ids[k] = id
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := db.QueryView("v", nil); err != nil {
		b.Fatal(err)
	}
	var all storage.Stats
	for _, s := range db.Breakdown() {
		all = all.Add(s)
	}
	return all
}

func tupleSchema3() *tuple.Schema {
	return tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("p", tuple.Int))
}

// BenchmarkAblationSkew measures how update-key skew (hot keys vs the
// paper's uniform assumption) shifts the deferred-vs-immediate gap:
// hot keys saturate the Yao function sooner, favoring deferred's
// batched refresh.
func BenchmarkAblationSkew(b *testing.B) {
	p := benchParams()
	p.K, p.Q = 20, 5
	gap := func(skew float64) float64 {
		var imm, def float64
		for _, st := range []core.Strategy{core.Immediate, core.Deferred} {
			res, err := sim.Run(sim.Config{Model: sim.Model1, Strategy: st, Params: p, Seed: 2, Skew: skew})
			if err != nil {
				b.Fatal(err)
			}
			if st == core.Immediate {
				imm = res.ModelScopeAvg
			} else {
				def = res.ModelScopeAvg
			}
		}
		return def - imm
	}
	var uniform, skewed float64
	for i := 0; i < b.N; i++ {
		uniform = gap(0)
		skewed = gap(2.0)
	}
	b.ReportMetric(uniform, "gapUniform")
	b.ReportMetric(skewed, "gapZipf2")
}

// BenchmarkGroupedAggregate measures the grouped-aggregate extension:
// maintained per-group state versus recomputing every group, on the
// same workload.
func BenchmarkGroupedAggregate(b *testing.B) {
	run := func(strategy core.Strategy) float64 {
		db := core.NewDatabase(core.Options{PageSize: 512, PoolFrames: 64})
		if _, err := db.CreateRelationBTree("r", tupleSchema3(), 0); err != nil {
			b.Fatal(err)
		}
		tx := db.Begin()
		ids := map[int64]uint64{}
		for i := int64(0); i < 400; i++ {
			id, err := tx.Insert("r", tuple.I(i), tuple.I(i%8), tuple.I(i))
			if err != nil {
				b.Fatal(err)
			}
			ids[i] = id
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		def := core.Def{
			Name:      "byg",
			Kind:      core.GroupedAggregate,
			Relations: []string{"r"},
			Pred:      pred.New(),
			AggKind:   agg.Sum,
			AggCol:    2,
			GroupBy:   1,
		}
		if err := db.CreateView(def, strategy); err != nil {
			b.Fatal(err)
		}
		db.ResetStats()
		for round := 0; round < 5; round++ {
			tx := db.Begin()
			k := int64(round * 17 % 400)
			id, err := tx.Update("r", tuple.I(k), ids[k], tuple.I(k), tuple.I((k+1)%8), tuple.I(k*3))
			if err != nil {
				b.Fatal(err)
			}
			ids[k] = id
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			if _, err := db.QueryGroups("byg", nil); err != nil {
				b.Fatal(err)
			}
		}
		p := costmodel.Default()
		return db.Meter().Snapshot().Cost(p.C1, p.C2, p.C3) / float64(db.Queries)
	}
	var maintained, recomputed float64
	for i := 0; i < b.N; i++ {
		maintained = run(core.Immediate)
		recomputed = run(core.QueryModification)
	}
	b.ReportMetric(maintained, "maintainedMsPerQuery")
	b.ReportMetric(recomputed, "recomputeMsPerQuery")
	if maintained >= recomputed {
		b.Fatalf("maintained grouped aggregate (%v) should beat recompute (%v)", maintained, recomputed)
	}
}

// --- concurrency ------------------------------------------------------------

// benchRefreshAll measures RefreshAll over nViews independent stale
// views with the given worker bound. A snapshot view refreshes by full
// recompute (the heaviest refresh unit), a deferred view by folding its
// relation's AD file and applying the net changes. Staleness is rebuilt
// off-timer each iteration. With per-page latency the refresh is in the
// disk-bound regime the paper models, where workers overlap I/O waits;
// without it the arms measure what the pool buys on CPU alone.
func benchRefreshAll(b *testing.B, strategy core.Strategy, nViews, workers int, latency time.Duration) {
	schema := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("s", tuple.String))
	build := func() *core.Database {
		db := core.NewDatabase(core.Options{
			PageSize:           512,
			PoolFrames:         512,
			MaxRefreshWorkers:  workers,
			SimulatedIOLatency: latency,
		})
		for v := 0; v < nViews; v++ {
			rel := fmt.Sprintf("r%d", v)
			if _, err := db.CreateRelationBTree(rel, schema, 0); err != nil {
				b.Fatal(err)
			}
			tx := db.Begin()
			for i := 0; i < 400; i++ {
				if _, err := tx.Insert(rel, tuple.I(int64(i)), tuple.I(int64(i*2)), tuple.S("s")); err != nil {
					b.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			def := core.Def{
				Name:       fmt.Sprintf("v%d", v),
				Kind:       core.SelectProject,
				Relations:  []string{rel},
				Pred:       pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(0)}),
				Project:    [][]int{{0, 2}},
				ViewKeyCol: 0,
			}
			if err := db.CreateView(def, strategy); err != nil {
				b.Fatal(err)
			}
		}
		tx := db.Begin()
		for v := 0; v < nViews; v++ {
			if _, err := tx.Insert(fmt.Sprintf("r%d", v), tuple.I(int64(1000+v)), tuple.I(1), tuple.S("n")); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		return db
	}
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		db := build()
		b.StartTimer()
		if err := db.RefreshAll(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
	}
}

func BenchmarkRefreshAllSerial(b *testing.B) {
	benchRefreshAll(b, core.Snapshot, 8, 1, 200*time.Microsecond)
}
func BenchmarkRefreshAllWorkers4(b *testing.B) {
	benchRefreshAll(b, core.Snapshot, 8, 4, 200*time.Microsecond)
}

// benchRefreshAllNoLatency runs the zero-latency grid — snapshot and
// deferred views, 8 and 64 of them — at one worker bound, as
// sub-benchmarks named strategy/views=n.
func benchRefreshAllNoLatency(b *testing.B, workers int) {
	for _, st := range []core.Strategy{core.Snapshot, core.Deferred} {
		for _, n := range []int{8, 64} {
			b.Run(fmt.Sprintf("%s/views=%d", st, n), func(b *testing.B) { benchRefreshAll(b, st, n, workers, 0) })
		}
	}
}

func BenchmarkRefreshAllSerialNoLatency(b *testing.B)   { benchRefreshAllNoLatency(b, 1) }
func BenchmarkRefreshAllWorkers4NoLatency(b *testing.B) { benchRefreshAllNoLatency(b, 4) }

// benchHierarchyRefresh measures end-to-end maintenance of a view
// chain of the given depth (root over the base relation plus depth-1
// stacked children): a burst of single-row update transactions — keys
// uniform or zipfian — followed by RefreshAll and a read of the
// deepest view. The delta variant maintains children by draining the
// parent's delta log (deferred chain); the recompute variant rebuilds
// them from the parent materialization every cycle (zero-interval
// snapshots). The Zipf arms measure the same plain deferred chain
// under a skewed update burst.
func benchHierarchyRefresh(b *testing.B, depth int, skew float64, recompute bool) {
	schema := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("s", tuple.String))
	const keySpace = 200
	keys := workload.KeyStream(24, keySpace, skew, 42)
	childStrategy := core.Deferred
	if recompute {
		childStrategy = core.Snapshot
	}
	spDef := func(name, src string, hi int64, root bool) core.Def {
		proj := [][]int{{0, 1}}
		if root {
			proj = [][]int{{0, 2}}
		}
		return core.Def{
			Name:      name,
			Kind:      core.SelectProject,
			Relations: []string{src},
			Pred: pred.New(
				pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(0)},
				pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(hi)},
			),
			Project:    proj,
			ViewKeyCol: 0,
		}
	}
	build := func() *core.Database {
		db := core.NewDatabase(core.Options{
			PageSize:           512,
			PoolFrames:         512,
			SimulatedIOLatency: 200 * time.Microsecond,
		})
		if _, err := db.CreateRelationBTree("r", schema, 0); err != nil {
			b.Fatal(err)
		}
		tx := db.Begin()
		for i := 0; i < 1600; i++ {
			if _, err := tx.Insert("r", tuple.I(int64(i%keySpace)), tuple.I(int64(i)), tuple.S("s")); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		specs := []core.ViewSpec{{Def: spDef("h0", "r", keySpace, true), Strategy: core.Deferred}}
		for d := 1; d < depth; d++ {
			specs = append(specs, core.ViewSpec{
				Def:      spDef(fmt.Sprintf("h%d", d), fmt.Sprintf("h%d", d-1), keySpace-int64(d), false),
				Strategy: childStrategy,
			})
		}
		if err := db.CreateViews(specs); err != nil {
			b.Fatal(err)
		}
		if recompute {
			for d := 1; d < depth; d++ {
				if err := db.SetSnapshotInterval(fmt.Sprintf("h%d", d), 0); err != nil {
					b.Fatal(err)
				}
			}
		}
		return db
	}
	deepest := fmt.Sprintf("h%d", depth-1)
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		db := build()
		b.StartTimer()
		for _, k := range keys {
			tx := db.Begin()
			if _, err := tx.Insert("r", tuple.I(k), tuple.I(k*2), tuple.S("u")); err != nil {
				b.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.RefreshAll(); err != nil {
			b.Fatal(err)
		}
		if _, err := db.QueryView(deepest, nil); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
	}
}

func BenchmarkHierarchyRefreshDepth1UniformDelta(b *testing.B) { benchHierarchyRefresh(b, 1, 0, false) }
func BenchmarkHierarchyRefreshDepth2UniformDelta(b *testing.B) { benchHierarchyRefresh(b, 2, 0, false) }
func BenchmarkHierarchyRefreshDepth3UniformDelta(b *testing.B) { benchHierarchyRefresh(b, 3, 0, false) }
func BenchmarkHierarchyRefreshDepth1ZipfDelta(b *testing.B)    { benchHierarchyRefresh(b, 1, 1.5, false) }
func BenchmarkHierarchyRefreshDepth2ZipfDelta(b *testing.B)    { benchHierarchyRefresh(b, 2, 1.5, false) }
func BenchmarkHierarchyRefreshDepth3ZipfDelta(b *testing.B)    { benchHierarchyRefresh(b, 3, 1.5, false) }
func BenchmarkHierarchyRefreshDepth2UniformRecompute(b *testing.B) {
	benchHierarchyRefresh(b, 2, 0, true)
}
func BenchmarkHierarchyRefreshDepth3UniformRecompute(b *testing.B) {
	benchHierarchyRefresh(b, 3, 0, true)
}
func BenchmarkHierarchyRefreshDepth2ZipfRecompute(b *testing.B) {
	benchHierarchyRefresh(b, 2, 1.5, true)
}
func BenchmarkHierarchyRefreshDepth3ZipfRecompute(b *testing.B) {
	benchHierarchyRefresh(b, 3, 1.5, true)
}
