// Package sim runs the paper's workloads against the executable engine
// and measures the average cost per view query, priced with the
// model's unit costs (C1 per screen, C2 per page I/O, C3 per A/D
// touch) — the operational validation of the analytic cost model.
//
// Measured totals include the base-update I/O that the model factors
// out (it is common to all strategies, so orderings are preserved;
// EXPERIMENTS.md discusses the offset), and the fold cost of deferred
// maintenance, which is the base-update work the other strategies pay
// inline.
package sim

import (
	"fmt"

	"viewmat/internal/agg"
	"viewmat/internal/core"
	"viewmat/internal/costmodel"
	"viewmat/internal/hr"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/workload"
)

// Model selects which of the paper's view models to simulate.
type Model int

const (
	// Model1 is the selection-projection view.
	Model1 Model = 1
	// Model2 is the two-way join view.
	Model2 Model = 2
	// Model3 is the aggregate view.
	Model3 Model = 3
)

// Config configures one simulation run.
type Config struct {
	Model    Model
	Strategy core.Strategy
	// Plan overrides the query-modification access path (PlanAuto
	// resolves to clustered for Model 1/3 and loopjoin for Model 2).
	Plan   core.QueryPlan
	Params costmodel.Params
	Seed   int64
	// AggKind selects the Model-3 aggregate (default Sum).
	AggKind agg.Kind
	// Skew is the update-key Zipf parameter (0 = uniform, the paper's
	// assumption; see workload.Spec.Skew).
	Skew float64
	// SnapshotEvery sets the staleness budget (in commits) when
	// Strategy is core.Snapshot; 0 refreshes at every read that
	// follows a touching commit.
	SnapshotEvery int
}

// Result is one run's measurement.
type Result struct {
	Config      Config
	AvgPerQuery float64 // measured ms per query (C1/C2/C3-priced), all phases
	// ModelScopeAvg excludes the commit-write and fold phases — the
	// base-relation update work the analytic model factors out of
	// every strategy (it prices only the *extra* HR I/O, via C_AD).
	// This is the measurement directly comparable to the TOTAL
	// formulas; AvgPerQuery is the fair whole-system number.
	ModelScopeAvg float64
	Queries       int
	Commits       int
	Totals        storage.Stats
	Breakdown     map[core.Phase]storage.Stats
	// Model is the analytic prediction for the same parameters.
	Model float64
	// PlanTrees renders the view's last executed operator tree per
	// path ("query", "refresh", "populate"), priced at the run's unit
	// costs.
	PlanTrees map[string]string
	// PagesPruned counts data pages zone maps skipped unread across
	// the whole run.
	PagesPruned int64
}

// viewName is the single view every simulation uses.
const viewName = "v"

// Run builds the database, loads the data, replays the generated
// workload and reports the measured average cost per query.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	db, ids, err := setup(cfg)
	if err != nil {
		return nil, err
	}
	ops, err := workload.Generate(workload.Spec{Params: cfg.Params, Seed: cfg.Seed, Skew: cfg.Skew})
	if err != nil {
		return nil, err
	}
	if cfg.Strategy == core.Snapshot {
		if err := db.SetSnapshotInterval(viewName, cfg.SnapshotEvery); err != nil {
			return nil, err
		}
	}
	db.ResetStats()

	p := cfg.Params
	update := applyUpdate(cfg)
	for _, op := range ops {
		if err := step(db, cfg, ids, update, op); err != nil {
			return nil, err
		}
	}

	totals := db.Meter().Snapshot()
	breakdown := db.Breakdown()
	scope := totals.Sub(breakdown[core.PhaseCommitWrite]).Sub(breakdown[core.PhaseFold])
	res := &Result{
		Config:        cfg,
		Queries:       db.Queries,
		Commits:       db.Commits,
		Totals:        totals,
		Breakdown:     breakdown,
		AvgPerQuery:   totals.Cost(p.C1, p.C2, p.C3) / float64(db.Queries),
		ModelScopeAvg: scope.Cost(p.C1, p.C2, p.C3) / float64(db.Queries),
		Model:         Predict(cfg),
		PagesPruned:   db.PagesPruned(),
	}
	if trees, err := db.RenderPlans(viewName, p.C1, p.C2, p.C3); err == nil {
		res.PlanTrees = trees
	}
	return res, nil
}

// updater rewrites the base tuple with clustering key key and tuple id
// id, returning the new tuple's id.
type updater func(tx *core.Tx, key int64, id uint64, payload int64) (uint64, error)

// step replays one workload operation: an update as one transaction of
// its tuple modifications, a query as one read of the view.
func step(db *core.Database, cfg Config, ids map[int64]uint64, update updater, op workload.Operation) error {
	if op.Kind == workload.OpUpdate {
		tx := db.Begin()
		for i, key := range op.Keys {
			newID, err := update(tx, key, ids[key], op.NewPayload[i])
			if err != nil {
				return err
			}
			ids[key] = newID
		}
		return tx.Commit()
	}
	if cfg.Model == Model3 {
		_, _, err := db.QueryAggregate(viewName)
		return err
	}
	rg := pred.NewRange(tuple.I(op.QueryLo), tuple.I(op.QueryHi), true, true)
	_, err := db.QueryViewLanes(viewName, rg, &cfg.Plan)
	return err
}

// applyUpdate is the configured model's tuple modification.
func applyUpdate(cfg Config) updater {
	return func(tx *core.Tx, key int64, curID uint64, payload int64) (uint64, error) {
		switch cfg.Model {
		case Model2:
			// R1(k, jv, pay): keep k and jv, change pay.
			jv := key % int64(cfg.Params.FR2*cfg.Params.N)
			return tx.Update("r1", tuple.I(key), curID, tuple.I(key), tuple.I(jv), tuple.I(payload))
		default:
			// R(k, a, pay): keep k, change a (the aggregated column) and pay.
			return tx.Update("r", tuple.I(key), curID, tuple.I(key), tuple.I(payload%1000), tuple.S(widePayload(payload)))
		}
	}
}

// widePayload builds the deterministic wide column that stands in for
// the half of R's attributes the view projects away: Model 1 assumes
// view tuples are half the size of base tuples (S/2), so the base
// relation must actually carry that weight for the materialized copy's
// page-density advantage to exist.
func widePayload(seed int64) string {
	const width = 56
	b := make([]byte, width)
	for i := range b {
		b[i] = byte('a' + (seed+int64(i))%26)
	}
	return string(b)
}

// setup builds relations, seed data and the view; returns the id map
// (clustering key → current tuple id).
func setup(cfg Config) (*core.Database, map[int64]uint64, error) {
	p := cfg.Params
	n := int64(p.N)
	db := core.NewDatabase(core.Options{
		PageSize:   int(p.B),
		PoolFrames: poolFramesFor(p),
		HR: hr.Config{
			ADBuckets: adBucketsFor(p),
			BloomKeys: int(4 * p.U() * 2),
		},
	})
	ids := make(map[int64]uint64, n)

	switch cfg.Model {
	case Model2:
		s1 := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("jv", tuple.Int), tuple.Col("pay", tuple.Int))
		s2 := tuple.NewSchema(tuple.Col("jv", tuple.Int), tuple.Col("info", tuple.Int))
		if _, err := db.CreateRelationBTree("r1", s1, 0); err != nil {
			return nil, nil, err
		}
		n2 := int64(p.FR2 * p.N)
		if n2 < 1 {
			n2 = 1
		}
		buckets := int(float64(n2)/p.TuplesPerPage()) + 1
		if _, err := db.CreateRelationHash("r2", s2, 0, buckets); err != nil {
			return nil, nil, err
		}
		tx := db.Begin()
		for j := int64(0); j < n2; j++ {
			if _, err := tx.Insert("r2", tuple.I(j), tuple.I(j*7)); err != nil {
				return nil, nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, nil, err
		}
		tx = db.Begin()
		for i := int64(0); i < n; i++ {
			id, err := tx.Insert("r1", tuple.I(i), tuple.I(i%n2), tuple.I(i))
			if err != nil {
				return nil, nil, err
			}
			ids[i] = id
			if i%5000 == 4999 { // bound transaction size during load
				if err := tx.Commit(); err != nil {
					return nil, nil, err
				}
				tx = db.Begin()
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, nil, err
		}
		def := core.Def{
			Name:      viewName,
			Kind:      core.Join,
			Relations: []string{"r1", "r2"},
			Pred: pred.New(
				pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(int64(p.F * p.N))},
				pred.JoinEq{LRel: 0, LCol: 1, RRel: 1, RCol: 0},
			),
			Project:    [][]int{{0, 2}, {1}},
			ViewKeyCol: 0,
		}
		if err := db.CreateView(def, cfg.Strategy); err != nil {
			return nil, nil, err
		}
	default:
		s := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("pay", tuple.String))
		if _, err := db.CreateRelationBTree("r", s, 0); err != nil {
			return nil, nil, err
		}
		tx := db.Begin()
		for i := int64(0); i < n; i++ {
			id, err := tx.Insert("r", tuple.I(i), tuple.I(i%1000), tuple.S(widePayload(i)))
			if err != nil {
				return nil, nil, err
			}
			ids[i] = id
			if i%5000 == 4999 {
				if err := tx.Commit(); err != nil {
					return nil, nil, err
				}
				tx = db.Begin()
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, nil, err
		}
		viewPred := pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(int64(p.F * p.N))})
		if cfg.Model == Model3 {
			def := core.Def{
				Name:      viewName,
				Kind:      core.Aggregate,
				Relations: []string{"r"},
				Pred:      viewPred,
				AggKind:   cfg.AggKind,
				AggCol:    1,
			}
			if err := db.CreateView(def, cfg.Strategy); err != nil {
				return nil, nil, err
			}
		} else {
			def := core.Def{
				Name:       viewName,
				Kind:       core.SelectProject,
				Relations:  []string{"r"},
				Pred:       viewPred,
				Project:    [][]int{{0, 1}}, // half the attributes, per Model 1
				ViewKeyCol: 0,
			}
			if err := db.CreateView(def, cfg.Strategy); err != nil {
				return nil, nil, err
			}
		}
	}
	return db, ids, nil
}

// poolFramesFor sizes the buffer pool to the model's assumption: large
// enough to keep R2 (fR2·b pages) resident during a join, small
// relative to the base relation.
func poolFramesFor(p costmodel.Params) int {
	frames := int(p.FR2*p.Blocks()) + 64
	if frames < 128 {
		frames = 128
	}
	return frames
}

// adBucketsFor sizes the AD file at its expected occupancy of 2u
// tuples.
func adBucketsFor(p costmodel.Params) int {
	b := int(2 * p.U() / p.TuplesPerPage())
	if b < 2 {
		b = 2
	}
	return b
}

// Predict returns the analytic model's TOTAL for the configuration: the
// row of costmodel.CostsFor its strategy — for query modification, its
// access path — is priced at.
func Predict(cfg Config) float64 {
	costs := costmodel.CostsFor(int(cfg.Model), cfg.Params, max(1, float64(cfg.SnapshotEvery)))
	if cfg.Strategy != core.QueryModification {
		for alg, cost := range costs {
			if core.StrategyFor(alg) == cfg.Strategy {
				return cost
			}
		}
	}
	switch {
	case cfg.Model == Model2:
		return costs[costmodel.AlgLoopJoin]
	case cfg.Model != Model3 && cfg.Plan == core.PlanUnclustered:
		return costs[costmodel.AlgUnclustered]
	case cfg.Model != Model3 && cfg.Plan == core.PlanSequential:
		return costs[costmodel.AlgSequential]
	}
	return costs[costmodel.AlgClustered]
}

// Comparison holds one strategy's measured and predicted costs.
type Comparison struct {
	Strategy string
	// Measured is the whole-system average per query; ModelScope
	// excludes base-update phases (see Result).
	Measured   float64
	ModelScope float64
	Model      float64
	// PagesPruned is the run's total zone-map-pruned page count;
	// PrunedPerQuery averages it over the queries issued.
	PagesPruned    int64
	PrunedPerQuery float64
}

// PaperStrategies are the three strategies the paper compares;
// AllStrategies adds the two extensions.
var (
	PaperStrategies = []core.Strategy{core.QueryModification, core.Immediate, core.Deferred}
	AllStrategies   = []core.Strategy{core.QueryModification, core.Immediate, core.Deferred, core.Snapshot, core.RecomputeOnDemand}
)

// CompareStrategies runs cfg once per strategy (cfg.Strategy is
// ignored), at the same parameters and seed, returning measured-vs-model
// rows in the order given.
func CompareStrategies(cfg Config, strategies []core.Strategy) ([]Comparison, error) {
	out := make([]Comparison, 0, len(strategies))
	for _, st := range strategies {
		cfg.Strategy = st
		res, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("sim: %v/%v: %w", cfg.Model, st, err)
		}
		out = append(out, Comparison{
			Strategy:       st.String(),
			Measured:       res.AvgPerQuery,
			ModelScope:     res.ModelScopeAvg,
			Model:          res.Model,
			PagesPruned:    res.PagesPruned,
			PrunedPerQuery: float64(res.PagesPruned) / float64(res.Queries),
		})
	}
	return out, nil
}

// Compare is CompareStrategies over the paper's three, summing for
// Model 3.
func Compare(model Model, params costmodel.Params, seed int64) ([]Comparison, error) {
	return CompareStrategies(Config{Model: model, Params: params, Seed: seed, AggKind: agg.Sum}, PaperStrategies)
}

// CompareAll is Compare over all five strategies (snapshot runs with
// the given refresh period; its reads may be stale by design).
func CompareAll(model Model, params costmodel.Params, seed int64, snapshotEvery int) ([]Comparison, error) {
	return CompareStrategies(Config{Model: model, Params: params, Seed: seed, AggKind: agg.Sum, SnapshotEvery: snapshotEvery}, AllStrategies)
}
