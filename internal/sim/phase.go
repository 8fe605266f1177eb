package sim

import (
	"viewmat/internal/core"
	"viewmat/internal/costmodel"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
	"viewmat/internal/workload"
)

// The phase-shift experiment: one seeded zipfian stream, query-heavy
// then update-heavy, replayed against two static strategies and the
// adaptive advisor. Which strategy is cheapest depends on the k/q mix
// (the paper's result), so each static arm is right in one phase; the
// advisor, starting on query modification, has to find the crossover
// from what it observes. Every cost is a meter delta priced at C1/C2/C3,
// so the comparison is exact and deterministic per seed.

// The experiment's fixed parameters.
const (
	ShiftN      = 1500 // tuples in the base relation
	ShiftF      = 0.6  // view selectivity: immediate's maintenance is visible next to the base update
	ShiftFV     = 0.04 // fraction of the view each query retrieves
	ShiftSkew   = 1.2  // update-key Zipf parameter
	shiftFrames = 12   // Model 1's buffer-pool frames (Models 2 and 3 size theirs as Run does)
	ShiftTick   = 15   // the adaptive arm runs AdaptTick after every this many ops
)

// ShiftPhases are the k:q:l mixes, in order.
var ShiftPhases = []struct{ K, Q, L float64 }{{30, 270, 4}, {270, 30, 4}}

// shiftAdvisor is the adaptive arm's advisor: the default hysteresis,
// and a short half-life, so the estimates track the live mix and notice
// the shift within a phase.
var shiftAdvisor = core.AdvisorOptions{Hysteresis: 0.2, MinObservations: 12, HalfLife: 16}

// shiftArms are the arms, in order: static query modification, static
// immediate, and adaptive (starting on query modification).
var shiftArms = []struct {
	name     string
	strategy core.Strategy
	adaptive bool
}{
	{"query-modification", core.QueryModification, false},
	{"immediate", core.Immediate, false},
	{"adaptive", core.QueryModification, true},
}

// Flip is one strategy flip of the adaptive arm, made by the AdaptTick
// that followed the run's first Op operations.
type Flip struct {
	Op int
	core.FlipReport
}

// ShiftPhase is one arm's cost over one phase, in model-ms per
// operation: over the whole phase, and over its second half, after the
// advisor has had half a phase to settle.
type ShiftPhase struct {
	Whole, Settled float64
	Flips          []Flip
}

// ShiftArm is one arm's run: its phases and its model-ms per operation
// over the whole run.
type ShiftArm struct {
	Name   string
	Phases []ShiftPhase
	Run    float64
}

// PhaseShift runs the experiment on one model and seed, one arm per
// entry of shiftArms. Model 1 runs on a relation whose view predicate
// is on a secondary-indexed column (see shiftSetup), so query
// modification pays the unclustered plan; Models 2 and 3 use the same
// data as Run.
func PhaseShift(model Model, seed int64) ([]ShiftArm, error) {
	phases := make([]workload.Phase, len(ShiftPhases))
	for i, ph := range ShiftPhases {
		p := costmodel.Default()
		p.N, p.F, p.FV, p.K, p.Q, p.L = ShiftN, ShiftF, ShiftFV, ph.K, ph.Q, ph.L
		phases[i] = workload.Phase{Params: p, Skew: ShiftSkew}
	}
	ops, starts, err := workload.GeneratePhased(seed, phases...)
	if err != nil {
		return nil, err
	}
	starts = append(starts, len(ops))
	out := make([]ShiftArm, 0, len(shiftArms))
	for _, arm := range shiftArms {
		cfg := Config{Model: model, Strategy: arm.strategy, Params: phases[0].Params, Seed: seed}
		res, err := shiftArm(cfg, arm.adaptive, ops, starts)
		if err != nil {
			return nil, err
		}
		res.Name = arm.name
		out = append(out, res)
	}
	return out, nil
}

// shiftArm replays ops against one arm. starts holds each phase's first
// operation, then len(ops).
func shiftArm(cfg Config, adaptive bool, ops []workload.Operation, starts []int) (ShiftArm, error) {
	db, ids, update, err := shiftSetup(cfg)
	if err != nil {
		return ShiftArm{}, err
	}
	if adaptive {
		if err := db.EnableAdaptive(shiftAdvisor); err != nil {
			return ShiftArm{}, err
		}
	}
	p := cfg.Params
	cost := func() float64 { return db.Meter().Snapshot().Cost(p.C1, p.C2, p.C3) }
	var arm ShiftArm
	runStart := cost()
	for ph := 0; ph+1 < len(starts); ph++ {
		lo, hi := starts[ph], starts[ph+1]
		settle := lo + (hi-lo)/2
		var res ShiftPhase
		phaseStart, settleStart := cost(), 0.0
		for i := lo; i < hi; i++ {
			if i == settle {
				settleStart = cost()
			}
			if err := step(db, cfg, ids, update, ops[i]); err != nil {
				return ShiftArm{}, err
			}
			if adaptive && (i+1)%ShiftTick == 0 {
				flips, err := db.AdaptTick()
				if err != nil {
					return ShiftArm{}, err
				}
				for _, f := range flips {
					res.Flips = append(res.Flips, Flip{Op: i + 1, FlipReport: f})
				}
			}
		}
		end := cost()
		res.Whole = (end - phaseStart) / float64(hi-lo)
		res.Settled = (end - settleStart) / float64(hi-settle)
		arm.Phases = append(arm.Phases, res)
	}
	arm.Run = (cost() - runStart) / float64(len(ops))
	return arm, nil
}

// shiftSetup builds an arm's database: Run's for Models 2 and 3, and for
// Model 1 a view over a non-clustering column — r(k, a, p) clustered on
// k with a secondary index on a = k·1000003 mod N, and the view
// a ∈ [0, f·N) keyed on a. The multiplier is prime, so a is a
// permutation of the keys and a view-key range maps to tuples scattered
// across r's pages, the placement the unclustered plan's cost assumes.
// An update rewrites p only, so view membership never changes.
func shiftSetup(cfg Config) (*core.Database, map[int64]uint64, updater, error) {
	if cfg.Model != Model1 {
		db, ids, err := setup(cfg)
		return db, ids, applyUpdate(cfg), err
	}
	p := cfg.Params
	n := int64(p.N)
	perm := func(k int64) int64 { return k * 1000003 % n }
	db := core.NewDatabase(core.Options{PageSize: int(p.B), PoolFrames: shiftFrames})
	schema := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("p", tuple.Int))
	if _, err := db.CreateRelationBTree("r", schema, 0); err != nil {
		return nil, nil, nil, err
	}
	if err := db.CreateSecondaryIndex("r", 1); err != nil {
		return nil, nil, nil, err
	}
	ids := make(map[int64]uint64, n)
	tx := db.Begin()
	for k := int64(0); k < n; k++ {
		id, err := tx.Insert("r", tuple.I(k), tuple.I(perm(k)), tuple.I(k%997))
		if err != nil {
			return nil, nil, nil, err
		}
		ids[k] = id
	}
	if err := tx.Commit(); err != nil {
		return nil, nil, nil, err
	}
	def := core.Def{
		Name:      viewName,
		Kind:      core.SelectProject,
		Relations: []string{"r"},
		Pred: pred.New(
			pred.Cmp{Rel: 0, Col: 1, Op: pred.Ge, Val: tuple.I(0)},
			pred.Cmp{Rel: 0, Col: 1, Op: pred.Lt, Val: tuple.I(int64(p.F * p.N))},
		),
		Project:    [][]int{{1, 2}},
		ViewKeyCol: 0,
	}
	if err := db.CreateView(def, cfg.Strategy); err != nil {
		return nil, nil, nil, err
	}
	update := func(tx *core.Tx, key int64, id uint64, payload int64) (uint64, error) {
		return tx.Update("r", tuple.I(key), id, tuple.I(key), tuple.I(perm(key)), tuple.I(payload))
	}
	return db, ids, update, nil
}
