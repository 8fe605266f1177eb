package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"viewmat/internal/costmodel"
)

// Online adaptive strategy selection. The paper's tables say which
// maintenance strategy wins for given workload parameters; this file
// closes the loop at runtime. A per-view observer folds each commit's
// written/screened tuple counts and each query's retrieved fraction
// into a costmodel.Estimator (exponential decay, so a workload phase
// shift ages out instead of averaging away). AdaptTick re-runs the
// model tables against the measured parameters and flips a view's
// strategy when the predicted win clears a hysteresis threshold that
// rises with recent flip activity (Markov-style replacement scoring —
// a view that keeps flipping has to show a bigger win to flip again).
//
// Every flip (SetStrategy, strategy.go) happens under the engine write
// lock — between refresh units and never inside a commit — and ends
// with a catalog checkpoint, so a crash recovers to either the pre-flip
// or post-flip catalog, never a hybrid.

// Typed advisor errors.
var (
	// ErrAdaptiveDisabled is returned by AdaptTick when EnableAdaptive
	// has not been called.
	ErrAdaptiveDisabled = errors.New("core: adaptive advisor not enabled")
	// ErrAdaptiveEnabled is returned by EnableAdaptive when an advisor
	// is already on — one restored with the catalog included.
	ErrAdaptiveEnabled = errors.New("core: adaptive advisor already enabled")
	// ErrFlipUnsupported is returned for strategy flips the engine
	// does not perform (grouped-aggregate views, unknown strategies).
	ErrFlipUnsupported = errors.New("core: strategy flip unsupported")
)

// flipScoreDecay ages the per-view flip score once per AdaptTick;
// ~0.84 per tick halves the score every four ticks, so a flip raises
// the view's own hysteresis bar for the next few decisions and then
// stops mattering.
const flipScoreDecay = 0.84

// AdvisorOptions tunes the adaptive advisor. The zero value selects
// the documented defaults.
type AdvisorOptions struct {
	// Hysteresis is the minimum fractional predicted win — (current
	// cost − best cost) / current cost — required to flip a view that
	// has not flipped recently. Recent flips raise the bar: the
	// effective threshold is Hysteresis·(1 + flipScore), where
	// flipScore decays by flipScoreDecay per tick and gains 1 per flip.
	// Default 0.2.
	Hysteresis float64
	// MinObservations is the decayed observation count a view needs
	// before the advisor will consider it. Default 16.
	MinObservations float64
	// HalfLife is the estimator decay half-life in observed
	// operations. Default costmodel.DefaultHalfLife.
	HalfLife float64
}

func (o AdvisorOptions) withDefaults() AdvisorOptions {
	if o.Hysteresis <= 0 || math.IsNaN(o.Hysteresis) {
		o.Hysteresis = 0.2
	}
	if o.MinObservations <= 0 || math.IsNaN(o.MinObservations) {
		o.MinObservations = 16
	}
	if o.HalfLife <= 0 || math.IsNaN(o.HalfLife) {
		o.HalfLife = costmodel.DefaultHalfLife
	}
	return o
}

// advisor is the engine's adaptive state: one estimator per observed
// view. Its own mutex keeps the observe hooks cheap — query paths run
// under the engine read lock, so they cannot mutate shared state
// without it. Lock order is always db.mu → advisor.mu.
type advisor struct {
	mu    sync.Mutex
	opts  AdvisorOptions
	views map[string]*advView
}

type advView struct {
	est    costmodel.Estimator
	fCache float64 // best known view selectivity estimate

	flipScore  float64 // decayed recent-flip count (hysteresis input)
	flips      int
	lastFrom   Strategy
	lastTo     Strategy
	lastReason string

	// Last tick's decision inputs, for AdvisorStats.
	lastParams costmodel.Params
	lastCosts  map[string]float64
	lastBest   string
}

func (a *advisor) view(name string) *advView {
	av, ok := a.views[name]
	if !ok {
		av = &advView{est: costmodel.Estimator{HalfLife: a.opts.HalfLife}}
		a.views[name] = av
	}
	return av
}

// EnableAdaptive turns on per-view workload observation. Flips happen
// only when AdaptTick is called (the daemon runs it on a timer; tests
// call it at chosen boundaries). An advisor already on, restored or
// not, is kept: ErrAdaptiveEnabled.
func (db *Database) EnableAdaptive(opts AdvisorOptions) error {
	db.lock()
	defer db.mu.Unlock()
	if db.adv != nil {
		return ErrAdaptiveEnabled
	}
	db.adv = &advisor{opts: opts.withDefaults(), views: map[string]*advView{}}
	return nil
}

// DisableAdaptive stops observation and discards advisor state.
func (db *Database) DisableAdaptive() {
	db.lock()
	db.adv = nil
	db.mu.Unlock()
}

// observeViewQuery records one query against a top-level view: the
// fraction of the view it retrieved feeds the fv estimate. Called
// under the engine read lock (write lock callers are also safe).
func (db *Database) observeViewQuery(vs *viewState, rows int) {
	adv := db.adv
	if adv == nil || db.parentOf(vs) != nil {
		return
	}
	frac := -1.0
	if total := db.viewRowsEstimate(vs); total > 0 {
		frac = float64(rows) / total
	}
	adv.mu.Lock()
	adv.view(vs.def.Name).est.ObserveQuery(frac)
	adv.mu.Unlock()
}

// viewRowsEstimate is the advisor's denominator for "fraction of the
// view retrieved": exact for materialized views, estimated from the
// cached selectivity otherwise. Unmetered by construction — it must
// not distort the charges it is trying to measure.
func (db *Database) viewRowsEstimate(vs *viewState) float64 {
	switch {
	case vs.def.Kind == Aggregate:
		return 1
	case vs.mat != nil:
		return float64(vs.mat.DistinctRows())
	}
	r0, ok := db.rels[vs.def.Relations[0]]
	if !ok || r0.Len() == 0 {
		return 0
	}
	db.adv.mu.Lock()
	f := db.adv.view(vs.def.Name).fCache
	db.adv.mu.Unlock()
	if f <= 0 {
		return 0
	}
	return f * float64(r0.Len())
}

// observeCommitLocked records one committed transaction against every
// top-level view whose relations it wrote: written-tuple counts feed
// k and l, screen hits feed the live selectivity estimate. Called
// from applyOpsLocked under the engine write lock.
func (db *Database) observeCommitLocked(perRel map[string]*deltas, marked map[string]map[int]*deltas) {
	if db.adv == nil {
		return
	}
	db.adv.mu.Lock()
	defer db.adv.mu.Unlock()
	for name, vs := range db.views {
		if db.parentOf(vs) != nil {
			continue
		}
		written := 0
		for _, rn := range vs.def.Relations {
			if d, ok := perRel[rn]; ok {
				written += len(d.adds) + len(d.dels)
			}
		}
		if written == 0 {
			continue
		}
		hits := 0
		for _, d := range marked[name] {
			hits += len(d.adds) + len(d.dels)
		}
		// The model's l counts tuple modifications, each a delete plus an
		// insert (the 2·l delta tuples its formulas price), so a
		// transaction is l = written/2; hits halve with it, keeping f's
		// ratio. Views whose strategy places no t-locks are never
		// screened, so their zero hit counts are absence of signal, not
		// f≈0.
		db.adv.view(name).est.ObserveUpdate(float64(written)/2, float64(hits)/2, vs.row().tlocks)
	}
}

// FlipReport describes one strategy flip AdaptTick applied.
type FlipReport struct {
	View string
	From string
	To   string
	// PredictedGain is the fractional per-period cost win the model
	// predicted: (cost under From − cost under To) / cost under From.
	PredictedGain float64
	Reason        string
}

// AdvisorViewStat is one view's advisor state, for observability.
type AdvisorViewStat struct {
	View         string
	Strategy     string
	Observations float64
	Flips        int
	FlipScore    float64
	LastFrom     string
	LastTo       string
	LastReason   string
	// Params are the measured parameters of the last tick that
	// considered the view; Costs the per-strategy model costs derived
	// from them; Best the model's unconstrained winner.
	Params costmodel.Params
	Costs  map[string]float64
	Best   string
}

// strategyOrder fixes candidate iteration so ties break
// deterministically.
var strategyOrder = []Strategy{QueryModification, Immediate, Deferred, Snapshot, RecomputeOnDemand}

// AdaptTick runs one advisor decision round: re-derive each observed
// view's measured parameters, price the paper's three strategies, and
// flip views whose predicted win clears the hysteresis threshold. Runs
// entirely under the engine write lock — a safe flip boundary by
// construction.
func (db *Database) AdaptTick() ([]FlipReport, error) {
	db.lock()
	defer db.mu.Unlock()
	if db.adv == nil {
		return nil, ErrAdaptiveDisabled
	}
	opts := db.adv.opts

	type candidate struct {
		vs       *viewState
		av       *advView
		params   costmodel.Params
		costs    map[Strategy]float64
		assigned Strategy
	}
	var cands []*candidate
	db.adv.mu.Lock()
	for _, name := range db.viewNamesLocked() {
		vs := db.views[name]
		if db.parentOf(vs) != nil {
			continue
		}
		av := db.adv.view(name)
		av.flipScore *= flipScoreDecay
		eligible := vs.def.Kind != GroupedAggregate && av.est.Observations() >= opts.MinObservations
		if !eligible {
			continue
		}
		p, err := db.measuredParamsLocked(vs, av)
		if err != nil {
			continue
		}
		costs := db.strategyCostsLocked(vs, p)
		av.lastParams = p
		av.lastCosts = make(map[string]float64, len(costs))
		bestS, bestC := vs.strategy, math.Inf(1)
		for _, s := range strategyOrder {
			c, ok := costs[s]
			if !ok {
				continue
			}
			av.lastCosts[s.String()] = c
			if c < bestC {
				bestS, bestC = s, c
			}
		}
		av.lastBest = bestS.String()
		cands = append(cands, &candidate{vs: vs, av: av, params: p, costs: costs, assigned: vs.strategy})
	}
	db.adv.mu.Unlock()

	// Per-view hysteresis decision: adopt the model's winner only when
	// the predicted fractional win clears the flip-scored threshold.
	for _, c := range cands {
		cur, haveCur := c.costs[c.vs.strategy]
		bestS, bestC := c.vs.strategy, math.Inf(1)
		if haveCur {
			bestC = cur
		}
		for _, s := range strategyOrder {
			cost, ok := c.costs[s]
			if !ok || s == bestS || !db.flipAllowedLocked(c.vs, s) {
				continue
			}
			if cost < bestC {
				bestS, bestC = s, cost
			}
		}
		if bestS == c.vs.strategy {
			continue
		}
		threshold := opts.Hysteresis * (1 + c.av.flipScore)
		if haveCur && cur > 0 && (cur-bestC)/cur <= threshold {
			continue
		}
		c.assigned = bestS
	}

	var reports []FlipReport
	err := db.run(opWhat{kind: "flip"}, func(o *op) error {
		for _, c := range cands {
			from := c.vs.strategy
			if c.assigned == from {
				continue
			}
			if err := o.setStrategyLocked(c.vs, c.assigned); err != nil {
				// A flip earlier in this tick can invalidate a later one
				// (conflict rule); skip it, the next tick re-decides.
				if errors.Is(err, ErrStrategyConflict) || errors.Is(err, ErrHasChildren) || errors.Is(err, ErrFlipUnsupported) {
					continue
				}
				return err
			}
			gain := 0.0
			if cur, ok := c.costs[from]; ok && cur > 0 {
				gain = (cur - c.costs[c.assigned]) / cur
			}
			reason := fmt.Sprintf("model cost %.1f→%.1f per period (k=%.1f q=%.1f l=%.1f f=%.3f fv=%.3f)",
				c.costs[from], c.costs[c.assigned], c.params.K, c.params.Q, c.params.L, c.params.F, c.params.FV)
			db.adv.mu.Lock()
			c.av.flipScore++
			c.av.flips++
			c.av.lastFrom, c.av.lastTo, c.av.lastReason = from, c.assigned, reason
			db.adv.mu.Unlock()
			reports = append(reports, FlipReport{
				View: c.vs.def.Name, From: from.String(), To: c.assigned.String(),
				PredictedGain: gain, Reason: reason,
			})
		}
		return nil
	})
	if err != nil {
		return reports, err
	}
	if len(reports) > 0 {
		if err := db.catalogCheckpointLocked(); err != nil {
			return reports, err
		}
	}
	return reports, nil
}

// flipAllowedLocked reports whether flipping vs to the given strategy
// would violate a structural rule (children needing a
// materialization, the deferred/base-reader conflict).
func (db *Database) flipAllowedLocked(vs *viewState, to Strategy) bool {
	if to == vs.strategy {
		return true
	}
	if !strategyTable[to].stores && len(db.children[vs.def.Name]) > 0 {
		return false
	}
	return db.strategyConflictLocked(vs, to) == nil
}

// measuredParamsLocked derives a full parameter set for one view:
// structural parameters (N, S, B, fR2) read unmetered from the live
// catalog, workload parameters (k, q, l, fv, and f when screening
// observed it) overlaid from the estimator. The result always passes
// Validate — the estimator clamps into the model's domain.
func (db *Database) measuredParamsLocked(vs *viewState, av *advView) (costmodel.Params, error) {
	p := costmodel.Default()
	p.B = float64(db.disk.PageSize())
	r0, ok := db.rels[vs.def.Relations[0]]
	if !ok || r0.Len() == 0 {
		return p, fmt.Errorf("core: view %q has no base data to measure", vs.def.Name)
	}
	db.sizeParamsLocked(&p, vs, r0.Len(), r0.Pages())
	p = av.est.Apply(p)

	// Selectivity, best source first: the materialization's exact row
	// count, the screen-hit rate, then a one-time profiled scan
	// (cached — the advisor never rescans a query-modification view).
	switch {
	case vs.mat != nil:
		av.fCache = clampSelectivity(float64(vs.mat.DistinctRows())/p.N, p.N)
	default:
		if f, ok := av.est.ScreenedSelectivity(); ok {
			av.fCache = clampSelectivity(f, p.N)
		} else if av.fCache == 0 {
			if prof, err := db.profileLocked(vs.def.Name, WorkloadHints{}); err == nil {
				av.fCache = clampSelectivity(prof.F, p.N)
			}
		}
	}
	if av.fCache > 0 {
		p.F = av.fCache
	}
	return p, p.Validate()
}

// clampSelectivity clamps f into [1/N, 1].
func clampSelectivity(f, n float64) float64 {
	lo := 1.0 / n
	if math.IsNaN(f) || f < lo {
		return lo
	}
	return math.Min(f, 1)
}

// sizeParamsLocked sets the parameters a view's source fixes: N = n
// tuples, S = the average stored tuple bytes of its pages (at least 1),
// and for a join fR2 = |R2|/N, at most 1. The profiler and the advisor
// both size through it.
func (db *Database) sizeParamsLocked(p *costmodel.Params, vs *viewState, n, pages int) {
	p.N = float64(n)
	p.S = max(float64(max(pages, 1))*p.B/p.N, 1)
	if vs.def.Kind == Join && len(vs.def.Relations) > 1 {
		if r2, ok := db.rels[vs.def.Relations[1]]; ok && r2.Len() > 0 {
			p.FR2 = min(float64(r2.Len())/p.N, 1)
		}
	}
}

// runnableCostsLocked is the one price list of a view, read by Explain
// and AdaptTick alike: the kind's costmodel.CostsFor table at p (the
// extended strategies priced at snapshotEvery when it is positive),
// less the rows that are not finite and every query-modification row
// but the access path the engine runs (qmAlgLocked). The tables price
// every QM path; pricing QM at the cheapest hypothetical one (usually
// clustered) would make it unbeatable on paper while the real plan
// fetches through a secondary index or scans sequentially.
func (db *Database) runnableCostsLocked(vs *viewState, p costmodel.Params, snapshotEvery float64) map[costmodel.Algorithm]float64 {
	table := costmodel.CostsFor(vs.def.Kind.Model(), p, snapshotEvery)
	qmAlg := db.qmAlgLocked(vs)
	for alg, c := range table {
		if math.IsNaN(c) || math.IsInf(c, 0) || StrategyFor(alg) == QueryModification && alg != qmAlg {
			delete(table, alg)
		}
	}
	return table
}

// strategyCostsLocked prices the paper's three strategies for one view
// at measured parameters: one runnable row each.
func (db *Database) strategyCostsLocked(vs *viewState, p costmodel.Params) map[Strategy]float64 {
	table := db.runnableCostsLocked(vs, p, 0)
	out := make(map[Strategy]float64, len(table))
	for alg, c := range table {
		out[StrategyFor(alg)] = c
	}
	return out
}

// qmAlgLocked returns the query-modification algorithm the engine
// would actually run for this view: a select-project view's access path
// (accessPath, at its default plan), any other kind's own path.
func (db *Database) qmAlgLocked(vs *viewState) costmodel.Algorithm {
	plan := vs.plan
	switch vs.def.Kind {
	case Join:
		return costmodel.AlgLoopJoin
	case Aggregate:
		return costmodel.AlgClustered
	case GroupedAggregate:
		plan = PlanAuto // a grouped read ignores the default plan
	}
	switch db.accessPath(vs, plan) {
	case PlanClustered:
		return costmodel.AlgClustered
	case PlanUnclustered:
		return costmodel.AlgUnclustered
	}
	return costmodel.AlgSequential
}

// algStrategy is the one algorithm↔strategy mapping: the cost tables'
// maintenance rows and the engine strategies that implement them.
// Every other row is a query-modification access path.
var algStrategy = map[costmodel.Algorithm]Strategy{
	costmodel.AlgImmediate:         Immediate,
	costmodel.AlgDeferred:          Deferred,
	costmodel.AlgSnapshot:          Snapshot,
	costmodel.AlgRecomputeOnDemand: RecomputeOnDemand,
}

// StrategyFor maps a cost-table algorithm to the engine strategy that
// implements it (the QM variants — clustered, unclustered, sequential,
// loopjoin — all collapse to QueryModification).
func StrategyFor(a costmodel.Algorithm) Strategy {
	if s, ok := algStrategy[a]; ok {
		return s
	}
	return QueryModification
}

// AdvisorStats reports per-view advisor state: observation counts,
// flip history, and the last tick's measured parameters and costs.
// Returns nil when the advisor is disabled.
func (db *Database) AdvisorStats() []AdvisorViewStat {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.adv == nil {
		return nil
	}
	db.adv.mu.Lock()
	defer db.adv.mu.Unlock()
	out := make([]AdvisorViewStat, 0, len(db.views))
	for _, name := range db.viewNamesLocked() {
		vs := db.views[name]
		av := db.adv.view(name)
		st := AdvisorViewStat{
			View:         name,
			Strategy:     vs.strategy.String(),
			Observations: av.est.Observations(),
			Flips:        av.flips,
			FlipScore:    av.flipScore,
			LastReason:   av.lastReason,
			Params:       av.lastParams,
			Best:         av.lastBest,
		}
		if av.flips > 0 {
			st.LastFrom = av.lastFrom.String()
			st.LastTo = av.lastTo.String()
		}
		if len(av.lastCosts) > 0 {
			st.Costs = make(map[string]float64, len(av.lastCosts))
			for k, v := range av.lastCosts {
				st.Costs[k] = v
			}
		}
		out = append(out, st)
	}
	return out
}
