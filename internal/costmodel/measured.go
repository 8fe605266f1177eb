package costmodel

import "math"

// Measured-parameter estimation: the bridge from live meter deltas to
// the workload parameters the paper's tables take as given. The paper
// assumes k, q, l, fv and f are known; an online advisor has to
// estimate them from what the engine actually observes — per-commit
// written-tuple and screen-hit counts, per-query retrieved fractions —
// and the estimates must track a workload phase shift instead of
// averaging it away. An Estimator therefore folds observations under
// exponential decay: each new observation multiplies the accumulated
// window by a per-operation decay factor, so weight halves every
// HalfLife operations.
//
// The fold is defensive by construction: every input is sanitized
// (non-finite, negative, or absurdly large values are clamped or
// dropped) and Apply clamps each derived parameter into the domain
// Params.Validate accepts. FuzzAdvisorParams holds the estimator to
// exactly that contract — arbitrary observation sequences never
// produce a NaN, a negative estimate, or parameters the cost model
// rejects.

// DefaultHalfLife is the decay half-life, in observed operations, used
// when Estimator.HalfLife is zero.
const DefaultHalfLife = 64

// maxObservation bounds a single observation's magnitude; with decay
// this bounds every accumulator, keeping derived ratios finite.
const maxObservation = 1e9

// Estimator folds per-operation observations into sliding estimates of
// the paper's workload parameters: k (update transactions), q
// (queries), l (tuples per update transaction), fv (fraction of the
// view a query retrieves) and — when screening information is
// available — f (the view predicate's selectivity over written
// tuples).
type Estimator struct {
	// HalfLife is the number of observations over which accumulated
	// weight decays to half (0 = DefaultHalfLife).
	HalfLife float64

	queries float64 // decayed query count
	fvSum   float64 // decayed sum of per-query retrieved fractions
	fvObs   float64 // decayed count of queries with a known fraction
	updates float64 // decayed update-transaction count
	tuples  float64 // decayed written-tuple count
	scrTup  float64 // decayed written-tuple count where screening ran
	hits    float64 // decayed screen-hit count
}

// EstimatorState is an Estimator's exported accumulator snapshot, for
// persistence (core saves advisor state in the engine snapshot).
type EstimatorState struct {
	Queries, FvSum, FvObs, Updates, Tuples, ScrTup, Hits float64
}

// Snapshot exports the accumulators.
func (e *Estimator) Snapshot() EstimatorState {
	return EstimatorState{
		Queries: e.queries, FvSum: e.fvSum, FvObs: e.fvObs,
		Updates: e.updates, Tuples: e.tuples,
		ScrTup: e.scrTup, Hits: e.hits,
	}
}

// Restore replaces the accumulators with a snapshot, sanitizing each
// field so a corrupt snapshot cannot smuggle a NaN past the fold.
func (e *Estimator) Restore(s EstimatorState) {
	e.queries = sanitize(s.Queries)
	e.fvSum = sanitize(s.FvSum)
	e.fvObs = sanitize(s.FvObs)
	e.updates = sanitize(s.Updates)
	e.tuples = sanitize(s.Tuples)
	e.scrTup = sanitize(s.ScrTup)
	e.hits = sanitize(s.Hits)
}

// sanitize clamps one observation into [0, maxObservation]; NaN and
// -Inf become 0, +Inf becomes the cap.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > maxObservation {
		return maxObservation
	}
	return v
}

// decay ages the window by one observation.
func (e *Estimator) decay() {
	hl := e.HalfLife
	if hl <= 0 || math.IsNaN(hl) {
		hl = DefaultHalfLife
	}
	lambda := math.Exp2(-1 / hl)
	e.queries *= lambda
	e.fvSum *= lambda
	e.fvObs *= lambda
	e.updates *= lambda
	e.tuples *= lambda
	e.scrTup *= lambda
	e.hits *= lambda
}

// ObserveQuery records one view query that retrieved the given
// fraction of the view (clamped to [0, 1]). A negative frac means the
// fraction is unknown (the view's size had no estimate yet): the query
// still counts toward q, but fv keeps its previous evidence rather
// than absorbing a guess.
func (e *Estimator) ObserveQuery(frac float64) {
	e.decay()
	e.queries++
	if frac < 0 {
		return
	}
	e.fvObs++
	e.fvSum += math.Min(sanitize(frac), 1)
}

// ObserveUpdate records one update transaction that wrote tuples
// candidate tuples for the view's relations; when the engine screened
// those writes, screened is true and hits is the number that passed
// the view's screen (the live selectivity signal).
func (e *Estimator) ObserveUpdate(tuples, hits float64, screened bool) {
	e.decay()
	e.updates++
	t := sanitize(tuples)
	e.tuples += t
	if screened {
		e.scrTup += t
		e.hits += math.Min(sanitize(hits), t)
	}
}

// Observations returns the decayed total operation count — the
// advisor's "enough data to act" gate.
func (e *Estimator) Observations() float64 { return e.queries + e.updates }

// Apply overlays the estimator's workload estimates onto base, leaving
// structural parameters (N, S, B, fR2, unit costs) untouched. Every
// derived value is clamped into the domain Validate accepts, so for
// any valid base and any observation history the result validates.
func (e *Estimator) Apply(base Params) Params {
	p := base
	// k and q enter the tables only through ratios (P, U, amortization
	// periods), so the decayed counts serve directly. A window with no
	// queries yet still needs q > 0; the floor drives P toward 1, which
	// is the honest reading of an update-only window.
	p.K = sanitize(e.updates)
	p.Q = math.Max(sanitize(e.queries), 1e-3)
	if e.updates > 0 {
		p.L = clampRange(e.tuples/e.updates, 1, maxObservation)
	}
	if e.fvObs > 0 {
		p.FV = clampFrac(e.fvSum / e.fvObs)
	}
	if e.scrTup > 0 {
		p.F = clampFrac(e.hits / e.scrTup)
	}
	return p
}

// ScreenedSelectivity returns the decayed screen-hit rate estimate of
// f, and whether any screened writes have been observed.
func (e *Estimator) ScreenedSelectivity() (float64, bool) {
	if e.scrTup <= 0 {
		return 0, false
	}
	return clampFrac(e.hits / e.scrTup), true
}

// clampFrac clamps into the half-open domain (0, 1] that Validate
// requires of f, fv and fR2.
func clampFrac(v float64) float64 {
	if math.IsNaN(v) || v <= 0 {
		return 1e-6
	}
	return math.Min(v, 1)
}

// clampRange clamps v into [lo, hi], mapping NaN to lo.
func clampRange(v, lo, hi float64) float64 {
	if math.IsNaN(v) || v < lo {
		return lo
	}
	return math.Min(v, hi)
}

// CostsFor is the one switch from a view kind's numeric model (1 =
// select-project, 2 = join, 3 = aggregate; anything else prices as
// Model 1) to its cost table: the paper's strategies when snapshotEvery
// ≤ 0, plus the extended ones (snapshot, recompute-on-demand) priced at
// that snapshot period otherwise. Advise, Explain, the online advisor
// and cmd/advisor all price through it.
func CostsFor(model int, p Params, snapshotEvery float64) map[Algorithm]float64 {
	paper, extended := Model1Costs, Model1CostsExtended
	switch model {
	case 2:
		paper, extended = Model2Costs, Model2CostsExtended
	case 3:
		paper, extended = Model3Costs, Model3CostsExtended
	}
	if snapshotEvery <= 0 {
		return paper(p)
	}
	return extended(p, snapshotEvery)
}
