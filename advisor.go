package viewmat

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"viewmat/internal/core"
	"viewmat/internal/costmodel"
)

// ErrUnknownViewKind is returned by Advise for a ViewKind outside the
// paper's three models, matching the typed-error convention of the
// DDL surface (ErrStrategyConflict, ErrHierarchyCycle, …).
var ErrUnknownViewKind = errors.New("viewmat: unknown view kind")

// Recommendation is the advisor's verdict for one view model: the
// cheapest strategy under the analytic cost model, the full cost table,
// and a short rationale in the paper's terms.
type Recommendation struct {
	Model     ViewKind
	Best      string
	Costs     map[string]float64 // strategy → predicted ms per query
	Rationale string
}

// Ranked returns the priced strategies cheapest first, ties by name.
func (r Recommendation) Ranked() []string {
	names := make([]string, 0, len(r.Costs))
	for name := range r.Costs {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if r.Costs[names[i]] != r.Costs[names[j]] {
			return r.Costs[names[i]] < r.Costs[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// Advise inverts the cost model: given workload parameters it returns,
// for the given view model, the strategy the analysis recommends. It
// operationalizes the paper's conclusion (§4) that the best algorithm
// depends chiefly on P, f, fv, l and the A/D upkeep cost.
func Advise(kind ViewKind, p Params) (Recommendation, error) {
	return advise(kind, p, 0)
}

// AdviseExtended ranks all five strategies — the paper's three plus
// snapshot and recompute-on-demand — for a Model-1 (select-project)
// view. snapshotEvery is the snapshot refresh period in update
// transactions; note that a snapshot verdict buys its cost advantage
// with staleness of up to that period.
func AdviseExtended(p Params, snapshotEvery float64) (Recommendation, error) {
	return advise(SelectProject, p, math.Max(snapshotEvery, 1))
}

// advise prices the kind's table (costmodel.CostsFor: the paper's three
// strategies at snapshotEvery 0, all five above it) and names the
// cheapest row.
func advise(kind ViewKind, p Params, snapshotEvery float64) (Recommendation, error) {
	if err := p.Validate(); err != nil {
		return Recommendation{}, err
	}
	model := kind.Model()
	if model == 0 {
		return Recommendation{}, fmt.Errorf("%w: %v", ErrUnknownViewKind, kind)
	}
	costs := costmodel.CostsFor(model, p, snapshotEvery)
	best, bestCost := costmodel.Best(costs)
	rec := Recommendation{Model: kind, Best: string(best), Costs: map[string]float64{}}
	for alg, c := range costs {
		rec.Costs[string(alg)] = c
	}
	rec.Rationale = rationale(p, best, bestCost, snapshotEvery)
	return rec, nil
}

// StrategyFor maps an advisor verdict onto an engine strategy:
// query-modification plans map to QueryModification; the maintenance
// algorithms map to themselves.
func StrategyFor(rec Recommendation) Strategy {
	return core.StrategyFor(costmodel.Algorithm(rec.Best))
}

func rationale(p Params, best costmodel.Algorithm, cost, snapshotEvery float64) string {
	switch best {
	case costmodel.AlgDeferred:
		return fmt.Sprintf("deferred wins at %.0f ms/query: high update ratio (P=%.2f) favors batching refreshes, and the A/D upkeep cost (C3=%g) penalizes immediate maintenance", cost, p.P(), p.C3)
	case costmodel.AlgImmediate:
		return fmt.Sprintf("immediate wins at %.0f ms/query: queries dominate (P=%.2f), so the materialized copy's denser pages pay for per-transaction refresh", cost, p.P())
	case costmodel.AlgClustered, costmodel.AlgLoopJoin:
		return fmt.Sprintf("query modification wins at %.0f ms/query: with P=%.2f and fv=%g the maintenance overhead of a materialized copy exceeds its query savings", cost, p.P(), p.FV)
	case costmodel.AlgSnapshot:
		return fmt.Sprintf("snapshot wins at %.0f ms/query by skipping screening and amortizing one rebuild over %g transactions — reads may be stale by that period", cost, snapshotEvery)
	case costmodel.AlgRecomputeOnDemand:
		return fmt.Sprintf("recompute-on-demand wins at %.0f ms/query: churn is heavy enough that one bounded rebuild beats per-tuple differential I/O", cost)
	default:
		return fmt.Sprintf("%s wins at %.0f ms/query", best, cost)
	}
}
