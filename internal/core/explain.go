package core

import (
	"fmt"

	"viewmat/internal/costmodel"
	"viewmat/internal/exec"
)

// WorkloadHints carries what the engine cannot observe from stored
// state: the anticipated operation mix.
type WorkloadHints struct {
	// UpdateTxns and Queries set the paper's k and q (the mix whose
	// ratio is P).
	UpdateTxns float64
	Queries    float64
	// TuplesPerTxn is the paper's l.
	TuplesPerTxn float64
	// QueryFraction is the paper's fv, the fraction of the view each
	// query retrieves.
	QueryFraction float64
}

// ProfileView derives the cost model's parameters from the live state
// of a view's base relations — N, S (average stored tuple bytes), B,
// f (live selectivity of the view predicate), fR2 — and the caller's
// workload hints. The result can be fed straight into the costmodel
// functions or the advisor, closing the loop the paper leaves open:
// its parameters were assumed; here they are measured from the data.
//
// The profile scan uses unmetered statistics accessors plus one
// metered pass over the first relation to count predicate matches;
// callers profiling inside a measured experiment should ResetStats
// afterwards.
func (db *Database) ProfileView(view string, hints WorkloadHints) (costmodel.Params, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.profileLocked(view, hints)
}

// profileLocked is ProfileView under a caller-held engine lock, so
// Explain and the advisor can profile without re-entering the
// non-reentrant RWMutex. The metered pass is an operation of its own.
func (db *Database) profileLocked(view string, hints WorkloadHints) (costmodel.Params, error) {
	vs, ok := db.views[view]
	if !ok {
		return costmodel.Params{}, fmt.Errorf("core: unknown view %q", view)
	}
	p := costmodel.Default()
	p.B = float64(db.disk.PageSize())
	if hints.UpdateTxns > 0 {
		p.K = hints.UpdateTxns
	}
	if hints.Queries > 0 {
		p.Q = hints.Queries
	}
	if hints.TuplesPerTxn > 0 {
		p.L = hints.TuplesPerTxn
	}
	if hints.QueryFraction > 0 {
		p.FV = hints.QueryFraction
	}

	// N, S (average stored tuple bytes from the data pages) and f (the
	// live fraction satisfying the predicate's restrictions on slot 0)
	// come from one metered pass over the first relation — for a
	// hierarchy child, over its parent's materialization.
	source := vs.def.Relations[0]
	var pages int
	if parent := db.parentOf(vs); parent == nil {
		pages = db.rels[source].Pages()
	} else if parent.mat != nil {
		pages = parent.mat.Pages()
	} else {
		pages = parent.groups.Pages()
	}
	// The derivation's source and uncharged screen, with no shape on top:
	// the whole file, so the rows the predicate rejects are counted too.
	var all *derived
	err := db.run(opWhat{kind: "profile", view: view}, func(o *op) (err error) {
		if all, err = o.derive(vs, derivation{wholeFile: true}); err == nil {
			err = exec.Run(all.screen)
		}
		return err
	})
	if err != nil {
		return costmodel.Params{}, err
	}
	n := all.source.Stats().RowsOut
	if n == 0 {
		return costmodel.Params{}, fmt.Errorf("core: %q is empty; nothing to profile", source)
	}
	db.sizeParamsLocked(&p, vs, int(n), pages)
	p.F = float64(all.screen.Stats().RowsOut) / float64(n)
	if p.F <= 0 {
		p.F = 1 / float64(n) // an empty view still needs a valid f
	}
	if err := p.Validate(); err != nil {
		return costmodel.Params{}, fmt.Errorf("core: profiled parameters invalid: %w", err)
	}
	return p, nil
}

// Explanation reports, for one view, the analytic cost of every
// applicable strategy at profiled parameters, the strategy currently
// configured, and the model's verdict.
type Explanation struct {
	View       string
	Current    Strategy
	Params     costmodel.Params
	Costs      map[string]float64
	Cheapest   string
	CurrentKey string // the Costs row of the current strategy ("" if none)

	// PlanTrees renders the most recently executed physical operator
	// tree per path ("query", "refresh", "populate") with per-operator
	// measured costs priced at the profiled unit costs, annotated with
	// the model's per-execution prediction where one exists (query-path
	// operators; refresh formulas are per-query averages and are not
	// comparable to one execution). Empty until the path has executed.
	PlanTrees map[string]string
}

// Explain profiles a view and prices every strategy the engine can run
// for it (runnableCostsLocked, the table AdaptTick reads), so an
// operator can see whether the configured strategy matches the model's
// recommendation.
func (db *Database) Explain(view string, hints WorkloadHints) (*Explanation, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	vs, ok := db.views[view]
	if !ok {
		return nil, fmt.Errorf("core: unknown view %q", view)
	}
	p, err := db.profileLocked(view, hints)
	if err != nil {
		return nil, err
	}
	// The extended strategies are priced for Model-1 views only.
	every := 0.0
	if vs.def.Kind.Model() < 2 {
		every = float64(max(vs.snapshotEvery, 1))
	}
	costs := db.runnableCostsLocked(vs, p, every)
	best, _ := costmodel.Best(costs)
	ex := &Explanation{
		View:     view,
		Current:  vs.strategy,
		Params:   p,
		Costs:    map[string]float64{},
		Cheapest: string(best),
	}
	for alg, c := range costs {
		ex.Costs[string(alg)] = c
		if StrategyFor(alg) == vs.strategy {
			ex.CurrentKey = string(alg)
		}
	}

	ex.PlanTrees = map[string]string{}
	for path, pc := range db.capturePlans(vs) {
		if path == PlanPathQuery {
			annotatePredictions(pc.Root, p)
		}
		ex.PlanTrees[path] = exec.Render(pc.Root, p.C1, p.C2, p.C3)
	}
	return ex, nil
}

// annotatePredictions walks a captured query plan and attaches the
// cost model's per-execution estimate to each operator the model has a
// term for.
func annotatePredictions(n *exec.PlanNode, p costmodel.Params) {
	child := ""
	if len(n.Children) > 0 {
		child = n.Children[0].Name
	}
	if est, ok := costmodel.OperatorEstimate(n.Name, child, p); ok {
		n.Predicted = est
	}
	for _, c := range n.Children {
		annotatePredictions(c, p)
	}
}
