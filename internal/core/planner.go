package core

import (
	"fmt"

	"viewmat/internal/agg"
	"viewmat/internal/exec"
	"viewmat/internal/pred"
	"viewmat/internal/relation"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// This file is the planner half of the planner/executor split: the
// Database methods in query.go, refresh.go, groupagg.go and
// extra_strategies.go translate a view definition plus the current
// physical state into trees of exec operators, and the helpers here
// run those trees, capture their instrumentation, and retain the last
// executed plan per (view, path) for Explain.

// PlanCapture is the snapshot of one executed plan: the operator tree
// with per-operator stats, and the delta of its operation's meter scope
// that spanned the execution. By the exec attribution invariant the
// tree's TotalCost equals Meter, however operations interleave.
type PlanCapture struct {
	Root  *exec.PlanNode
	Meter storage.Stats
}

// executed is one executed plan as a view keeps it: the operator tree
// after its run, and the meter delta that spanned the run. Its operators
// are described and captured (exec.Capture) only when someone reads the
// plan — CapturedPlans, Explain — or a plan observer is installed.
type executed struct {
	root  exec.Operator
	meter storage.Stats
}

// capture snapshots the plan.
func (e executed) capture() *PlanCapture {
	return &PlanCapture{Root: exec.Capture(e.root), Meter: e.meter}
}

// Plan paths under which captures are retained.
const (
	// PlanPathQuery is the last query execution (QM rewrite,
	// materialized read, aggregate read/compute).
	PlanPathQuery = "query"
	// PlanPathRefresh is the last maintenance execution (differential
	// refresh, aggregate fold, rebuild/recompute).
	PlanPathRefresh = "refresh"
	// PlanPathPopulate is the initial materialization at CreateView.
	PlanPathPopulate = "populate"
)

// runTree executes an operator tree to completion and returns the meter
// delta spanning the run; the tree, run, is the caller's to record. keep
// retains the produced batches (query paths and the shared feed build);
// maintenance paths discard them as they stream. A tree whose execution
// fails is recorded all the same, so a partial plan is still
// inspectable.
func (db *op) runTree(root exec.Operator, keep bool) (storage.Stats, []*vec.Batch, error) {
	before := db.scope.Snapshot()
	var batches []*vec.Batch
	var err error
	if keep {
		batches, err = exec.Drain(root)
	} else {
		err = exec.Run(root)
	}
	return db.scope.Snapshot().Sub(before), batches, err
}

// recordPlan keeps an executed tree as the view's last plan on the given
// path, and counts the pages its scans pruned. Query paths run under the
// engine read lock, so the plan table is guarded by statsMu like the
// other concurrently-bumped bookkeeping.
func (db *Database) recordPlan(vs *viewState, path string, root exec.Operator, delta storage.Stats) {
	if p := exec.Pruned(root); p > 0 {
		db.pagesPruned.Add(p)
	}
	db.statsMu.Lock()
	if vs.plans == nil {
		vs.plans = map[string]executed{}
	}
	vs.plans[path] = executed{root: root, meter: delta}
	obs := db.planObserver
	db.statsMu.Unlock()
	if obs != nil {
		obs(vs.def.Name, path, exec.Capture(root), delta)
	}
}

// runPlan is runTree + recordPlan for maintenance paths (rows
// discarded).
func (db *op) runPlan(vs *viewState, path string, root exec.Operator) error {
	delta, _, err := db.runTree(root, false)
	db.recordPlan(vs, path, root, delta)
	return err
}

// SetPlanObserver installs a hook invoked after every operator-tree
// execution with the captured plan and the meter delta spanning it
// (tests use it to assert the attribution invariant). Pass nil to
// remove. The observer runs outside the engine locks; it must not call
// back into the Database.
func (db *Database) SetPlanObserver(fn func(view, path string, root *exec.PlanNode, delta storage.Stats)) {
	db.statsMu.Lock()
	db.planObserver = fn
	db.statsMu.Unlock()
}

// CapturedPlans captures a view's kept plans, keyed by path: each call
// makes fresh PlanNodes, the caller's to keep or change.
func (db *Database) CapturedPlans(view string) (map[string]*PlanCapture, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	vs, ok := db.views[view]
	if !ok {
		return nil, fmt.Errorf("core: unknown view %q", view)
	}
	return db.capturePlans(vs), nil
}

// capturePlans captures every plan vs keeps, under statsMu.
func (db *Database) capturePlans(vs *viewState) map[string]*PlanCapture {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	out := make(map[string]*PlanCapture, len(vs.plans))
	for path, e := range vs.plans {
		out[path] = e.capture()
	}
	return out
}

// RenderPlans renders every captured plan tree for a view at the given
// unit costs — measured charges only; Explain adds the analytic
// predictions.
func (db *Database) RenderPlans(view string, c1, c2, c3 float64) (map[string]string, error) {
	plans, err := db.CapturedPlans(view)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(plans))
	for path, pc := range plans {
		out[path] = exec.Render(pc.Root, c1, c2, c3)
	}
	return out, nil
}

// --- shared plan fragments --------------------------------------------------

// singlePred is the slot-0 restriction spec shared by every Model-1
// pipeline and the outer side of the join pipelines. Handing the
// executor the predicate itself (rather than a closure) lets Filter
// run its vectorized per-atom kernels.
func singlePred(vs *viewState) exec.Pred {
	return exec.Pred{P: vs.def.Pred}
}

// project projects the (one- or two-slot) binding through the view's
// target list in column-gather form.
func (db *op) project(vs *viewState, input exec.Operator) exec.Operator {
	return exec.NewProjectCols(db.execOpts(), exec.Label{vs.def.Name}, input, vs.def.ProjectSpec())
}

// matApply is the materialized-store sink: duplicate count maintenance,
// each batch applied as one signed run (MatView.ApplyDeltaRun). When
// child views are defined over this view, each successfully applied row
// is also appended to the view's delta log — the higher-order delta
// stream children drain (hierarchy.go). Logged after the apply so a
// failed write leaves no phantom log entry.
func (db *op) matApply(vs *viewState, input exec.Operator) exec.Operator {
	return exec.NewDeltaApply(db.execOpts(), exec.Label{vs.def.Name}, input,
		func(rows []exec.Row) error {
			n, err := db.applyRun(vs, rows, true)
			if len(db.children[vs.def.Name]) == 0 {
				return err
			}
			for _, row := range rows[:n] {
				vs.deltaLog = append(vs.deltaLog, viewDelta{
					vals:   append([]tuple.Value(nil), row.Vals...),
					insert: row.Insert,
				})
			}
			return err
		})
}

// matInsert is the populate-time sink: scan rows carry no delta
// polarity, and every surviving row is an insert.
func (db *op) matInsert(vs *viewState, input exec.Operator) exec.Operator {
	return exec.NewDeltaApply(db.execOpts(), exec.Label{vs.def.Name}, input,
		func(rows []exec.Row) error {
			_, err := db.applyRun(vs, rows, false)
			return err
		})
}

// applyRun applies a batch of rows to vs's stored copy — with their
// polarities when signed, all as inserts otherwise — and returns how
// many it applied. Each insert row draws a fresh id from the clock, in
// stream order, before the first row is applied, so after an error the
// ids of the inserts after the failing row go unused.
func (db *op) applyRun(vs *viewState, rows []exec.Row, signed bool) (int, error) {
	vals := make([][]tuple.Value, len(rows))
	ids := make([]uint64, len(rows))
	var signs []int8
	if signed {
		signs = make([]int8, len(rows))
	}
	for i := range rows {
		vals[i] = rows[i].Vals
		switch {
		case !signed || rows[i].Insert:
			ids[i] = db.nextID()
		default:
			signs[i] = -1
		}
	}
	return vs.mat.ApplyDeltaRun(db.pool, vals, signs, ids)
}

// --- the derivation ---------------------------------------------------------

// derivation is what a consumer asks of derive; consumers differ in
// this and in the sink they put on the result. The zero value is the
// whole view from its rebuild source, unbilled — what populate asks.
type derivation struct {
	// rg restricts the view's key column (keySource); nil = whole view.
	rg *pred.Range
	// plan is the access path to the base relation. PlanAuto is the
	// rebuild source: the clustered scan over the predicate's interval on
	// the clustering column, or a sequential scan of a hash relation,
	// which offers no ordered path (planRead resolves a query's PlanAuto
	// before it gets here). A child has one path, its parent's rows, and
	// ignores plan and wholeFile.
	plan QueryPlan
	// wholeFile scans the base relation sequentially, skipping nothing:
	// the grouped kind, and the profiler, which counts rejected rows too.
	wholeFile bool
	// charged bills the screen, and a join's per-match screen, at C1.
	charged bool
	// pending overlays the base relation's un-folded HR changes, so a
	// read beside deferred siblings sees them. A child has none (they
	// surface through its parent) and a join ignores it: pending changes
	// make it stale, and the refresh that then runs folds them.
	pending bool
}

// derived is a planned derivation. Running root yields the view's rows
// or folds them into state / groups; the profiler reads the row counts
// of the two stages below the shape.
type derived struct {
	source, screen, root exec.Operator
	state                *agg.State // Aggregate
	groups               groupFold  // GroupedAggregate
}

// derive plans vs's logical content from its sources — the one place
// a view's source, predicate screen and shape are assembled.
func (db *op) derive(vs *viewState, d derivation) (*derived, error) {
	def := &vs.def
	slot, col := vs.keySource()
	if slot != 0 && d.plan != PlanAuto {
		return nil, fmt.Errorf("core: view %q clusters on a column of its inner relation", def.Name)
	}
	source, err := db.deriveSource(vs, d, col)
	if err != nil {
		return nil, err
	}
	var skip map[uint64]bool
	if d.pending {
		source, skip = db.withPendingAD(def.Relations[0], source)
	}
	label := exec.Label{def.Name}
	if def.Kind == Join {
		label[1] = ".outer"
	}
	screen := exec.NewFilter(db.execOpts(), label, source,
		exec.Pred{P: def.Pred, SkipIDs: skip, Range: d.rg, RangeCol: col}, d.charged)
	out := &derived{source: source, screen: screen}

	switch def.Kind {
	case SelectProject:
		out.root = db.project(vs, screen)
	case Join:
		// Nested loops: each surviving outer tuple hash-probes the inner
		// R2, whose pages stay in the buffer pool (§3.4.3's large-memory
		// assumption), and the joined binding is tested above the join.
		ja, ok := def.JoinAtom()
		if !ok {
			return nil, fmt.Errorf("core: join view %q lost its join atom", def.Name)
		}
		join := exec.NewLoopJoin(db.execOpts(), exec.LoopJoinSpec{
			Input:       screen,
			Inner:       db.rels[def.Relations[1]],
			JoinCol:     joinCol(ja, 0),
			ChargeMatch: d.charged,
		})
		out.root = db.project(vs, exec.NewFilter(db.execOpts(), exec.Label{def.Name}, join,
			exec.Pred{P: def.Pred, Full: true}, false))
	case Aggregate:
		out.state = agg.NewState(def.AggKind)
		out.root = exec.NewAggFold(db.execOpts(), exec.Label{def.Name}, screen, exec.Fold{
			Col: def.AggCol,
			Val: func(v float64, _ bool) { out.state.Insert(v) },
		})
	case GroupedAggregate:
		out.groups = groupFold{}
		out.root = exec.NewAggFold(db.execOpts(), exec.Label{def.Name, ".groups"}, screen, exec.Fold{Row: func(row exec.Row) {
			out.groups.add(def.AggKind, row.T0.Vals[def.GroupBy], row.T0.Vals[def.AggCol].AsFloat())
		}})
	default:
		return nil, fmt.Errorf("core: unknown view kind %v", def.Kind)
	}
	return out, nil
}

// deriveSource is the bottom of a derivation: the scan the rows come
// from. col is the column d.rg restricts.
func (db *op) deriveSource(vs *viewState, d derivation, col int) (exec.Operator, error) {
	if p := db.parentOf(vs); p != nil {
		// Access paths are a base-file concept; a child scans its
		// parent's current rows.
		return db.parentScanOp(p), nil
	}
	r := db.rels[vs.def.Relations[0]]
	clustered := r.Kind() == relation.ClusteredBTree
	narrowed := combineRange(vs.def.Pred, 0, col, d.rg)
	switch {
	case d.wholeFile, d.plan == PlanAuto && !clustered:
		return exec.NewSeqScan(db.execOpts(), r), nil
	case d.plan == PlanAuto:
		return exec.NewScan(db.execOpts(), r, combineRange(vs.def.Pred, 0, r.KeyCol(), nil)), nil
	case d.plan == PlanClustered:
		if !clustered || r.KeyCol() != col {
			return nil, fmt.Errorf("core: clustered plan needs clustering on column %d of %q", col, r.Name())
		}
		return exec.NewScan(db.execOpts(), r, narrowed), nil
	case d.plan == PlanUnclustered:
		return exec.NewIndexFetch(db.execOpts(), r, col, orFull(narrowed)), nil
	case d.plan == PlanSequential:
		// The screen above keeps only rows matching the view predicate
		// (and query range), so the scan may skip pages whose zone maps
		// disprove that conjunction — skipped pages are never charged.
		return exec.NewSeqScanPruned(db.execOpts(), r, exec.PruneAtoms(vs.def.Pred, d.rg, col)), nil
	case d.plan == PlanLoopJoin && vs.def.Kind == Join:
		// Clustered scan of the restricted outer R1.
		return exec.NewScan(db.execOpts(), r, orFull(narrowed)), nil
	}
	return nil, fmt.Errorf("core: plan %v not applicable to %s view", d.plan, vs.def.Kind)
}

// withPendingAD overlays a relation's un-folded HR changes on a scan of
// it, so QM views sharing the relation with deferred views read the
// hypothetical relation (R ∪ A) − D: pending adds stream ahead of the
// base scan, and running them fills the returned skip set with the
// pending deletes' ids before any base row is screened; the
// derivation's screen consults it (exec.Pred.SkipIDs). A read's answer
// is a multiset, so the adds may come first. With no HR or an empty AD
// file the scan comes back as it was and the skip set is nil.
func (db *op) withPendingAD(rel string, base exec.Operator) (exec.Operator, map[uint64]bool) {
	h, ok := db.hrs[rel]
	if !ok || h.ADLen() == 0 {
		return base, nil
	}
	skip := map[uint64]bool{}
	pending := exec.NewFuncSource(db.execOpts(), exec.Label{"PendingAD(", rel, ")"}, func() ([]exec.Row, error) {
		anet, dnet, err := h.NetChanges(db.pool)
		if err != nil {
			return nil, err
		}
		for _, tp := range dnet {
			skip[tp.ID] = true
		}
		rows := make([]exec.Row, len(anet))
		for i, tp := range anet {
			rows[i] = exec.Row{T0: tp, Insert: true}
		}
		return rows, nil
	})
	return exec.NewSeq(exec.Label{"pending+base"}, pending, base), skip
}
