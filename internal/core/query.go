package core

import (
	"fmt"
	"sort"

	"viewmat/internal/agg"
	"viewmat/internal/exec"
	"viewmat/internal/pred"
	"viewmat/internal/relation"
	"viewmat/internal/tuple"
)

// QueryPlan selects the access path for query-modification execution
// (§3.2.3's three Model-1 plans plus the Model-2 nested-loop join).
type QueryPlan int

const (
	// PlanAuto picks clustered when the base relation is clustered on
	// the view's key source column, unclustered when a secondary index
	// exists on it, sequential otherwise; join views always use
	// PlanLoopJoin.
	PlanAuto QueryPlan = iota
	// PlanClustered scans the base relation's clustering index.
	PlanClustered
	// PlanUnclustered fetches through a secondary index, one random
	// page per tuple.
	PlanUnclustered
	// PlanSequential scans the whole relation.
	PlanSequential
	// PlanLoopJoin runs a nested-loop join with the inner relation's
	// hash index (Model 2's TOTloop).
	PlanLoopJoin
)

// String names the plan.
func (p QueryPlan) String() string {
	switch p {
	case PlanAuto:
		return "auto"
	case PlanClustered:
		return "clustered"
	case PlanUnclustered:
		return "unclustered"
	case PlanSequential:
		return "sequential"
	case PlanLoopJoin:
		return "loopjoin"
	default:
		return fmt.Sprintf("plan(%d)", int(p))
	}
}

// ResultRow is one view query result.
type ResultRow struct {
	Vals []tuple.Value
}

// QueryView answers a query against the view restricted to rg over the
// view's clustering column (nil = whole view), using the view's default
// plan for query modification.
func (db *Database) QueryView(name string, rg *pred.Range) ([]ResultRow, error) {
	db.mu.RLock()
	vs, ok := db.views[name]
	if !ok {
		db.mu.RUnlock()
		return nil, fmt.Errorf("core: unknown view %q", name)
	}
	plan := vs.plan
	db.mu.RUnlock()
	return db.QueryViewPlan(name, rg, plan)
}

// QueryViewPlan is QueryView with an explicit query-modification plan
// (ignored for materialized strategies).
func (db *Database) QueryViewPlan(name string, rg *pred.Range, plan QueryPlan) ([]ResultRow, error) {
	vs, refreshed, err := db.acquireFresh(name)
	if err != nil {
		return nil, err
	}
	defer db.mu.RUnlock()
	if vs.def.Kind == Aggregate {
		return nil, fmt.Errorf("core: view %q is an aggregate; use QueryAggregate", name)
	}
	if vs.def.Kind == GroupedAggregate {
		return nil, fmt.Errorf("core: view %q is a grouped aggregate; use QueryGroups", name)
	}
	if !refreshed {
		if err := db.pool.EvictAll(); err != nil {
			return nil, err
		}
	}
	db.bumpQueries()

	var rows []ResultRow
	err = db.inPhase(PhaseQuery, func() error {
		var err error
		switch vs.strategy {
		case QueryModification:
			rows, err = db.queryModified(vs, rg, plan)
		default:
			rows, err = db.queryMaterialized(vs, rg)
		}
		return err
	})
	if err == nil {
		db.observeViewQuery(vs, len(rows))
	}
	return rows, err
}

// QueryAggregate returns the current value of an aggregate view; ok is
// false when the aggregate is undefined (empty set for AVG/MIN/MAX).
func (db *Database) QueryAggregate(name string) (value float64, ok bool, err error) {
	vs, refreshed, err := db.acquireFresh(name)
	if err != nil {
		return 0, false, err
	}
	defer db.mu.RUnlock()
	if vs.def.Kind != Aggregate {
		return 0, false, fmt.Errorf("core: view %q is not an aggregate", name)
	}
	if !refreshed {
		if err := db.pool.EvictAll(); err != nil {
			return 0, false, err
		}
	}
	db.bumpQueries()

	err = db.inPhase(PhaseQuery, func() error {
		switch vs.strategy {
		case QueryModification:
			value, ok, err = db.computeAggregateFromBase(vs)
			return err
		default:
			// Read the one-page aggregate state (C_query3 = C2). The
			// in-memory state is authoritative and identical to the
			// page; the page read is the charged operation.
			read := exec.NewFuncSource(db.execOpts(), fmt.Sprintf("AggRead(%s)", vs.def.Name), func() ([]exec.Row, error) {
				fr, err := db.pool.Get(vs.aggFile, vs.aggPage)
				if err != nil {
					return nil, err
				}
				return nil, db.pool.Release(fr)
			})
			node, delta, _, err := db.runTree(read, false)
			db.recordPlan(vs, PlanPathQuery, node, delta)
			if err != nil {
				return err
			}
			value, ok = vs.aggState.Value()
			return nil
		}
	})
	if err == nil {
		db.observeViewQuery(vs, 1)
	}
	return value, ok, err
}

// --- deferred refresh ------------------------------------------------------

// foldRelationsLocked brings the base files of the named relations to
// end-of-epoch state: each one behind a hypothetical relation runs the
// deferred cycle of the views sharing it, so no pending change is lost.
func (db *Database) foldRelationsLocked(relNames []string) error {
	for _, rn := range relNames {
		if _, ok := db.hrs[rn]; !ok {
			continue
		}
		if err := db.refreshDeferredLocked(rn); err != nil {
			return err
		}
	}
	return nil
}

// hrComponentLocked returns everything connected to the HR-wrapped
// relation rel: every deferred view over it, the other relations those
// views read, and so on — relations and views both sorted by name —
// and whether any of those relations' AD files holds pending changes.
func (db *Database) hrComponentLocked(rel string) (rels []string, views []*viewState, pending bool) {
	relSet := map[string]bool{rel: true}
	inSet := map[*viewState]bool{}
	for changed := true; changed; {
		changed = false
		for _, vs := range db.views {
			if !vs.row().wrapsHR || inSet[vs] || !anyIn(vs.def.Relations, relSet) {
				continue
			}
			inSet[vs] = true
			changed = true
			for _, rn := range vs.def.Relations {
				if _, hasHR := db.hrs[rn]; hasHR {
					relSet[rn] = true
				}
			}
		}
	}
	for rn := range relSet {
		if h, ok := db.hrs[rn]; ok {
			rels = append(rels, rn)
			pending = pending || h.ADLen() > 0
		}
	}
	sort.Strings(rels)
	for vs := range inSet {
		views = append(views, vs)
	}
	sortViewsByName(views)
	return rels, views, pending
}

// anyIn reports whether any of the names is in the set.
func anyIn(names []string, set map[string]bool) bool {
	for _, n := range names {
		if set[n] {
			return true
		}
	}
	return false
}

// refreshDeferredLocked runs the deferred cycle for the HR-wrapped
// relation rel and every deferred view connected to it (§4's
// shared-refresh optimization): each HR's net changes are read once
// (PhaseADRead) and folded into the base relations (PhaseFold); the
// net changes are then the feed the views drain (PhaseDefRefresh).
func (db *Database) refreshDeferredLocked(rel string) error {
	rels, views, pending := db.hrComponentLocked(rel)
	if !pending {
		return nil
	}

	// Read net changes once per HR (C_ADread).
	nets := map[string]*deltas{}
	err := db.inPhase(PhaseADRead, func() error {
		for _, rn := range rels {
			anet, dnet, err := db.hrs[rn].NetChanges()
			if err != nil {
				return err
			}
			db.adScans.Add(1)
			nets[rn] = &deltas{adds: anet, dels: dnet}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Fold AD into the bases so files reach end-of-epoch state.
	err = db.inPhase(PhaseFold, func() error {
		for _, rn := range rels {
			if err := db.hrs[rn].FoldWith(nets[rn].adds, nets[rn].dels); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Views drain in name order, grouped by the delta sub-expression
	// they share, so the shared and private paths assign view-row ids
	// identically.
	feeds := make(map[*viewState]deltaFeed, len(views))
	for _, vs := range views {
		slots := map[int]*deltas{}
		for slot, rn := range vs.def.Relations {
			slots[slot] = nets[rn]
		}
		feeds[vs] = baseFeed(vs, slots, true)
	}
	groups := groupViews(views, func(vs *viewState) (exec.DeltaFingerprint, bool) {
		fp := feeds[vs].fp
		return fp, fp.Shareable()
	})
	return db.inPhase(PhaseDefRefresh, func() error {
		for _, g := range groups {
			if err := db.refreshGroup(g, feeds[g[0]]); err != nil {
				return err
			}
		}
		return nil
	})
}

// --- materialized reads ----------------------------------------------------

// queryMaterialized reads rows from the stored view through a
// MatScan→Screen plan: the scan's page reads land on the source, and
// each stored row is screened against the query predicate at C1 (the
// model's C1·f·fv·N term).
func (db *Database) queryMaterialized(vs *viewState, rg *pred.Range) ([]ResultRow, error) {
	scan := vs.mat.scanOp(db.execOpts(), fmt.Sprintf("MatScan(%s%s)", vs.def.Name, matRangeSuffix(rg)), rg, false)
	screen := exec.NewFilter(db.execOpts(), vs.def.Name, scan, exec.Pred{}, true)
	node, delta, rows, err := db.runTree(screen, true)
	db.recordPlan(vs, PlanPathQuery, node, delta)
	if err != nil {
		return nil, err
	}
	out := make([]ResultRow, 0, len(rows))
	for _, row := range rows {
		// The stored row stands for Dup logical duplicates (§2.1);
		// expand so materialized and query-modified results agree as
		// multisets.
		for i := int64(0); i < row.Dup; i++ {
			out = append(out, ResultRow{Vals: row.T0.Vals})
		}
	}
	return out, nil
}

// matRangeSuffix labels a materialized scan's restriction for plan
// rendering.
func matRangeSuffix(rg *pred.Range) string {
	if rg == nil {
		return ""
	}
	return " restricted"
}

// --- query modification ----------------------------------------------------

// keySource maps the view's clustering column back to its source
// (slot, base column).
func (vs *viewState) keySource() (slot, col int) {
	i := 0
	for s, idx := range vs.def.Project {
		for _, c := range idx {
			if i == vs.def.ViewKeyCol {
				return s, c
			}
			i++
		}
	}
	return 0, 0
}

// queryModified rewrites the view query onto the base relations: the
// planner resolves the access path (source operator), stacks the
// charged predicate screen, the projection and — when a deferred
// sibling left un-folded HR changes — the pending-overlay operator,
// then drains the tree.
func (db *Database) queryModified(vs *viewState, rg *pred.Range, plan QueryPlan) ([]ResultRow, error) {
	if vs.def.Kind == Join {
		return db.loopJoin(vs, rg)
	}
	slot, col := vs.keySource()
	if slot != 0 {
		return nil, fmt.Errorf("core: view %q clusters on a non-slot-0 column", vs.def.Name)
	}
	if p := db.parentOf(vs); p != nil {
		// A QM child rewrites onto its parent's materialization: scan
		// the parent's current rows, screen against the child predicate
		// and query range, project. Access-path plans are a base-file
		// concept and do not apply.
		filter := exec.NewFilter(db.execOpts(), vs.def.Name, db.parentScanOp(p),
			exec.Pred{P: vs.def.Pred, Range: rg, RangeCol: col}, true)
		root := db.projectSP(vs, filter)
		node, delta, rows, err := db.runTree(root, true)
		db.recordPlan(vs, PlanPathQuery, node, delta)
		if err != nil {
			return nil, err
		}
		out := make([]ResultRow, 0, len(rows))
		for _, row := range rows {
			out = append(out, ResultRow{Vals: row.Vals})
		}
		return out, nil
	}
	r := db.rels[vs.def.Relations[0]]
	if plan == PlanAuto {
		switch {
		case r.Kind() == relation.ClusteredBTree && r.KeyCol() == col:
			plan = PlanClustered
		case r.HasSecondary(col):
			plan = PlanUnclustered
		default:
			plan = PlanSequential
		}
	}

	var source exec.Operator
	switch plan {
	case PlanClustered:
		if r.Kind() != relation.ClusteredBTree || r.KeyCol() != col {
			return nil, fmt.Errorf("core: clustered plan needs clustering on column %d of %q", col, r.Name())
		}
		source = exec.NewScan(db.execOpts(), r, combineRange(vs.def.Pred, 0, col, rg))
	case PlanUnclustered:
		source = exec.NewIndexFetch(db.execOpts(), r, col, orFull(combineRange(vs.def.Pred, 0, col, rg)))
	case PlanSequential:
		// The screen below keeps only rows matching the view predicate
		// (and query range), so the scan may skip pages whose zone maps
		// disprove that conjunction — skipped pages are never charged.
		source = exec.NewSeqScanPruned(db.execOpts(), r, exec.PruneAtoms(vs.def.Pred, rg, col))
	default:
		return nil, fmt.Errorf("core: plan %v not applicable to %s view", plan, vs.def.Kind)
	}

	match := func(tp tuple.Tuple) bool {
		if !vs.def.Pred.EvalSingle(0, tp) {
			return false
		}
		return rg == nil || rg.Contains(tp.Vals[col])
	}
	// One charged screen per candidate: the test against the
	// (modified) view predicate.
	filter := exec.NewFilter(db.execOpts(), vs.def.Name, source,
		exec.Pred{P: vs.def.Pred, Range: rg, RangeCol: col}, true)
	root := db.overlayPendingSP(vs, match, db.projectSP(vs, filter))

	node, delta, rows, err := db.runTree(root, true)
	db.recordPlan(vs, PlanPathQuery, node, delta)
	if err != nil {
		return nil, err
	}
	out := make([]ResultRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, ResultRow{Vals: row.Vals})
	}
	return out, nil
}

// overlayPendingSP stacks the MergePending operator over a
// query-modification pipeline when un-folded HR changes exist, so QM
// views sharing a relation with deferred views stay correct. Relations
// without a live HR (the common case) pay nothing and keep the plain
// pipeline.
func (db *Database) overlayPendingSP(vs *viewState, match func(tuple.Tuple) bool, input exec.Operator) exec.Operator {
	h, hasHR := db.hrs[vs.def.Relations[0]]
	if !hasHR || h.ADLen() == 0 {
		return input
	}
	return exec.NewMergePending(db.execOpts(), vs.def.Name, input,
		func() ([]tuple.Tuple, []tuple.Tuple, error) { return h.NetChanges() },
		match,
		func(tp tuple.Tuple) []tuple.Value {
			return vs.def.ProjectTuples(tp, tuple.Tuple{})
		},
		func(vals []tuple.Value) string { return tuple.Tuple{Vals: vals}.ValueKey() },
	)
}

// loopJoin evaluates a join view by nested loops: clustered scan of the
// restricted outer R1, hash-probe of the inner R2 (whose pages stay in
// the buffer pool, per §3.4.3's large-memory assumption).
func (db *Database) loopJoin(vs *viewState, rg *pred.Range) ([]ResultRow, error) {
	// A live HR on either base relation (from a deferred sibling view)
	// would make the base files stale; trigger the shared fold-and-
	// refresh so the scan below sees end-of-epoch state.
	for _, rn := range vs.def.Relations {
		if h, ok := db.hrs[rn]; ok && h.ADLen() > 0 {
			if err := db.foldRelationsLocked(vs.def.Relations); err != nil {
				return nil, err
			}
			break
		}
	}
	c, err := db.joinCtx(vs)
	if err != nil {
		return nil, err
	}
	r1 := db.rels[vs.def.Relations[0]]
	slot, keyCol := vs.keySource()
	if slot != 0 {
		return nil, fmt.Errorf("core: join view %q clusters on inner column", vs.def.Name)
	}

	scan := exec.NewScan(db.execOpts(), r1, orFull(combineRange(vs.def.Pred, 0, keyCol, rg)))
	// One charged screen per outer tuple, then per probed match.
	outer := exec.NewFilter(db.execOpts(), vs.def.Name+".outer", scan,
		exec.Pred{P: vs.def.Pred, Range: rg, RangeCol: keyCol}, true)
	join := exec.NewLoopJoin(db.execOpts(), exec.LoopJoinSpec{
		Input:       outer,
		Inner:       c.r2,
		JoinVal:     c.outerVal,
		On:          c.onFull,
		ChargeMatch: true,
	})
	root := db.projectJoinOp(c, join)

	node, delta, rows, err := db.runTree(root, true)
	db.recordPlan(vs, PlanPathQuery, node, delta)
	if err != nil {
		return nil, err
	}
	out := make([]ResultRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, ResultRow{Vals: row.Vals})
	}
	return out, nil
}

// withPendingAD overlays a relation's un-folded HR changes on a
// query-modification scan of it, so QM aggregates sharing the relation
// with deferred views stay correct: pending adds stream ahead of the
// base scan, which fills the returned skip set with the pending deletes
// before any base row is screened; the caller's filter consults it
// (exec.Pred.SkipIDs).
func (db *Database) withPendingAD(rel string, base exec.Operator) (exec.Operator, map[uint64]bool) {
	skip := map[uint64]bool{}
	h, ok := db.hrs[rel]
	if !ok || h.ADLen() == 0 {
		return base, skip
	}
	pending := exec.NewFuncSource(db.execOpts(), fmt.Sprintf("PendingAD(%s)", rel), func() ([]exec.Row, error) {
		anet, dnet, err := h.NetChanges()
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
	return exec.NewSeq("pending+base", pending, base), skip
}

// computeAggregateFromBase evaluates a Model-3 aggregate with query
// modification: a clustered scan over the predicate interval (with any
// un-folded HR changes concatenated ahead of it), screening and
// folding each tuple.
func (db *Database) computeAggregateFromBase(vs *viewState) (float64, bool, error) {
	state := agg.NewState(vs.def.AggKind)
	source, skipDeleted := db.withPendingAD(vs.def.Relations[0], db.sourceFor(vs, 0))
	filter := exec.NewFilter(db.execOpts(), vs.def.Name, source,
		exec.Pred{P: vs.def.Pred, SkipIDs: skipDeleted}, true)
	fold := exec.NewAggFold(db.execOpts(), vs.def.Name, filter, exec.Fold{
		Col: vs.def.AggCol,
		Val: func(v float64, _ bool) { state.Insert(v) },
	})

	node, delta, _, err := db.runTree(fold, false)
	db.recordPlan(vs, PlanPathQuery, node, delta)
	if err != nil {
		return 0, false, err
	}
	v, ok := state.Value()
	return v, ok, nil
}

// combineRange intersects the view predicate's interval on (slot, col)
// with the query range; nil means unconstrained.
func combineRange(p *pred.P, slot, col int, rg *pred.Range) *pred.Range {
	base, constrained := p.IntervalFor(slot, col)
	switch {
	case !constrained && rg == nil:
		return nil
	case !constrained:
		return rg
	case rg == nil:
		return &base
	}
	out := base
	if rg.Lo != nil {
		op := pred.Ge
		if !rg.LoInc {
			op = pred.Gt
		}
		out.Restrict(op, *rg.Lo)
	}
	if rg.Hi != nil {
		op := pred.Le
		if !rg.HiInc {
			op = pred.Lt
		}
		out.Restrict(op, *rg.Hi)
	}
	return &out
}
