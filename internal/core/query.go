package core

import (
	"fmt"
	"sort"

	"viewmat/internal/exec"
	"viewmat/internal/pred"
	"viewmat/internal/relation"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
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

// Answer is a select-project or join view's answer in the executor's
// column lanes: Cols holds one dense column per output column of the
// view, N cells each. The answer owns its lanes: the read's scan filled
// them by copying rows out of the pages, or out of the leaves' kept
// lanes, and no engine structure refers to them once the read returns,
// so an answer stays valid after the read has released the engine and a
// caller may keep it or write its cells. A string cell's bytes are the
// exception: they were copied out of the page image once, when the page
// was decoded, and may be shared with a leaf's kept lanes and every
// other answer holding the cell, so they are read-only.
type Answer struct {
	N    int
	Cols []vec.Col
}

// Rows gathers the answer into ResultRows (GatherRows).
func (a Answer) Rows() []ResultRow {
	return GatherRows(a, func(vals []tuple.Value) ResultRow { return ResultRow{Vals: vals} })
}

// GatherRows gathers an answer into rows, each row's values carved out
// of one flat array filled column by column and handed to row: the one
// row gather of an answer, the engine's and a client's.
func GatherRows[R any](a Answer, row func([]tuple.Value) R) []R {
	w := len(a.Cols)
	flat := make([]tuple.Value, a.N*w)
	for c := 0; c < w && a.N > 0; c++ {
		a.Cols[c].GatherValues(flat[c:], w, nil)
	}
	out := make([]R, a.N)
	for i := range out {
		out[i] = row(flat[i*w : (i+1)*w : (i+1)*w])
	}
	return out
}

// QueryView answers a query against the view restricted to rg over the
// view's clustering column (nil = whole view), using the view's default
// plan for query modification.
func (db *Database) QueryView(name string, rg *pred.Range) ([]ResultRow, error) {
	ans, err := db.QueryViewLanes(name, rg, nil)
	if err != nil {
		return nil, err
	}
	return ans.Rows(), nil
}

// QueryViewLanes is QueryView answering in lanes, with an explicit
// query-modification plan (nil: the view's default; ignored for
// materialized strategies).
func (db *Database) QueryViewLanes(name string, rg *pred.Range, plan *QueryPlan) (Answer, error) {
	ans, err := db.read(name, "QueryView", rg, plan)
	return ans.lanes, err
}

// QueryAggregate returns the current value of an aggregate view; ok is
// false when the aggregate is undefined (empty set for AVG/MIN/MAX).
func (db *Database) QueryAggregate(name string) (value float64, ok bool, err error) {
	ans, err := db.read(name, "QueryAggregate", nil, nil)
	return ans.value, ans.ok, err
}

// --- the read entry ----------------------------------------------------------

// viewAnswer is one read's answer; a query method takes its kind's part.
type viewAnswer struct {
	lanes  Answer  // SelectProject, Join
	value  float64 // Aggregate
	ok     bool
	groups []GroupRow // GroupedAggregate
}

// readTable is how a read of each view kind is planned: over the stored
// copy when the view's strategy keeps one (strategyRow.stores), derived
// from the sources — query modification — when not. planRead adds the
// query's range and a select-project query's access path to derive.
var readTable = map[Kind]struct {
	method string // the query method that answers this kind
	stored func(*op, *viewState, *pred.Range) *derived
	derive derivation
}{
	SelectProject:    {"QueryView", (*op).matRead, derivation{charged: true, pending: true}},
	Join:             {"QueryView", (*op).matRead, derivation{plan: PlanLoopJoin, charged: true}},
	Aggregate:        {"QueryAggregate", (*op).aggRead, derivation{charged: true, pending: true}},
	GroupedAggregate: {"QueryGroups", (*op).groupsRead, derivation{wholeFile: true, charged: true, pending: true}},
}

// read is the one read entry: every query of every view kind under
// every strategy. It takes the view fresh under the read lock, on the
// pool of the refresh it led when no writer ran since, on a cold one
// otherwise, refuses a query method that does not answer the view's
// kind, runs the planned tree in PhaseQuery, retains the plan and
// gathers the answer; after releasing the lock it waits until the last
// commit it saw is durable.
func (db *Database) read(name, method string, rg *pred.Range, plan *QueryPlan) (ans viewAnswer, err error) {
	vs, o, err := db.acquireFresh(name)
	if err != nil {
		return viewAnswer{}, err
	}
	// The answer may show commits whose records are not yet synced: once
	// the lock is released, wait until the last one this read saw is, so
	// no client is shown state a crash could take back.
	d, seen := db.dur, uint64(0)
	if d != nil {
		seen = d.lastCommit
	}
	defer func() {
		if _, eerr := o.end(opWhat{kind: "read", view: name}); err == nil {
			err = eerr
		}
		db.mu.RUnlock()
		if err == nil {
			err = d.awaitDurable(seen)
		}
	}()
	kind := vs.def.Kind
	if answers := readTable[kind].method; answers != method {
		return viewAnswer{}, fmt.Errorf("core: view %q is a %s view; use %s", name, kind, answers)
	}
	db.statsMu.Lock()
	db.Queries++
	db.statsMu.Unlock()

	err = o.inPhase(PhaseQuery, func() error {
		p, err := o.planRead(vs, rg, plan)
		if err != nil {
			return err
		}
		// The folds leave their answer in p; the other trees answer with
		// the batches they produce.
		delta, batches, err := o.runTree(p.root, p.state == nil && p.groups == nil)
		db.recordPlan(vs, PlanPathQuery, p.root, delta)
		if err != nil {
			return err
		}
		switch {
		case p.state != nil:
			ans.value, ans.ok = p.state.Value()
		case p.groups != nil:
			ans.groups = groupRows(p.groups.sorted())
		default:
			stored := vs.row().stores
			a, err := answerOf(name, batches, stored, stored && kind != GroupedAggregate)
			if err != nil {
				return err
			}
			if kind == GroupedAggregate {
				ans.groups = groupRows(storedGroups(vs.def.AggKind, a))
			} else {
				ans.lanes = a
			}
		}
		return nil
	})
	switch {
	case err != nil || kind == GroupedAggregate:
	case kind == Aggregate:
		db.observeViewQuery(vs, 1)
	default:
		db.observeViewQuery(vs, ans.lanes.N)
	}
	return ans, err
}

// answerOf makes a read tree's batches its answer's lanes. A stored
// copy answers with slot 0, a derived view with its projection (slot 0
// when none ran). With byDup a stored row stands for Dup logical
// duplicates (§2.1) and is expanded, so materialized and query-modified
// answers agree as multisets. One dense batch (vec.Batch.Dense), the
// common answer, is taken as it is: its lanes become the answer's, but
// a lane an earlier column already holds (a projection naming one
// column twice) is copied, so no two columns share one. Any other shape
// is gathered once, onto lanes sized for its live rows.
func answerOf(view string, batches []*vec.Batch, stored, byDup bool) (Answer, error) {
	lanes := func(b *vec.Batch) []vec.Col {
		if !stored && b.HasOut() {
			return b.Out
		}
		return b.Slots[0]
	}
	var a Answer
	for _, b := range batches {
		if len(lanes(b)) != len(lanes(batches[0])) {
			return Answer{}, fmt.Errorf("core: view %q answered rows of %d and of %d columns", view, len(lanes(batches[0])), len(lanes(b)))
		}
		a.N += b.LiveLen(byDup)
	}
	if len(batches) == 1 && batches[0].Dense(byDup) {
		a.Cols = lanes(batches[0])
		for c := range a.Cols {
			for d := range c {
				if sameLane(&a.Cols[d], &a.Cols[c]) {
					var own vec.Col
					own.AppendRange(&a.Cols[c], 0, a.Cols[c].Len())
					a.Cols[c] = own
					break
				}
			}
		}
		return a, nil
	}
	var idx []int
	for _, b := range batches {
		if a.Cols == nil {
			a.Cols = vec.ReserveCols(lanes(b), a.N)
		}
		idx = b.AppendLive(a.Cols, lanes(b), byDup, idx)
	}
	return a, nil
}

// sameLane reports whether two columns hold their cells in one lane, as
// two copies of one column header do.
func sameLane(a, b *vec.Col) bool {
	return sameArray(a.Ints, b.Ints) || sameArray(a.Floats, b.Floats) || sameArray(a.Bytes, b.Bytes)
}

func sameArray[T any](a, b []T) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// planRead picks a read's cell of readTable. A select-project query
// takes the access path accessPath gives its plan (nil: the view's
// default).
func (db *op) planRead(vs *viewState, rg *pred.Range, plan *QueryPlan) (*derived, error) {
	how := readTable[vs.def.Kind]
	if vs.row().stores {
		return how.stored(db, vs, rg), nil
	}
	d := how.derive
	d.rg = rg
	if vs.def.Kind == SelectProject {
		if d.plan = vs.plan; plan != nil {
			d.plan = *plan
		}
		d.plan = db.accessPath(vs, d.plan)
	}
	return db.derive(vs, d)
}

// accessPath is the one physical-design decision of a query-modification
// read, which planRead runs and Explain and AdaptTick price (qmAlgLocked):
// plan, PlanAuto resolved against the base relation as PlanAuto
// documents. A view over a parent view, or keyed on a column of its
// inner relation, keeps PlanAuto: its source has one path.
func (db *Database) accessPath(vs *viewState, plan QueryPlan) QueryPlan {
	r, base := db.rels[vs.def.Relations[0]]
	slot, col := vs.keySource()
	switch {
	case plan != PlanAuto || !base || slot != 0:
		return plan
	case r.Kind() == relation.ClusteredBTree && r.KeyCol() == col:
		return PlanClustered
	case r.HasSecondary(col):
		return PlanUnclustered
	}
	return PlanSequential
}

// matRead plans a read of the stored rows through a MatScan→Screen
// plan: the scan's page reads land on the source, and each stored row is
// screened against the query predicate at C1 (the model's C1·f·fv·N
// term).
func (db *op) matRead(vs *viewState, rg *pred.Range) *derived {
	label := exec.Label{"MatScan(", vs.def.Name, ")"}
	if rg != nil {
		label[2] = " restricted)"
	}
	scan := vs.mat.scanOp(db.execOpts(), label, rg, false)
	return &derived{root: exec.NewFilter(db.execOpts(), exec.Label{vs.def.Name}, scan, exec.Pred{}, true)}
}

// aggRead plans the read of the one-page aggregate state (C_query3 =
// C2). The in-memory state is authoritative and identical to the page;
// the page read is the charged operation.
func (db *op) aggRead(vs *viewState, _ *pred.Range) *derived {
	read := exec.NewFuncSource(db.execOpts(), exec.Label{"AggRead(", vs.def.Name, ")"}, func() ([]exec.Row, error) {
		return nil, db.pool.Read(vs.aggFile, vs.aggPage, func([]byte) error { return nil })
	})
	return &derived{root: read, state: vs.aggState}
}

// --- deferred refresh ------------------------------------------------------

// foldRelationsLocked brings the base files of the named relations to
// end-of-epoch state: each one behind a hypothetical relation runs the
// deferred cycle of the views sharing it, so no pending change is lost.
func (db *op) foldRelationsLocked(relNames []string) error {
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
// and those of the relations whose AD files hold pending changes.
func (db *Database) hrComponentLocked(rel string) (rels []string, views []*viewState, pending []string) {
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
		if _, ok := db.hrs[rn]; ok {
			rels = append(rels, rn)
		}
	}
	sort.Strings(rels)
	for _, rn := range rels {
		if db.hrs[rn].ADLen() > 0 {
			pending = append(pending, rn)
		}
	}
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
// net changes are then the feed the views drain (PhaseDefRefresh). An
// HR whose AD file holds no entry is neither read nor folded: its feed
// is empty deltas, the 2u/T pages C_ADread prices are none. A fold's
// reset of the HR frees its AD pages unread and unwritten, so
// PhaseFold charges the base relation's pages alone.
func (db *op) refreshDeferredLocked(rel string) error {
	rels, views, pending := db.hrComponentLocked(rel)
	if len(pending) == 0 {
		return nil
	}
	nets := make(map[string]*deltas, len(rels))
	for _, rn := range rels {
		nets[rn] = &deltas{}
	}

	// Read net changes once per HR that holds any (C_ADread).
	err := db.inPhase(PhaseADRead, func() error {
		for _, rn := range pending {
			anet, dnet, err := db.hrs[rn].NetChanges(db.pool)
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
		for _, rn := range pending {
			if err := db.hrs[rn].FoldWith(db.pool, nets[rn].adds, nets[rn].dels); err != nil {
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
	groups := groupViews(views, func(vs *viewState) exec.DeltaFingerprint { return feeds[vs].fp })
	return db.inPhase(PhaseDefRefresh, func() error {
		for _, g := range groups {
			if err := db.refreshGroup(g, feeds[g[0]]); err != nil {
				return err
			}
		}
		return nil
	})
}

// --- query modification ----------------------------------------------------

// keySource maps the view's clustering column back to its source
// (slot, base column); a grouped aggregate clusters on its grouping
// column.
func (vs *viewState) keySource() (slot, col int) {
	if vs.def.Kind == GroupedAggregate {
		return 0, vs.def.GroupBy
	}
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
