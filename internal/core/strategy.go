package core

import (
	"fmt"

	"viewmat/internal/agg"
	"viewmat/internal/hr"
	"viewmat/internal/relation"
)

// The paper's strategies run the same differential algorithm; they
// differ in what a view keeps attached (a stored copy, screening
// t-locks, hypothetical relations over its base files) and in when its
// maintenance runs. That is one table row per strategy. attachLocked
// and detachLocked are the only code that gives a view what its row
// asks for or takes it away, and the staleness test, the read-time
// refresh and the commit-time bookkeeping read the row instead of
// naming strategies.

// trigger is when a strategy's maintenance runs.
type trigger int

const (
	// onNever: nothing is stored, so there is nothing to maintain; reads
	// are rewritten onto the sources (query modification).
	onNever trigger = iota
	// onCommit drains the commit's marked write-set (or, for a child,
	// its parent's log) before the commit returns.
	onCommit
	// onStaleRead drains the folded AD net changes (or the parent's log)
	// just before a read that would otherwise see them missing.
	onStaleRead
	// onEveryN rebuilds before a read once more than snapshotEvery
	// commits have touched the view's lineage; reads in between may be
	// stale by contract.
	onEveryN
	// onDirtyRead rebuilds before a read once a commit has threatened
	// the view ([Bune79]).
	onDirtyRead
)

// strategyRow is what one maintenance strategy needs and does. The
// t-lock and HR columns apply to top-level views only: a child's
// deltas come from its parent's log, not from base writes.
type strategyRow struct {
	// stores: keeps a materialized copy of the view.
	stores bool
	// tlocks: screens base writes through t-locks — the differential
	// strategies, and recompute-on-demand, whose whole point is the
	// [Bune79] pre-execution analysis. Snapshot views refresh on a
	// clock, so they place none and pay no screening.
	tlocks bool
	// wrapsHR: base relations live behind hypothetical relations, so the
	// base files are stale between folds.
	wrapsHR bool
	// baseReader: reads or rewrites base files at its own cadence, and
	// therefore cannot share a relation with a wrapsHR view. (Query
	// modification coexists: its read paths merge pending HR changes.)
	baseReader bool
	// delta: maintained by draining a deltaFeed through refreshGroup;
	// otherwise the stored copy is rebuilt from its source.
	delta   bool
	trigger trigger
}

var strategyTable = map[Strategy]strategyRow{
	QueryModification: {},
	Immediate:         {stores: true, tlocks: true, baseReader: true, delta: true, trigger: onCommit},
	Deferred:          {stores: true, tlocks: true, wrapsHR: true, delta: true, trigger: onStaleRead},
	Snapshot:          {stores: true, baseReader: true, trigger: onEveryN},
	RecomputeOnDemand: {stores: true, tlocks: true, baseReader: true, trigger: onDirtyRead},
}

func (vs *viewState) row() strategyRow { return strategyTable[vs.strategy] }

// Valid reports whether s is a strategy the engine implements: a row of
// the strategy table. It is the one gate for strategy numbers that come
// from outside — a create-view request, a SetStrategy call, a restored
// snapshot.
func (s Strategy) Valid() bool {
	_, known := strategyTable[s]
	return known
}

// rebuilds: the stored copy is rebuilt from its source at read time
// (the onEveryN and onDirtyRead triggers) rather than drained into.
func (r strategyRow) rebuilds() bool { return r.stores && !r.delta }

// strategyConflictLocked is the one placement rule: a base relation
// cannot feed both a view that wraps it in an HR (leaving the base
// files stale between folds) and a view that reads base files at its
// own cadence. Children read their parent's materialization, not base
// files, so the rule does not apply to them. vs need not be registered
// yet; it is never compared with itself.
func (db *Database) strategyConflictLocked(vs *viewState, s Strategy) error {
	if db.parentOf(vs) != nil {
		return nil
	}
	row := strategyTable[s]
	for _, rn := range vs.def.Relations {
		for _, other := range db.views {
			if other == vs || db.parentOf(other) != nil || !dependsOn(other, rn) {
				continue
			}
			if row.wrapsHR && other.row().baseReader || row.baseReader && other.row().wrapsHR {
				return fmt.Errorf("%w: relation %q cannot feed both a deferred view and a %s/%s view (%q, %q)",
					ErrStrategyConflict, rn, s, other.strategy, vs.def.Name, other.def.Name)
			}
		}
	}
	return nil
}

// attachLocked gives vs whatever its strategy's row needs that prev
// did not already provide: a stored copy filled from the current
// source contents, t-locks, hypothetical relations. Creating a view is
// attaching over the empty row.
func (db *op) attachLocked(vs *viewState, prev strategyRow) error {
	row := vs.row()
	parent := db.parentOf(vs)
	if row.stores && !prev.stores {
		if err := db.newStoreLocked(vs); err != nil {
			return err
		}
		if err := db.fillStoreLocked(vs); err != nil {
			return err
		}
	}
	if parent != nil {
		// The copy reflects everything the parent has logged — it was
		// just filled, or just brought current — so the child consumes
		// the log from its tail.
		vs.parentPos, vs.parentGen = parent.logEnd(), parent.logGen
		return nil
	}
	if !prev.tlocks {
		db.placeLocksLocked(vs)
	}
	if row.wrapsHR {
		for _, rn := range vs.def.Relations {
			if _, ok := db.hrs[rn]; !ok {
				h, err := hr.New(db.disk, db.pool, db.rels[rn], db.hrConfig)
				if err != nil {
					return err
				}
				db.hrs[rn] = h
			}
		}
	}
	return nil
}

// detachLocked takes away whatever vs holds that next does not need.
// Dropping a view is detaching toward the empty row. Pending AD changes
// are folded into the base files before an HR is retired, which
// refreshes the deferred views over it — vs included, so its stored
// copy goes last.
func (db *op) detachLocked(vs *viewState, next strategyRow) error {
	row := vs.row()
	name := vs.def.Name
	if db.parentOf(vs) == nil {
		if row.wrapsHR && !next.wrapsHR {
			if err := db.foldRelationsLocked(vs.def.Relations); err != nil {
				return err
			}
			for _, rn := range vs.def.Relations {
				needed := false
				for _, other := range db.views {
					if other != vs && other.row().wrapsHR && db.parentOf(other) == nil && dependsOn(other, rn) {
						needed = true
						break
					}
				}
				if _, ok := db.hrs[rn]; ok && !needed {
					// Writes route to the base file again.
					delete(db.hrs, rn)
					db.disk.Remove(rn + ".ad")
				}
			}
		}
		if row.tlocks && !next.tlocks {
			db.locks.Unregister(name)
		}
	}
	if row.stores && !next.stores {
		db.dropStoreLocked(vs)
		// No children can be reading it (the callers refuse), so the
		// delta log has no consumers; restart it cleanly for any future
		// child.
		vs.logStart = vs.logEnd()
		vs.deltaLog = nil
	}
	return nil
}

// placeLocksLocked registers vs's screening t-locks if its strategy
// screens (top-level views only).
func (db *Database) placeLocksLocked(vs *viewState) {
	if !vs.row().tlocks || db.parentOf(vs) != nil {
		return
	}
	for slot, rn := range vs.def.Relations {
		db.locks.Register(vs.def.Name, rn, slot, db.rels[rn].KeyCol(), vs.def.Pred)
	}
}

// newStoreLocked replaces vs's stored copy with an empty one of its
// kind. A scalar aggregate's one page is kept when it exists: a rebuild
// rewrites it in place.
func (db *op) newStoreLocked(vs *viewState) error {
	name := vs.def.Name
	switch vs.def.Kind {
	case GroupedAggregate:
		db.dropStoreLocked(vs)
		// schemas[0] is the base relation's schema, or the parent view's
		// output schema for hierarchy children.
		gs, err := relation.NewBTree(db.disk, db.pool, name+".groups", groupStoreSchema(vs.schemas[0].Cols[vs.def.GroupBy].Type), 0)
		if err != nil {
			return err
		}
		vs.groups = gs
	case Aggregate:
		if vs.aggFile != nil {
			return nil
		}
		vs.aggState = agg.NewState(vs.def.AggKind)
		vs.aggFile = db.disk.Open(name + ".agg")
		fr, err := db.pool.Alloc(vs.aggFile)
		if err != nil {
			return err
		}
		vs.aggPage = fr.PageNum()
		writeAggPage(fr, vs.aggState)
		return db.pool.Release(fr)
	default:
		db.dropStoreLocked(vs)
		mat, err := NewMatView(db.disk, db.pool, name, vs.def.OutputSchema(vs.schemas), vs.def.ViewKeyCol)
		if err != nil {
			return err
		}
		vs.mat = mat
	}
	return nil
}

// dropStoreLocked removes vs's stored copy from disk.
func (db *Database) dropStoreLocked(vs *viewState) {
	name := vs.def.Name
	if vs.mat != nil {
		db.disk.Remove(name + ".view.btree")
		vs.mat = nil
	}
	if vs.groups != nil {
		db.disk.Remove(name + ".groups.btree")
		vs.groups = nil
	}
	if vs.aggFile != nil {
		db.disk.Remove(name + ".agg")
		vs.aggState, vs.aggFile, vs.aggPage = nil, nil, 0
	}
}

// fillStoreLocked populates vs's (empty) stored copy from the current
// contents of its source — base relations, or the parent view for a
// child: the view derived whole, with the kind's sink on top. A store
// over existing contents initializes from a scan (setup cost; callers
// usually ResetStats after).
func (db *op) fillStoreLocked(vs *viewState) error {
	switch vs.def.Kind {
	case GroupedAggregate:
		return db.fillGroupStore(vs)
	case Aggregate:
		return db.rebuildAggregate(vs)
	}
	all, err := db.derive(vs, derivation{})
	if err != nil {
		return err
	}
	return db.runPlan(vs, PlanPathPopulate, db.matInsert(vs, all.root))
}

// --- triggers ----------------------------------------------------------------

// viewStale reports whether reading the view requires mutating work
// first (a refresh or an HR fold). Caller holds db.mu (read or write).
func (db *Database) viewStale(vs *viewState) bool {
	row := vs.row()
	switch row.trigger {
	case onEveryN:
		return vs.staleCommits > vs.snapshotEvery
	case onDirtyRead:
		return vs.dirty
	}
	if p := db.parentOf(vs); p != nil {
		// A child goes stale with its parent (the parent's refresh will
		// append log rows for it; a query-modification child reads the
		// parent live) or when unconsumed log rows are already pending.
		return db.viewStale(p) || row.delta && db.childPending(vs)
	}
	if !row.stores && vs.def.Kind != Join {
		// Select-project and aggregate query modification overlays
		// pending HR changes read-only. A join needs them folded into
		// the base files before its nested-loop scan, which mutates; it
		// goes through the write path like a deferred view.
		return false
	}
	for _, rn := range vs.def.Relations {
		if h, ok := db.hrs[rn]; ok && h.ADLen() > 0 {
			return true
		}
	}
	return false
}

// refreshStaleLocked is the one bring-current rule: make the parent
// fresh first (recursively, so deep chains converge — a child is only
// ever refreshed through its parent), then rebuild, fold, or drain by
// the strategy's row. force skips the one test that is the strategy's
// own — a rebuilt-at-read view's staleness budget or dirty bit — for the
// callers that refresh on a person's say-so rather than the trigger's;
// a fold and a drain find out for themselves whether anything is
// pending. Caller holds the engine write lock.
func (db *op) refreshStaleLocked(vs *viewState, force bool) error {
	parent := db.parentOf(vs)
	if parent != nil && db.viewStale(parent) {
		if err := db.refreshStaleLocked(parent, false); err != nil {
			return err
		}
	}
	row := vs.row()
	switch {
	case row.rebuilds():
		if !force && !db.viewStale(vs) {
			return nil
		}
		return db.inPhase(PhaseDefRefresh, func() error { return db.recomputeView(vs) })
	case parent == nil:
		return db.foldRelationsLocked(vs.def.Relations)
	case !row.delta || !db.childPending(vs):
		return nil
	}
	return db.inPhase(PhaseDefRefresh, func() error {
		return db.drainChildrenLocked([]*viewState{vs}, parent)
	})
}

// noteCommitLocked is the commit-time bookkeeping of the strategies
// whose trigger counts: every-n views, and deferred views with a refresh
// period (§4), count commits that touched their lineage; dirty-at-read
// views go dirty only when the screened tuples actually threaten the
// view (per-tuple two-stage screening alone decides).
func (db *Database) noteCommitLocked(marked map[string]map[int]*deltas, touched map[string]bool) {
	for _, vs := range db.views {
		switch vs.row().trigger {
		case onEveryN:
			// baseRels covers children too, whose Relations name a
			// parent view rather than a base relation.
			if anyIn(vs.baseRels, touched) {
				vs.staleCommits++
			}
		case onStaleRead:
			if vs.refreshEvery != 0 && anyIn(vs.baseRels, touched) {
				vs.staleCommits++
			}
		case onDirtyRead:
			// Children place no screening locks, so they never appear in
			// marked; any commit touching their base lineage dirties them.
			if _, threatened := marked[vs.def.Name]; threatened || db.parentOf(vs) != nil && anyIn(vs.baseRels, touched) {
				vs.dirty = true
			}
		}
	}
}

// --- flips -------------------------------------------------------------------

// SetStrategy flips one view to a new maintenance strategy at a safe
// boundary: it runs under the engine write lock, so it is serialized
// against commits, refresh units and queries. The view is brought
// current under its old strategy first, what the new strategy does not
// need is detached and what it lacks attached, and the new catalog is
// checkpointed atomically — a crash recovers to either the pre-flip or
// the post-flip catalog, never a hybrid.
func (db *Database) SetStrategy(view string, to Strategy) error {
	db.lock()
	defer db.mu.Unlock()
	vs, ok := db.views[view]
	if !ok {
		return fmt.Errorf("core: unknown view %q", view)
	}
	if vs.strategy == to {
		return nil
	}
	err := db.run(opWhat{kind: "flip", view: view}, func(o *op) error { return o.setStrategyLocked(vs, to) })
	if err != nil {
		return err
	}
	return db.catalogCheckpointLocked()
}

func (db *op) setStrategyLocked(vs *viewState, to Strategy) error {
	if vs.strategy == to {
		return nil
	}
	from, name := vs.row(), vs.def.Name
	next := strategyTable[to]
	if !to.Valid() {
		return fmt.Errorf("%w: unknown strategy %d", ErrFlipUnsupported, int(to))
	}
	if vs.def.Kind == GroupedAggregate {
		return fmt.Errorf("%w: grouped-aggregate view %q", ErrFlipUnsupported, name)
	}
	if kids := db.children[name]; !next.stores && len(kids) > 0 {
		return fmt.Errorf("%w: %q has children %v (they read its materialization)", ErrHasChildren, name, kids)
	}
	if err := db.strategyConflictLocked(vs, to); err != nil {
		return err
	}

	// Bring the world current under the old strategy, so the flip is a
	// pure representation change. For base-relation views that means
	// folding any pending AD changes into the base files; for children
	// it means draining the parent chain. Rebuilt-at-read views
	// additionally rebuild if at all behind — their copy may predate
	// folds that already happened, and may be inside its staleness
	// budget, which the new strategy does not share.
	if err := db.refreshStaleLocked(vs, false); err != nil {
		return err
	}
	if from.rebuilds() && (vs.staleCommits > 0 || vs.dirty || db.childPending(vs)) {
		if err := db.refreshStaleLocked(vs, true); err != nil {
			return err
		}
	}

	if err := db.detachLocked(vs, next); err != nil {
		return err
	}
	vs.strategy = to
	vs.staleCommits = 0
	vs.dirty = false
	return db.attachLocked(vs, from)
}
