package core

import (
	"fmt"
	"sort"

	"viewmat/internal/agg"
	"viewmat/internal/exec"
	"viewmat/internal/pred"
	"viewmat/internal/relation"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// Grouped aggregates extend Model 3 with a GROUP BY column: instead of
// one sub-page aggregate state, the view stores one row per group, each
// row carrying that group's full aggregate state (count, sum, sum of
// squares, extreme), clustered on the grouping column. Insertion and
// deletion update exactly the affected group's row; deleting a group's
// extreme value under MIN/MAX triggers a recomputation scan restricted
// to that group. This is the natural generalization the paper's §4
// applications (triggers, live windows) ask for.

// GroupedAggregate is the view kind for GROUP BY aggregates. The Def
// uses AggKind/AggCol as for Aggregate, plus GroupBy.
const GroupedAggregate Kind = 3

// groupStore is the materialization: a B+-tree relation keyed on the
// group value, one row per live group.
type groupStore struct {
	rel      *relation.Relation
	groupTyp tuple.Type
}

// groupStoreSchema lays out a group row: group value, count, sum,
// sum-of-squares, extreme.
func groupStoreSchema(groupTyp tuple.Type) *tuple.Schema {
	return tuple.NewSchema(
		tuple.Col("group", groupTyp),
		tuple.Col("count", tuple.Int),
		tuple.Col("sum", tuple.Float),
		tuple.Col("sumsq", tuple.Float),
		tuple.Col("extreme", tuple.Float),
	)
}

func newGroupStore(disk *storage.Disk, pool *storage.Pool, name string, groupTyp tuple.Type) (*groupStore, error) {
	rel, err := relation.NewBTree(disk, pool, name+".groups", groupStoreSchema(groupTyp), 0)
	if err != nil {
		return nil, err
	}
	return &groupStore{rel: rel, groupTyp: groupTyp}, nil
}

// stateOf decodes a stored group row into an aggregate state.
func stateOf(kind agg.Kind, row tuple.Tuple) *agg.State {
	s := agg.NewState(kind)
	s.Restore(row.Vals[1].Int(), row.Vals[2].Float(), row.Vals[3].Float(), row.Vals[4].Float())
	return s
}

// rowOf encodes an aggregate state as a group row's values.
func rowOf(group tuple.Value, s *agg.State) []tuple.Value {
	count, sum, sumSq, extreme := s.Components()
	return []tuple.Value{group, tuple.I(count), tuple.F(sum), tuple.F(sumSq), tuple.F(extreme)}
}

// get fetches a group's row.
func (g *groupStore) get(group tuple.Value) (tuple.Tuple, bool, error) {
	matches, err := g.rel.LookupKey(group)
	if err != nil {
		return tuple.Tuple{}, false, err
	}
	if len(matches) == 0 {
		return tuple.Tuple{}, false, nil
	}
	return matches[0], true, nil
}

// put replaces (or inserts) a group's row; an empty state removes it.
func (g *groupStore) put(group tuple.Value, s *agg.State, old *tuple.Tuple, id uint64) error {
	if old != nil {
		if _, ok, err := g.rel.Delete(group, old.ID); err != nil || !ok {
			return fmt.Errorf("core: group row rewrite lost %v: ok=%v err=%v", group, ok, err)
		}
	}
	if s.Count() == 0 {
		return nil
	}
	useID := id
	if old != nil {
		useID = old.ID
	}
	return g.rel.Insert(tuple.Tuple{ID: useID, Vals: rowOf(group, s)})
}

// GroupRow is one grouped-aggregate result.
type GroupRow struct {
	Group tuple.Value
	Value float64
	Count int64
}

// --- engine integration -----------------------------------------------------

// groupAggRefreshTree applies Model-3 deltas per group through a
// Filter→DeltaApply pipeline whose sink updates exactly the affected
// group's row (a MIN/MAX extreme delete recomputes that group from the
// source inside the sink's bracket). When child views hang off this
// view, each group-row change is also logged
// as a logical output delta — delete(old value), insert(new value) in
// the view's (group, value) output schema — the stream children drain.
func (db *Database) groupAggRefreshTree(vs *viewState, src exec.Operator) exec.Operator {
	kind := vs.def.AggKind
	logGroupDelta := func(group tuple.Value, oldV float64, oldOK bool, newV float64, newOK bool) {
		if len(db.children[vs.def.Name]) == 0 {
			return
		}
		if oldOK && newOK && oldV == newV {
			return // child-visible row unchanged (e.g. duplicate MIN)
		}
		if oldOK {
			vs.deltaLog = append(vs.deltaLog, viewDelta{
				vals: []tuple.Value{group, tuple.F(oldV)}, insert: false,
			})
		}
		if newOK {
			vs.deltaLog = append(vs.deltaLog, viewDelta{
				vals: []tuple.Value{group, tuple.F(newV)}, insert: true,
			})
		}
	}
	filt := exec.NewFilter(db.execOpts(), vs.def.Name, src, singlePred(vs), false)
	apply := exec.NewDeltaApply(db.execOpts(), vs.def.Name+".groups", filt,
		func(row exec.Row) error {
			tp := row.T0
			group := tp.Vals[vs.def.GroupBy]
			stored, found, err := vs.groups.get(group)
			if err != nil {
				return err
			}
			var s *agg.State
			var oldRow *tuple.Tuple
			var oldV float64
			var oldOK bool
			if found {
				s = stateOf(kind, stored)
				oldRow = &stored
				oldV, oldOK = s.Value()
			} else {
				s = agg.NewState(kind)
			}
			s.Insert(tp.Vals[vs.def.AggCol].AsFloat())
			if err := vs.groups.put(group, s, oldRow, db.nextID()); err != nil {
				return err
			}
			newV, newOK := s.Value()
			logGroupDelta(group, oldV, oldOK, newV, newOK)
			return nil
		},
		func(row exec.Row) error {
			tp := row.T0
			group := tp.Vals[vs.def.GroupBy]
			stored, found, err := vs.groups.get(group)
			if err != nil {
				return err
			}
			if !found {
				return fmt.Errorf("core: delete for unknown group %v in %q", group, vs.def.Name)
			}
			s := stateOf(kind, stored)
			oldV, oldOK := s.Value()
			if s.Delete(tp.Vals[vs.def.AggCol].AsFloat()) {
				if err := db.recomputeGroup(vs, group, s); err != nil {
					return err
				}
			}
			if err := vs.groups.put(group, s, &stored, 0); err != nil {
				return err
			}
			newV, newOK := s.Value()
			logGroupDelta(group, oldV, oldOK, newV, newOK)
			return nil
		})
	return apply
}

// recomputeGroup rebuilds one group's state from the source — a
// restricted, charged scan of the base relation, or of the parent
// view's current rows for a hierarchy child — after a MIN/MAX extreme
// deletion. It runs inside the apply sink's bracket, so its reads and
// its one screen per scanned row land on that operator.
func (db *Database) recomputeGroup(vs *viewState, group tuple.Value, s *agg.State) error {
	src := db.sourceFor(vs, 0)
	if db.parentOf(vs) == nil {
		// When the relation is clustered on the grouping column the
		// scan narrows to just that group.
		if r := db.rels[vs.def.Relations[0]]; r.Kind() == relation.ClusteredBTree && vs.def.GroupBy == r.KeyCol() {
			src = exec.NewScan(db.execOpts(), r, pred.PointRange(group))
		}
	}
	var vals []float64
	filt := exec.NewFilter(db.execOpts(), vs.def.Name, src,
		exec.Pred{P: vs.def.Pred, Range: pred.PointRange(group), RangeCol: vs.def.GroupBy}, true)
	fold := exec.NewAggFold(db.execOpts(), vs.def.Name, filt, exec.Fold{
		Col: vs.def.AggCol,
		Val: func(v float64, _ bool) { vals = append(vals, v) },
	})
	if err := exec.Run(fold); err != nil {
		return err
	}
	s.Rebuild(vals)
	return nil
}

// fillGroupStore scans the source (base relation or parent view), folds
// every group's state, and flushes the group rows into a fresh group
// store (populate at CreateView, and the recompute path of Snapshot /
// RecomputeOnDemand strategies).
func (db *Database) fillGroupStore(vs *viewState) error {
	gs := vs.groups
	states := map[string]*agg.State{}
	groups := map[string]tuple.Value{}
	var scan exec.Operator
	if p := db.parentOf(vs); p != nil {
		scan = db.parentScanOp(p)
	} else {
		scan = exec.NewSeqScan(db.execOpts(), db.rels[vs.def.Relations[0]])
	}
	filt := exec.NewFilter(db.execOpts(), vs.def.Name, scan, singlePred(vs), true)
	fold := exec.NewAggFold(db.execOpts(), vs.def.Name+".groups", filt, exec.Fold{Row: func(row exec.Row) {
		g := row.T0.Vals[vs.def.GroupBy]
		key := g.String()
		s, ok := states[key]
		if !ok {
			s = agg.NewState(vs.def.AggKind)
			states[key] = s
			groups[key] = g
		}
		s.Insert(row.T0.Vals[vs.def.AggCol].AsFloat())
	}})
	flush := exec.NewStateWrite(db.execOpts(), vs.def.Name+".groups", func() error {
		// In group order, not map order: the rows draw tuple ids and fill
		// B-tree pages, and a rebuild must lay them out the same way every
		// run (and under WAL replay).
		keys := make([]string, 0, len(states))
		for key := range states {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(i, j int) bool { return tuple.Compare(groups[keys[i]], groups[keys[j]]) < 0 })
		for _, key := range keys {
			if err := gs.put(groups[key], states[key], nil, db.nextID()); err != nil {
				return err
			}
		}
		return nil
	})
	return db.runPlan(vs, PlanPathRefresh, exec.NewSeq("rebuild-groups("+vs.def.Name+")", fold, flush))
}

// QueryGroups answers a grouped-aggregate query restricted to a group
// range (nil = every group), refreshing per the view's strategy.
func (db *Database) QueryGroups(name string, rg *pred.Range) ([]GroupRow, error) {
	vs, refreshed, err := db.acquireFresh(name)
	if err != nil {
		return nil, err
	}
	defer db.mu.RUnlock()
	if vs.def.Kind != GroupedAggregate {
		return nil, fmt.Errorf("core: view %q is not a grouped aggregate", name)
	}
	if !refreshed {
		if err := db.pool.EvictAll(); err != nil {
			return nil, err
		}
	}
	db.bumpQueries()

	var rows []GroupRow
	err = db.inPhase(PhaseQuery, func() error {
		if vs.strategy == QueryModification {
			var err error
			rows, err = db.groupsFromBase(vs, rg)
			return err
		}
		scan := exec.NewScan(db.execOpts(), vs.groups.rel, orFull(rg))
		screen := exec.NewFilter(db.execOpts(), vs.def.Name+".groups", scan, exec.Pred{}, true)
		node, delta, stored, err := db.runTree(screen, true)
		db.recordPlan(vs, PlanPathQuery, node, delta)
		if err != nil {
			return err
		}
		for _, row := range stored {
			s := stateOf(vs.def.AggKind, row.T0)
			v, ok := s.Value()
			if !ok {
				continue
			}
			rows = append(rows, GroupRow{Group: row.T0.Vals[0], Value: v, Count: s.Count()})
		}
		return nil
	})
	return rows, err
}

// groupsFromBase evaluates a grouped aggregate with query
// modification: a full scan (with un-folded HR adds from deferred
// siblings concatenated after it), screened per tuple, folded per
// group.
func (db *Database) groupsFromBase(vs *viewState, rg *pred.Range) ([]GroupRow, error) {
	var source exec.Operator
	if p := db.parentOf(vs); p != nil {
		// A QM child folds the parent's current rows; there is no HR to
		// overlay (pending base changes surface via the parent).
		source = db.parentScanOp(p)
	} else {
		source = exec.NewSeqScan(db.execOpts(), db.rels[vs.def.Relations[0]])
	}
	// The group fold is order-independent, so pending adds may stream
	// ahead of the base scan.
	source, skip := db.withPendingAD(vs.def.Relations[0], source)
	states := map[string]*agg.State{}
	groups := map[string]tuple.Value{}
	filt := exec.NewFilter(db.execOpts(), vs.def.Name, source,
		exec.Pred{P: vs.def.Pred, SkipIDs: skip, Range: rg, RangeCol: vs.def.GroupBy}, true)
	fold := exec.NewAggFold(db.execOpts(), vs.def.Name+".groups", filt, exec.Fold{Row: func(row exec.Row) {
		g := row.T0.Vals[vs.def.GroupBy]
		key := g.String()
		s, ok := states[key]
		if !ok {
			s = agg.NewState(vs.def.AggKind)
			states[key] = s
			groups[key] = g
		}
		s.Insert(row.T0.Vals[vs.def.AggCol].AsFloat())
	}})
	node, delta, _, err := db.runTree(fold, false)
	db.recordPlan(vs, PlanPathQuery, node, delta)
	if err != nil {
		return nil, err
	}
	rows := make([]GroupRow, 0, len(states))
	for key, s := range states {
		v, ok := s.Value()
		if !ok {
			continue
		}
		rows = append(rows, GroupRow{Group: groups[key], Value: v, Count: s.Count()})
	}
	sortGroupRows(rows)
	return rows, nil
}

func sortGroupRows(rows []GroupRow) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && tuple.Compare(rows[j].Group, rows[j-1].Group) < 0; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}
