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

// put replaces (or inserts) a group's row; an empty state removes it. A
// replaced row keeps its key and id, so one visit to its leaf.
func (g *groupStore) put(group tuple.Value, s *agg.State, old *tuple.Tuple, id uint64) error {
	if old == nil {
		if s.Count() == 0 {
			return nil
		}
		return g.rel.Insert(tuple.Tuple{ID: id, Vals: rowOf(group, s)})
	}
	var ok bool
	var err error
	if s.Count() == 0 {
		_, ok, err = g.rel.Delete(group, old.ID)
	} else {
		_, ok, err = g.rel.Update(group, old.ID, tuple.Tuple{ID: old.ID, Vals: rowOf(group, s)})
	}
	if err != nil || !ok {
		return fmt.Errorf("core: group row rewrite lost %v: ok=%v err=%v", group, ok, err)
	}
	return nil
}

// GroupRow is one grouped-aggregate result.
type GroupRow struct {
	Group tuple.Value
	Value float64
	Count int64
}

// groupState is one group and its aggregate state.
type groupState struct {
	group tuple.Value
	state *agg.State
}

// groupFold folds (group, value) pairs into one aggregate state per
// group: the grouped kind's shape in a derivation. Groups are the
// classes of tuple.Compare == 0, what the group store's key lookup
// finds, each named by its canonical value (−0 joins +0, every NaN one
// group). A map compares keys with ==, which NaN never satisfies, so it
// is keyed by the canonical value's encoding (groupKey).
type groupFold map[string]*groupState

// groupKey is the groupFold key of a canonical group value.
func groupKey(group tuple.Value) string { return string(tuple.AppendValue(nil, group)) }

func (f groupFold) add(kind agg.Kind, group tuple.Value, v float64) {
	group = tuple.Canonical(group)
	k := groupKey(group)
	g, ok := f[k]
	if !ok {
		g = &groupState{group, agg.NewState(kind)}
		f[k] = g
	}
	g.state.Insert(v)
}

// sorted returns the folded groups in group order, not map order: a
// rebuild's rows draw tuple ids and fill B-tree pages, and must lay them
// out the same way every run (and under WAL replay).
func (f groupFold) sorted() []groupState {
	out := make([]groupState, 0, len(f))
	for _, g := range f {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return tuple.Compare(out[i].group, out[j].group) < 0 })
	return out
}

// groupRows renders group states as query results; a group whose
// aggregate is undefined answers no row.
func groupRows(groups []groupState) []GroupRow {
	rows := make([]GroupRow, 0, len(groups))
	for _, g := range groups {
		if v, ok := g.state.Value(); ok {
			rows = append(rows, GroupRow{Group: g.group, Value: v, Count: g.state.Count()})
		}
	}
	return rows
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
			group := tuple.Canonical(tp.Vals[vs.def.GroupBy])
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
			group := tuple.Canonical(tp.Vals[vs.def.GroupBy])
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
				if s, err = db.recomputeGroup(vs, group); err != nil {
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

// recomputeGroup rebuilds one group's state after a MIN/MAX extreme
// deletion: the view derived for that group alone, charged — a scan
// narrowed to the group when the relation is clustered on the grouping
// column, the rebuild source otherwise. It runs inside the apply sink's
// bracket, so its reads and its one screen per scanned row land on that
// operator.
func (db *Database) recomputeGroup(vs *viewState, group tuple.Value) (*agg.State, error) {
	d := derivation{rg: pred.PointRange(group), charged: true}
	if r, ok := db.rels[vs.def.Relations[0]]; ok && r.Kind() == relation.ClusteredBTree && r.KeyCol() == vs.def.GroupBy {
		d.plan = PlanClustered
	}
	one, err := db.derive(vs, d)
	if err != nil {
		return nil, err
	}
	if err := exec.Run(one.root); err != nil {
		return nil, err
	}
	if g, ok := one.groups[groupKey(group)]; ok {
		return g.state, nil
	}
	return agg.NewState(vs.def.AggKind), nil
}

// fillGroupStore derives every group's state from the source (base
// relation or parent view) and flushes the group rows into a fresh group
// store (populate at CreateView, and the recompute path of Snapshot /
// RecomputeOnDemand strategies).
func (db *Database) fillGroupStore(vs *viewState) error {
	all, err := db.derive(vs, derivation{wholeFile: true, charged: true})
	if err != nil {
		return err
	}
	flush := exec.NewStateWrite(db.execOpts(), vs.def.Name+".groups", func() error {
		for _, g := range all.groups.sorted() {
			if err := vs.groups.put(g.group, g.state, nil, db.nextID()); err != nil {
				return err
			}
		}
		return nil
	})
	return db.runPlan(vs, PlanPathRefresh, exec.NewSeq("rebuild-groups("+vs.def.Name+")", all.root, flush))
}

// QueryGroups answers a grouped-aggregate query restricted to a group
// range (nil = every group), refreshing per the view's strategy.
func (db *Database) QueryGroups(name string, rg *pred.Range) ([]GroupRow, error) {
	ans, err := db.read(name, "QueryGroups", rg, nil)
	return ans.groups, err
}

// groupsRead plans a read of the stored group rows.
func (db *Database) groupsRead(vs *viewState, rg *pred.Range) *derived {
	scan := exec.NewScan(db.execOpts(), vs.groups.rel, orFull(rg))
	return &derived{root: exec.NewFilter(db.execOpts(), vs.def.Name+".groups", scan, exec.Pred{}, true)}
}

// storedGroups decodes stored group rows, which the scan yields in
// group order.
func storedGroups(kind agg.Kind, a Answer) []groupState {
	rows := a.Rows()
	out := make([]groupState, len(rows))
	for i, row := range rows {
		out[i] = groupState{row.Vals[0], stateOf(kind, tuple.Tuple{Vals: row.Vals})}
	}
	return out
}
