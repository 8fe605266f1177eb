package core

import (
	"errors"
	"fmt"
	"math"
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

// groupOf is the group a grouping-column value belongs to. Groups are
// the classes of tuple.Compare == 0 — what the group store's key lookup
// finds — and ±0.0 is the one pair of distinct values Compare calls
// equal, so both name the group +0.0. Every writer of a group value goes
// through here; with that, == agrees with Compare and can key a map.
// NaN, which Compare calls equal to everything, never gets here: see
// ErrNaNGroupKey.
func groupOf(v tuple.Value) tuple.Value {
	if v.Type() == tuple.Float && v.Float() == 0 {
		return tuple.F(0)
	}
	return v
}

// ErrNaNGroupKey refuses a NaN in a column a grouped-aggregate view
// groups on, directly or through its parent chain: Tx.Insert and
// Tx.Update refuse such a row, Commit refuses it again if the view was
// created after the row was queued, and CreateView refuses such a view
// over rows that already hold one. tuple.Compare calls NaN equal to every
// value, so a fold would keep one group per NaN row while the group
// store's key lookup matched any group, and the strategies would
// disagree.
var ErrNaNGroupKey = errors.New("core: NaN in a grouping column")

func isNaN(v tuple.Value) bool { return v.Type() == tuple.Float && math.IsNaN(v.Float()) }

// baseColumnLocked follows column col of source — a base relation or a
// view — down the parent chain to the base relation column it comes
// from. A grouped parent's value column leads to the column it
// aggregates, a NaN in which makes the value NaN.
func (db *Database) baseColumnLocked(source string, col int) (string, int) {
	for {
		p, ok := db.views[source]
		if _, base := db.rels[source]; base || !ok {
			return source, col
		}
		switch {
		case p.def.Kind != GroupedAggregate:
			sc := p.def.ProjectSpec()[col]
			source, col = p.def.Relations[sc[0]], sc[1]
		case col == 0:
			source, col = p.def.Relations[0], p.def.GroupBy
		default:
			source, col = p.def.Relations[0], p.def.AggCol
		}
	}
}

// nanGroupKeyError names the view that groups on column col of rel.
func (db *Database) nanGroupKeyError(view, rel string, col int) error {
	return fmt.Errorf("%w: view %q groups on %s.%s, which would hold NaN",
		ErrNaNGroupKey, view, rel, db.rels[rel].Schema().Cols[col].Name)
}

// refuseNaNGroupKeyLocked refuses a row of rel holding a NaN in a column
// some grouped-aggregate view groups on. Rows without a NaN, all of them
// in practice, return at the first loop.
func (db *Database) refuseNaNGroupKeyLocked(rel string, vals []tuple.Value) error {
	hasNaN := false
	for _, v := range vals {
		hasNaN = hasNaN || isNaN(v)
	}
	if !hasNaN {
		return nil
	}
	for _, name := range db.viewNamesLocked() {
		vs := db.views[name]
		if vs.def.Kind != GroupedAggregate {
			continue
		}
		if r, c := db.baseColumnLocked(vs.def.Relations[0], vs.def.GroupBy); r == rel && isNaN(vals[c]) {
			return db.nanGroupKeyError(name, rel, c)
		}
	}
	return nil
}

// refuseNaNGroupsLocked refuses a grouped-aggregate definition whose
// grouping column's base column already holds a NaN in some current row
// — the base file under the relation's pending AD changes. Only a FLOAT
// column can, so only one is scanned (setup cost, like the populate).
func (db *Database) refuseNaNGroupsLocked(def Def) error {
	if def.Kind != GroupedAggregate {
		return nil
	}
	rel, col := db.baseColumnLocked(def.Relations[0], def.GroupBy)
	r := db.rels[rel]
	if r.Schema().Cols[col].Type != tuple.Float {
		return nil
	}
	src, skip := db.withPendingAD(rel, exec.NewSeqScan(db.execOpts(), r))
	found := false
	screen := exec.NewFilter(db.execOpts(), def.Name, src, exec.Pred{P: pred.True(), SkipIDs: skip}, false)
	if err := exec.Run(exec.NewAggFold(db.execOpts(), def.Name+".nan", screen, exec.Fold{Row: func(row exec.Row) {
		found = found || isNaN(row.T0.Vals[col])
	}})); err != nil {
		return err
	}
	if found {
		return db.nanGroupKeyError(def.Name, rel, col)
	}
	return nil
}

// groupState is one group and its aggregate state.
type groupState struct {
	group tuple.Value
	state *agg.State
}

// groupFold folds (group, value) pairs into one aggregate state per
// group: the grouped kind's shape in a derivation.
type groupFold map[tuple.Value]*agg.State

func (f groupFold) add(kind agg.Kind, group tuple.Value, v float64) {
	group = groupOf(group)
	s, ok := f[group]
	if !ok {
		s = agg.NewState(kind)
		f[group] = s
	}
	s.Insert(v)
}

// sorted returns the folded groups in group order, not map order: a
// rebuild's rows draw tuple ids and fill B-tree pages, and must lay them
// out the same way every run (and under WAL replay).
func (f groupFold) sorted() []groupState {
	out := make([]groupState, 0, len(f))
	for g, s := range f {
		out = append(out, groupState{g, s})
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
			group := groupOf(tp.Vals[vs.def.GroupBy])
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
			group := groupOf(tp.Vals[vs.def.GroupBy])
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
	if s, ok := one.groups[group]; ok {
		return s, nil
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
