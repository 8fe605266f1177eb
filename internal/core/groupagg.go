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

// groupStoreSchema lays out a row of the materialization, a B+-tree
// relation keyed on the group value with one row per live group: group
// value, count, sum, sum-of-squares, extreme.
func groupStoreSchema(groupTyp tuple.Type) *tuple.Schema {
	return tuple.NewSchema(
		tuple.Col("group", groupTyp),
		tuple.Col("count", tuple.Int),
		tuple.Col("sum", tuple.Float),
		tuple.Col("sumsq", tuple.Float),
		tuple.Col("extreme", tuple.Float),
	)
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
// Filter→DeltaApply pipeline whose sink writes each batch to the group
// store as one signed ApplyRun. The sink reads each group the batch
// touches once, at its first touch, and folds the batch's rows into it in
// stream order: an insert draws a row id, which the group's row takes
// when the insert fills an empty group, and a MIN/MAX extreme delete
// recomputes the group from the source inside the sink's bracket. It then
// writes the net of the rows it folded — each touched group's row at
// batch start deleted and its final row inserted, in first-touch order —
// even when a row fails. When child views hang off this view, each row's
// change to its group is also logged as a logical output delta —
// delete(old value), insert(new value) in the view's (group, value)
// output schema — the stream children drain.
func (db *op) groupAggRefreshTree(vs *viewState, src exec.Operator) exec.Operator {
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
	// touched is a group the batch touched: its stored row at batch start
	// (Vals nil: it had none), and its state and row id now (live false:
	// it holds no row).
	type touched struct {
		group tuple.Value
		start tuple.Tuple
		state agg.State
		id    uint64
		live  bool
	}
	var groups []touched
	at := map[string]int{} // groupKey → index in groups
	touch := func(group tuple.Value) (*touched, error) {
		k := groupKey(group)
		if i, ok := at[k]; ok {
			return &groups[i], nil
		}
		stored, err := vs.groups.LookupKey(db.pool, group)
		if err != nil {
			return nil, err
		}
		g := touched{group: group}
		if len(stored) > 0 {
			g.start, g.state, g.id, g.live = stored[0], *stateOf(kind, stored[0]), stored[0].ID, true
		}
		at[k] = len(groups)
		groups = append(groups, g)
		return &groups[len(groups)-1], nil
	}
	fold := func(row exec.Row) error {
		tp := row.T0
		g, err := touch(tuple.Canonical(tp.Vals[vs.def.GroupBy]))
		if err != nil {
			return err
		}
		var oldV float64
		var oldOK bool
		if g.live {
			oldV, oldOK = g.state.Value()
		}
		v := tp.Vals[vs.def.AggCol].AsFloat()
		if row.Insert {
			if id := db.nextID(); !g.live {
				g.state, g.id, g.live = *agg.NewState(kind), id, true
			}
			g.state.Insert(v)
		} else {
			if !g.live {
				return fmt.Errorf("core: delete for unknown group %v in %q", g.group, vs.def.Name)
			}
			s := g.state
			if s.Delete(v) {
				r, err := db.recomputeGroup(vs, g.group)
				if err != nil {
					return err
				}
				s = *r
			}
			g.state, g.live = s, s.Count() > 0
		}
		var newV float64
		var newOK bool
		if g.live { // an emptied SUM or COUNT still has a value, 0, but no row
			newV, newOK = g.state.Value()
		}
		logGroupDelta(g.group, oldV, oldOK, newV, newOK)
		return nil
	}
	var rows []tuple.Tuple
	var signs []int8
	filt := exec.NewFilter(db.execOpts(), exec.Label{vs.def.Name}, src, singlePred(vs), false)
	return exec.NewDeltaApply(db.execOpts(), exec.Label{vs.def.Name, ".groups"}, filt,
		func(batch []exec.Row) error {
			groups, rows, signs = groups[:0], rows[:0], signs[:0]
			clear(at)
			var err error
			for _, row := range batch {
				if err = fold(row); err != nil {
					break
				}
			}
			for _, g := range groups {
				if g.start.Vals != nil {
					rows, signs = append(rows, g.start), append(signs, -1)
				}
				if g.live {
					rows, signs = append(rows, tuple.Tuple{ID: g.id, Vals: rowOf(g.group, &g.state)}), append(signs, 1)
				}
			}
			if _, werr := vs.groups.ApplyRun(db.pool, rows, signs, -1, nil); werr != nil {
				return fmt.Errorf("core: group rows of %q: %w", vs.def.Name, werr)
			}
			return err
		})
}

// recomputeGroup rebuilds one group's state after a MIN/MAX extreme
// deletion: the view derived for that group alone, charged — a scan
// narrowed to the group when the relation is clustered on the grouping
// column, the rebuild source otherwise. It runs inside the apply sink's
// bracket, so its reads and its one screen per scanned row land on that
// operator.
func (db *op) recomputeGroup(vs *viewState, group tuple.Value) (*agg.State, error) {
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
func (db *op) fillGroupStore(vs *viewState) error {
	all, err := db.derive(vs, derivation{wholeFile: true, charged: true})
	if err != nil {
		return err
	}
	flush := exec.NewStateWrite(db.execOpts(), exec.Label{vs.def.Name, ".groups"}, func() error {
		groups := all.groups.sorted()
		rows := make([]tuple.Tuple, len(groups))
		for i, g := range groups {
			rows[i] = tuple.Tuple{ID: db.nextID(), Vals: rowOf(g.group, g.state)}
		}
		if _, err := vs.groups.ApplyRun(db.pool, rows, nil, -1, nil); err != nil {
			return fmt.Errorf("core: group rows of %q: %w", vs.def.Name, err)
		}
		return nil
	})
	return db.runPlan(vs, PlanPathRefresh, exec.NewSeq(exec.Label{"rebuild-groups(", vs.def.Name, ")"}, all.root, flush))
}

// QueryGroups answers a grouped-aggregate query restricted to a group
// range (nil = every group), refreshing per the view's strategy.
func (db *Database) QueryGroups(name string, rg *pred.Range) ([]GroupRow, error) {
	ans, err := db.read(name, "QueryGroups", rg, nil)
	return ans.groups, err
}

// groupsRead plans a read of the stored group rows.
func (db *op) groupsRead(vs *viewState, rg *pred.Range) *derived {
	scan := exec.NewScan(db.execOpts(), vs.groups, orFull(rg))
	return &derived{root: exec.NewFilter(db.execOpts(), exec.Label{vs.def.Name, ".groups"}, scan, exec.Pred{}, true)}
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
