package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"viewmat/internal/agg"
	"viewmat/internal/core"
	"viewmat/internal/pred"
	"viewmat/internal/report"
	"viewmat/internal/tuple"
	"viewmat/internal/workload"
)

// runHierarchy demos views over views: a deferred root over the base
// relation, two sibling children that drain the root's delta log as
// one shared group, a grouped-aggregate grandchild, and a scalar
// total. A zipfian update burst accumulates in the AD file and folds
// at RefreshAll. The printed refresh trees show the delta-of-a-delta
// operators: ViewDeltaScan replaying the parent's log, SharedDelta
// charging one replay to the leader sibling.
func runHierarchy(w io.Writer, skew float64, seed int64) error {
	const (
		nRows    = 400
		keySpace = 200
		burst    = 60
	)
	db := core.NewDatabase(core.Options{PageSize: 512, PoolFrames: 256})
	schema := tuple.NewSchema(
		tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("s", tuple.String))
	if _, err := db.CreateRelationBTree("r", schema, 0); err != nil {
		return err
	}
	tx := db.Begin()
	for i := 0; i < nRows; i++ {
		if _, err := tx.Insert("r", tuple.I(int64(i%keySpace)), tuple.I(int64(i)), tuple.S("s")); err != nil {
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}

	between := func(lo, hi int64) *pred.P {
		return pred.New(
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(lo)},
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(hi)},
		)
	}
	specs := []core.ViewSpec{
		{Def: core.Def{Name: "v", Kind: core.SelectProject, Relations: []string{"r"},
			Pred: between(0, keySpace), Project: [][]int{{0, 1}}, ViewKeyCol: 0}, Strategy: core.Deferred},
		{Def: core.Def{Name: "c0", Kind: core.SelectProject, Relations: []string{"v"},
			Pred: between(20, 160), Project: [][]int{{0, 1}}, ViewKeyCol: 0}, Strategy: core.Deferred},
		{Def: core.Def{Name: "c1", Kind: core.SelectProject, Relations: []string{"v"},
			Pred: between(40, 120), Project: [][]int{{0, 1}}, ViewKeyCol: 0}, Strategy: core.Deferred},
		{Def: core.Def{Name: "perkey", Kind: core.GroupedAggregate, Relations: []string{"c0"},
			Pred: between(0, keySpace), AggKind: agg.Count, AggCol: 0, GroupBy: 0}, Strategy: core.Deferred},
		{Def: core.Def{Name: "total", Kind: core.Aggregate, Relations: []string{"c1"},
			Pred: between(0, keySpace), AggKind: agg.Sum, AggCol: 1}, Strategy: core.Deferred},
	}
	if err := db.CreateViews(specs); err != nil {
		return err
	}

	keys := workload.KeyStream(burst, keySpace, skew, seed)
	fmt.Fprintf(w, "hierarchy demo: r(%d rows) -> v -> {c0, c1} -> {perkey, total}\n", nRows)
	fmt.Fprintf(w, "update burst: %d keys, skew %g\n\n", burst, skew)

	for i, k := range keys {
		tx := db.Begin()
		if _, err := tx.Insert("r", tuple.I(k), tuple.I(int64(i)), tuple.S("u")); err != nil {
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		// A fold every 20 commits: the last refresh trees below show one
		// 20-commit window of the root's delta log.
		if (i+1)%20 == 0 {
			if err := db.RefreshAll(); err != nil {
				return err
			}
		}
	}
	if err := db.RefreshAll(); err != nil {
		return err
	}

	rows := [][]string{}
	for _, name := range []string{"v", "c0", "c1"} {
		rs, err := db.QueryView(name, nil)
		if err != nil {
			return err
		}
		kids, err := db.ViewChildren(name)
		if err != nil {
			return err
		}
		rows = append(rows, []string{name, fmt.Sprintf("%d", len(rs)), strings.Join(kids, " ")})
	}
	groups, err := db.QueryGroups("perkey", nil)
	if err != nil {
		return err
	}
	rows = append(rows, []string{"perkey", fmt.Sprintf("%d groups", len(groups)), ""})
	total, ok, err := db.QueryAggregate("total")
	if err != nil {
		return err
	}
	rows = append(rows, []string{"total", fmt.Sprintf("sum=%.0f (defined=%v)", total, ok), ""})
	fmt.Fprint(w, report.Table([]string{"view", "rows", "children"}, rows))

	for _, name := range []string{"c0", "c1"} {
		ex, err := db.Explain(name, core.WorkloadHints{})
		if err != nil {
			return err
		}
		paths := make([]string, 0, len(ex.PlanTrees))
		for p := range ex.PlanTrees {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		fmt.Fprintf(w, "\n%s operator trees:\n", name)
		for _, p := range paths {
			fmt.Fprintf(w, "[%s]\n%s", p, ex.PlanTrees[p])
		}
	}

	var phases []string
	bd := db.Breakdown()
	for ph := range bd {
		phases = append(phases, string(ph))
	}
	sort.Strings(phases)
	fmt.Fprintln(w, "\nmetered charges by phase:")
	for _, ph := range phases {
		s := bd[core.Phase(ph)]
		fmt.Fprintf(w, "  %-12s reads=%d writes=%d screens=%d adTouches=%d\n",
			ph, s.Reads, s.Writes, s.Screens, s.ADTouches)
	}
	return nil
}
