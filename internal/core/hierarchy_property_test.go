package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
	"viewmat/internal/workload"
)

// The hierarchy property layer: random view DAGs over a shared base,
// driven by skewed update scripts, proven against a recompute oracle.
// Five engines replay every script in lockstep:
//
//	subject  — the drawn per-view strategies, cost-model share gate,
//	           vectorized batches, columnar pages, heavy-light on,
//	unshared — subject with the share gate private: results must be
//	           byte-identical (positional), proving sharing never
//	           changes stored contents,
//	batch1   — subject under setBatch1: byte-identical AND
//	           meter-identical, proving vectorization is free,
//	rowpages — subject on row-major pages: byte-identical (columnar
//	           zone maps may prune reads, so meters may differ),
//	oracle   — every view RecomputeOnDemand with no partitioning:
//	           full recomputation from base files at each read.
//
// Failures shrink to a minimal script exactly like the strategy
// properties in strategy_property_test.go.

// hierNode is one view of a randomly drawn hierarchy.
type hierNode struct {
	name     string
	kind     Kind
	parent   string // "r" for roots, else a view name
	lo, hi   int64
	aggKind  agg.Kind
	groupBy  int
	strategy Strategy
}

// hierDef materializes the node as a view definition. Roots follow the
// spDef shape over r(k, a, s); children read their parent's (c0, c1)
// output schema.
func (n hierNode) hierDef() Def {
	d := Def{
		Name:      n.name,
		Relations: []string{n.parent},
		Kind:      n.kind,
		Pred: pred.New(
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(n.lo)},
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(n.hi)},
		),
	}
	switch n.kind {
	case SelectProject:
		if n.parent == "r" {
			d.Project = [][]int{{0, 2}}
		} else {
			d.Project = [][]int{{0, 1}}
		}
		d.ViewKeyCol = 0
	case Aggregate:
		d.AggKind = n.aggKind
		d.AggCol = 0
	case GroupedAggregate:
		d.AggKind = n.aggKind
		d.AggCol = 0
		d.GroupBy = n.groupBy
	}
	return d
}

// genHierarchy draws a random DAG: 1–2 select-project roots over r,
// then 2–4 children attached to random materialized, row-producing
// ancestors. Scalar aggregates and string-grouped views are leaves;
// query-modification is only assigned to leaves.
func genHierarchy(rng *rand.Rand) []hierNode {
	var nodes []hierNode
	// parentable collects indexes of nodes children may attach to.
	var parentable []int
	roots := rng.Intn(2) + 1
	for i := 0; i < roots; i++ {
		lo := rng.Int63n(25)
		nodes = append(nodes, hierNode{
			name:   fmt.Sprintf("v%d", i),
			kind:   SelectProject,
			parent: "r",
			lo:     lo,
			hi:     lo + 10 + rng.Int63n(30),
		})
		parentable = append(parentable, i)
	}
	children := rng.Intn(3) + 2
	for i := 0; i < children; i++ {
		pi := parentable[rng.Intn(len(parentable))]
		p := nodes[pi]
		n := hierNode{
			name:   fmt.Sprintf("c%d", i),
			parent: p.name,
			lo:     p.lo + rng.Int63n(5),
		}
		n.hi = n.lo + 5 + rng.Int63n(20)
		switch rng.Intn(5) {
		case 0: // scalar aggregate leaf
			n.kind = Aggregate
			n.aggKind = []agg.Kind{agg.Count, agg.Sum}[rng.Intn(2)]
		case 1: // grouped aggregate, int group (parentable)
			n.kind = GroupedAggregate
			n.aggKind = []agg.Kind{agg.Count, agg.Sum}[rng.Intn(2)]
			n.groupBy = 0
		default:
			n.kind = SelectProject
		}
		idx := len(nodes)
		nodes = append(nodes, n)
		if n.kind != Aggregate {
			parentable = append(parentable, idx)
		}
	}
	// Strategies: leaves draw from all five, inner nodes from the
	// materialized four.
	hasKids := map[string]bool{}
	for _, n := range nodes {
		hasKids[n.parent] = true
	}
	materialized := []Strategy{Immediate, Deferred, Snapshot, RecomputeOnDemand}
	all := append([]Strategy{QueryModification}, materialized...)
	for i := range nodes {
		if hasKids[nodes[i].name] {
			nodes[i].strategy = materialized[rng.Intn(len(materialized))]
		} else {
			nodes[i].strategy = all[rng.Intn(len(all))]
		}
	}
	return nodes
}

func formatHierarchy(nodes []hierNode) string {
	out := ""
	for _, n := range nodes {
		out += fmt.Sprintf("  %s: %v over %s [%d,%d) %v\n", n.name, n.kind, n.parent, n.lo, n.hi, n.strategy)
	}
	return out
}

// buildHierPropDB seeds r and creates the hierarchy on the given fresh
// engine; strategy override forces every view to one strategy (the
// oracle), -1 keeps the drawn ones.
func buildHierPropDB(nodes []hierNode, db *Database, override Strategy, heavyLight bool) (*Database, error) {
	if _, err := db.CreateRelationBTree("r", spSchema(), 0); err != nil {
		return nil, err
	}
	tx := db.Begin()
	for i := 0; i < 30; i++ {
		if _, err := tx.Insert("r", tuple.I(int64(i)), tuple.I(int64(i*2)), tuple.S(sName(i))); err != nil {
			return nil, err
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	specs := make([]ViewSpec, 0, len(nodes))
	for _, n := range nodes {
		st := n.strategy
		if override >= 0 {
			st = override
		}
		specs = append(specs, ViewSpec{Def: n.hierDef(), Strategy: st})
	}
	if err := db.CreateViews(specs); err != nil {
		return nil, err
	}
	for _, n := range nodes {
		st := n.strategy
		if override >= 0 {
			st = override
		}
		if st == Snapshot {
			if err := db.SetSnapshotInterval(n.name, 0); err != nil {
				return nil, err
			}
		}
	}
	if heavyLight {
		if err := db.EnableHeavyLight("r", 0.25, 8); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// genHierScript is genScript with keys drawn from a zipfian stream, so
// the heavy-light router sees real skew.
func genHierScript(rng *rand.Rand, rounds int, keys []int64) []propStep {
	var steps []propStep
	ki := 0
	nextKey := func() int64 {
		k := keys[ki%len(keys)]
		ki++
		return k
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < rng.Intn(3)+1; i++ {
			switch rng.Intn(3) {
			case 0:
				steps = append(steps, propStep{op: "ins", key: nextKey(), val: rng.Int63n(50)})
			case 1:
				steps = append(steps, propStep{op: "del", idx: rng.Intn(1 << 20)})
			case 2:
				steps = append(steps, propStep{op: "upd", idx: rng.Intn(1 << 20), key: nextKey(), val: rng.Int63n(50)})
			}
		}
		steps = append(steps, propStep{op: "query"})
	}
	return steps
}

// hierResult is one engine's answer for one view, read exactly once
// per checkpoint — strategies that charge at query time (QM screens,
// on-demand recomputes, zero-interval snapshots) must be billed the
// same number of reads on every engine for the meter comparison to
// mean anything.
type hierResult struct {
	aggVal float64
	aggOK  bool
	groups []GroupRow
	rows   []ResultRow
}

func readHierView(db *Database, n hierNode) (hierResult, error) {
	var res hierResult
	var err error
	switch n.kind {
	case Aggregate:
		res.aggVal, res.aggOK, err = db.QueryAggregate(n.name)
	case GroupedAggregate:
		res.groups, err = db.QueryGroups(n.name, nil)
	default:
		res.rows, err = db.QueryView(n.name, nil)
	}
	return res, err
}

// compareHierResults checks one view's answers from two engines; exact
// selects positional comparison for row-producing kinds.
func compareHierResults(a, b hierResult, n hierNode, exact bool) error {
	switch n.kind {
	case Aggregate:
		if a.aggOK != b.aggOK {
			return fmt.Errorf("%s: defined %v vs %v", n.name, a.aggOK, b.aggOK)
		}
		if a.aggOK && math.Abs(a.aggVal-b.aggVal) > 1e-9 {
			return fmt.Errorf("%s: %v vs %v", n.name, a.aggVal, b.aggVal)
		}
	case GroupedAggregate:
		if len(a.groups) != len(b.groups) {
			return fmt.Errorf("%s: %d vs %d groups", n.name, len(a.groups), len(b.groups))
		}
		for i := range a.groups {
			if a.groups[i].Group.String() != b.groups[i].Group.String() ||
				math.Abs(a.groups[i].Value-b.groups[i].Value) > 1e-9 {
				return fmt.Errorf("%s: group %d: (%s,%v) vs (%s,%v)", n.name, i,
					a.groups[i].Group, a.groups[i].Value, b.groups[i].Group, b.groups[i].Value)
			}
		}
	default:
		if exact {
			return diffRowsExact(a.rows, b.rows)
		}
		return diffRows(a.rows, b.rows)
	}
	return nil
}

// runHierarchyProp replays one script through the five engines and
// checks every view at every query point.
func runHierarchyProp(nodes []hierNode, steps []propStep) error {
	subjectOpts := testOpts()
	subjectOpts.MaxRefreshWorkers = 4
	subject := func() *Database { return NewDatabase(subjectOpts) }

	type engine struct {
		name string
		db   *Database
		live []liveRow
	}
	specs := []struct {
		name     string
		db       *Database
		gate     func() bool
		override Strategy
		hl       bool
	}{
		{"subject", subject(), gateModel, -1, true},
		{"unshared", subject(), gatePrivate, -1, true},
		{"batch1", setBatch1(subject()), gateModel, -1, true},
		{"rowpages", setRowOracle(subject()), gateModel, -1, true},
		{"oracle", NewDatabase(testOpts()), gatePrivate, RecomputeOnDemand, false},
	}
	engines := make([]engine, len(specs))
	for i, sp := range specs {
		db, err := buildHierPropDB(nodes, sp.db, sp.override, sp.hl)
		if err != nil {
			return fmt.Errorf("setup %s: %w", sp.name, err)
		}
		setShareGate(db, sp.gate)
		var live []liveRow
		for k := 0; k < 30; k++ {
			live = append(live, liveRow{key: int64(k), id: uint64(k + 1)})
		}
		engines[i] = engine{name: sp.name, db: db, live: live}
	}
	vals := func(key, val int64) []tuple.Value {
		return []tuple.Value{tuple.I(key), tuple.I(val), tuple.S(sName(int(val)))}
	}
	for _, s := range steps {
		if s.op != "query" {
			for i := range engines {
				var err error
				engines[i].live, err = applyStep(engines[i].db, engines[i].live, s, "r", vals)
				if err != nil {
					return fmt.Errorf("%s: %w", engines[i].name, err)
				}
			}
			continue
		}
		for i := range engines {
			if err := engines[i].db.RefreshAll(); err != nil {
				return fmt.Errorf("%s: RefreshAll: %w", engines[i].name, err)
			}
		}
		for _, n := range nodes {
			results := make([]hierResult, len(engines))
			for i := range engines {
				var err error
				results[i], err = readHierView(engines[i].db, n)
				if err != nil {
					return fmt.Errorf("%s: read %s: %w", engines[i].name, n.name, err)
				}
			}
			// Sharing and partitioning must not change stored bytes.
			if err := compareHierResults(results[0], results[1], n, true); err != nil {
				return fmt.Errorf("subject vs unshared: %w", err)
			}
			// Vectorization must change neither bytes nor charges.
			if err := compareHierResults(results[0], results[2], n, true); err != nil {
				return fmt.Errorf("subject vs batch1: %w", err)
			}
			// Page layout must not change stored bytes (charges may
			// differ: zone maps prune columnar reads).
			if err := compareHierResults(results[0], results[3], n, true); err != nil {
				return fmt.Errorf("subject vs rowpages: %w", err)
			}
			// And everything must mean what a full recompute means.
			if err := compareHierResults(results[0], results[4], n, false); err != nil {
				return fmt.Errorf("subject vs oracle: %w", err)
			}
		}
		// Meter snapshots: the batch-1 twin runs the identical plans
		// over identical pages, so its cumulative charges are equal.
		if a, b := engines[0].db.Meter().Snapshot(), engines[2].db.Meter().Snapshot(); a != b {
			return fmt.Errorf("meter drift subject=%+v batch1=%+v", a, b)
		}
	}
	return nil
}

func TestPropertyHierarchyRecomputeOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed + 4200))
			nodes := genHierarchy(rng)
			skew := []float64{0, 1.5, 2.0}[seed%3]
			keys := workload.KeyStream(200, 40, skew, seed+17)
			steps := genHierScript(rng, 5, keys)
			if err := runHierarchyProp(nodes, steps); err != nil {
				min := shrinkScript(steps, func(s []propStep) bool { return runHierarchyProp(nodes, s) != nil })
				t.Fatalf("seed %d: %v\nhierarchy:\n%sminimal workload script:\n%s",
					seed, runHierarchyProp(nodes, min), formatHierarchy(nodes), formatScript(min))
			}
		})
	}
}
