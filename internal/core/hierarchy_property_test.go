package core

import (
	"fmt"
	"math/rand"

	"viewmat/internal/agg"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
	"viewmat/internal/workload"
)

// The hierarchy fixture of the property harness (lockstep_test.go): a
// random view DAG over a shared base, driven by a skewed key stream.

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

// hierFx draws the fixture for one seed of the hierarchy rows (4200 up):
// the DAG from rng — ahead of the script, which the same rng draws next
// — and a key stream whose skew cycles uniform, 1.5, 2.0 with the seed,
// so the same keys pile up in the AD file between folds.
func hierFx(rng *rand.Rand, seed int64) *fixture {
	nodes := genHierarchy(rng)
	fx := spFx("hierarchy", 30, 40)
	for _, n := range nodes {
		fx.views = append(fx.views, n.hierDef())
		fx.drawn = append(fx.drawn, n.strategy)
	}
	i := seed - 4200
	fx.keys = workload.KeyStream(200, 40, []float64{0, 1.5, 2.0}[i%3], i+17)
	fx.describe = formatHierarchy(nodes)
	return fx
}
