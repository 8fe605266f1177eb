package core

import (
	"errors"
	"strings"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
)

// FuzzHierarchyDDL decodes arbitrary bytes into a CreateViews batch
// over a small name pool — dangling parents, duplicates, cycles,
// children over scalar or unmaterialized views, joins over views,
// strategy conflicts — and pins the DDL contract: no input panics, and
// every rejection unwraps (errors.Is) to one of the typed hierarchy
// errors. Whatever the batch's fate, the engine must stay fully usable
// afterwards: commits, refreshes, and queries against the surviving
// catalog succeed, drops fail only for dependency order, and no page
// stays pinned.

// hierarchyDDLErrors is the closed taxonomy CreateViews may fail with.
var hierarchyDDLErrors = []error{
	ErrUnknownSource,
	ErrParentNotMaterialized,
	ErrParentScalar,
	ErrChildJoin,
	ErrHierarchyCycle,
	ErrDuplicateView,
	ErrStrategyConflict,
}

// decodeDDLBatch turns fuzz bytes into view specs, five bytes per
// spec: name, kind, source, strategy, predicate bound. Definitions are
// structurally valid in isolation (columns always in range for every
// reachable parent schema), so any rejection exercises the hierarchy
// rules rather than Def.Validate.
func decodeDDLBatch(data []byte) []ViewSpec {
	names := []string{"w0", "w1", "w2", "w3"}
	srcs := []string{"r", "w0", "w1", "w2", "w3", "zz"}
	strategies := []Strategy{QueryModification, Immediate, Deferred, Snapshot, RecomputeOnDemand}
	var specs []ViewSpec
	for len(data) >= 5 && len(specs) < 8 {
		name := names[int(data[0])%len(names)]
		kind := data[1]
		src := srcs[int(data[2])%len(srcs)]
		st := strategies[int(data[3])%len(strategies)]
		lo := int64(data[4]) % 40
		cmp := []pred.Atom{
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(lo)},
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(lo + 8)},
		}
		d := Def{Name: name, Relations: []string{src}, Pred: pred.New(cmp...)}
		switch kind % 6 {
		case 0: // join: slot 1 reads the disjoint base relation
			d.Kind = Join
			d.Relations = []string{src, "r2"}
			d.Pred = pred.New(
				pred.JoinEq{LRel: 0, LCol: 0, RRel: 1, RCol: 0},
				pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(lo + 8)},
			)
			d.Project = [][]int{{0, 1}, {1}}
		case 1:
			d.Kind = Aggregate
			d.AggKind = []agg.Kind{agg.Count, agg.Sum}[kind>>6&1]
		case 2:
			d.Kind = GroupedAggregate
			d.AggKind = []agg.Kind{agg.Count, agg.Sum}[kind>>6&1]
		default: // every reachable parent has >= 2 columns
			d.Kind = SelectProject
			d.Project = [][]int{{0, 1}}
		}
		specs = append(specs, ViewSpec{Def: d, Strategy: st})
		data = data[5:]
	}
	return specs
}

func FuzzHierarchyDDL(f *testing.F) {
	// A clean chain, a two-node cycle, a duplicate, a dangling parent,
	// a child over a scalar aggregate, and a join over a view.
	f.Add([]byte{0, 5, 0, 2, 10, 1, 5, 1, 2, 12})
	f.Add([]byte{0, 5, 2, 1, 5, 1, 5, 1, 1, 5})
	f.Add([]byte{0, 5, 0, 1, 5, 0, 1, 0, 1, 5})
	f.Add([]byte{0, 5, 5, 3, 20})
	f.Add([]byte{0, 1, 0, 1, 5, 1, 5, 1, 2, 9})
	f.Add([]byte{0, 5, 0, 2, 5, 1, 0, 1, 2, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		specs := decodeDDLBatch(data)
		db := NewDatabase(testOpts())
		defer db.assertUnpinned(t)
		for _, rel := range []string{"r", "r2"} {
			if _, err := db.CreateRelationBTree(rel, spSchema(), 0); err != nil {
				t.Fatal(err)
			}
		}
		tx := db.Begin()
		for i := 0; i < 10; i++ {
			for _, rel := range []string{"r", "r2"} {
				if _, err := tx.Insert(rel, tuple.I(int64(i)), tuple.I(int64(i*3)), tuple.S(sName(i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}

		if err := db.CreateViews(specs); err != nil {
			typed := false
			for _, want := range hierarchyDDLErrors {
				if errors.Is(err, want) {
					typed = true
					break
				}
			}
			if !typed {
				t.Fatalf("untyped DDL rejection: %v", err)
			}
		}

		// The engine must be usable no matter how the batch fared (a
		// mid-batch failure keeps the views created before it).
		tx = db.Begin()
		if _, err := tx.Insert("r", tuple.I(5), tuple.I(99), tuple.S("z")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := db.RefreshAll(); err != nil {
			t.Fatalf("RefreshAll over surviving catalog: %v", err)
		}
		for _, sp := range specs {
			var err error
			switch sp.Def.Kind {
			case Aggregate:
				_, _, err = db.QueryAggregate(sp.Def.Name)
			case GroupedAggregate:
				_, err = db.QueryGroups(sp.Def.Name, nil)
			default:
				_, err = db.QueryView(sp.Def.Name, nil)
			}
			if err != nil && !strings.Contains(err.Error(), "unknown view") {
				t.Fatalf("query %q: %v", sp.Def.Name, err)
			}
		}

		// Drops honor dependency order and nothing else: a failure is
		// ErrHasChildren (or the name never made it into the catalog),
		// and every view is gone once its children are. Each pass
		// removes at least the current leaves, so one pass per spec
		// always suffices.
		for pass := 0; pass <= len(specs); pass++ {
			for _, sp := range specs {
				err := db.DropView(sp.Def.Name)
				if err != nil && !errors.Is(err, ErrHasChildren) &&
					!strings.Contains(err.Error(), "unknown view") {
					t.Fatalf("drop %q: %v", sp.Def.Name, err)
				}
			}
		}
		if left := db.ViewNames(); len(left) != 0 {
			t.Fatalf("views survive two drop passes: %v", left)
		}
	})
}
