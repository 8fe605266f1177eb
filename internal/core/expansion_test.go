package core

import (
	"math/rand"
	"testing"

	"viewmat/internal/exec"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// TestJoinExpansionTerms holds the join expansion to §2.1 term by term,
// below the sink. Each seeded transaction of 1–6 mutations changes both
// relations of the two-sided Model-2 fixture; the test then builds the
// expansion of the transaction's net changes over the end-state files
// the way refreshGroup does — for each view alone (its private plan)
// and once for the group (the shared build, replayed to each view) —
// and takes the rows each view's apply tree keeps after its filter of
// the joined binding: what its sink would apply. For every view:
//   - the private rows equal the shared replay's row for row, polarity
//     included, which is refreshGroup's equivalence argument;
//   - as multisets per polarity they equal the six terms of the
//     corrected expansion, computed from the start-state and end-state
//     rows by the lockstep reference's refJoin.
func TestJoinExpansionTerms(t *testing.T) {
	fx := twoSidedFx()
	fx.views = append(fx.views, fanJoinDef("j1", 0, 50), fanJoinDef("j2", 20, 80))
	e, err := fx.build(&engineConfig{name: "query-modification", strategy: QueryModification})
	if err != nil {
		t.Fatal(err)
	}
	db := e.db
	views := make([]*viewState, len(fx.views))
	for i, d := range fx.views {
		views[i] = db.views[d.Name]
	}
	rng := rand.New(rand.NewSource(60))
	steps, _ := genScript(rng, fx.keyStream(rng), len(fx.rels), phaseMix{rounds: 40, txEvery: 1, ops: [2]int{1, 6}})
	var reached [6]int // rows per term, in terms' order, over the run
	start, txn := baseRows(t, db), 0
	for _, s := range steps {
		if s.op == "query" {
			continue
		}
		if err := e.apply(fx, s); err != nil {
			t.Fatal(err)
		}
		if s.op != "commit" {
			continue
		}
		end := baseRows(t, db)
		d1, d2 := netChange(start[0], end[0]), netChange(start[1], end[1])
		f := baseFeed(views[0], map[int]*deltas{0: d1, 1: d2}, false)
		o := db.begin() // the test's reads, between the script's operations
		build, err := exec.Drain(o.feedSource(f, views))
		if err != nil {
			t.Fatal(err)
		}
		replay := exec.LiveRows(build)

		r1p, r2p := without(start[0], d1.dels), without(end[1], d2.adds)
		for _, vs := range views {
			d := vs.def
			private := keptRows(t, o, vs, o.feedSource(f, []*viewState{vs}), false)
			shared := keptRows(t, o, vs, exec.NewSharedDeltaScan(o.execOpts(), f.fp, replay), true)
			if len(private) != len(shared) {
				t.Fatalf("txn %d view %s: private plan keeps %d rows, shared replay %d", txn, d.Name, len(private), len(shared))
			}
			for i := range private {
				pr, sh := private[i], shared[i]
				if pr.T0.ID != sh.T0.ID || pr.T1.ID != sh.T1.ID || pr.Insert != sh.Insert {
					t.Fatalf("txn %d view %s row %d: private (%d, %d, insert=%v), shared (%d, %d, insert=%v)",
						txn, d.Name, i, pr.T0.ID, pr.T1.ID, pr.Insert, sh.T0.ID, sh.T1.ID, sh.Insert)
				}
			}
			terms := [6][]ResultRow{
				refJoin(d, d1.adds, r2p), refJoin(d, r1p, d2.adds), refJoin(d, d1.adds, d2.adds),
				refJoin(d, d1.dels, r2p), refJoin(d, r1p, d2.dels), refJoin(d, d1.dels, d2.dels),
			}
			var want, got [2][]ResultRow // deletes, inserts
			for i, rows := range terms {
				reached[i] += len(rows)
				want[1-i/3] = append(want[1-i/3], rows...)
			}
			for _, row := range private {
				out := ResultRow{Vals: append(refPick(row.T0, d.Project[0]), refPick(row.T1, d.Project[1])...)}
				if row.Insert {
					got[1] = append(got[1], out)
				} else {
					got[0] = append(got[0], out)
				}
			}
			for pol, name := range []string{"deletes", "inserts"} {
				if err := diffRows(got[pol], want[pol]); err != nil {
					t.Fatalf("txn %d view %s: %s differ from the corrected expansion's terms: %v", txn, d.Name, name, err)
				}
			}
		}
		if _, err := o.end(opWhat{kind: "test"}); err != nil {
			t.Fatal(err)
		}
		start, txn = end, txn+1
	}
	for i, n := range reached {
		if n == 0 {
			t.Errorf("term %d produced no row over the run: the script does not reach it", i)
		}
	}
}

// baseRows reads r1's and r2's rows, ids included, from their files.
func baseRows(t *testing.T, db *Database) [2][]tuple.Tuple {
	t.Helper()
	var out [2][]tuple.Tuple
	for i, name := range []string{"r1", "r2"} {
		var batches []*vec.Batch
		err := db.withPool(func(p *storage.Pool) (err error) {
			batches, _, err = db.rels[name].ScanAllBatches(p, 0, nil)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range exec.LiveRows(batches) {
			out[i] = append(out[i], row.T0)
		}
	}
	return out
}

// netChange is the net change from start to end, by tuple id: an update
// is the delete of its old tuple and the insert of its new one.
func netChange(start, end []tuple.Tuple) *deltas {
	return &deltas{adds: without(end, start), dels: without(start, end)}
}

// without is rows less the tuples whose ids minus holds.
func without(rows, minus []tuple.Tuple) []tuple.Tuple {
	ids := idSet(minus)
	var out []tuple.Tuple
	for _, tp := range rows {
		if !ids[tp.ID] {
			out = append(out, tp)
		}
	}
	return out
}

// keptRows builds vs's apply tree over src and drains it below the sink:
// the rows its filter of the joined binding keeps.
func keptRows(t *testing.T, db *op, vs *viewState, src exec.Operator, replay bool) []exec.Row {
	t.Helper()
	tree, err := db.applyTree(vs, src, replay)
	if err != nil {
		t.Fatal(err)
	}
	// DeltaApply → Project → Filter.
	filt, ok := tree.Children()[0].Children()[0].(*exec.Filter)
	if !ok {
		t.Fatalf("view %s: the apply tree's filter is not below its projection", vs.def.Name)
	}
	batches, err := exec.Drain(filt)
	if err != nil {
		t.Fatal(err)
	}
	return exec.LiveRows(batches)
}
