package exec

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"viewmat/internal/pred"
	"viewmat/internal/relation"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// A sequential scan with prune atoms tests them on each page it reads and
// decodes only the rows that pass; the charged Filter above screens the
// rows it dropped. Against the same Filter over a plain NewSeqScan, the
// selecting scan must return the same rows in the same order, and — where
// no zone map prunes a page — the same scan RowsOut, Filter screens and
// page reads. Where pages are pruned, the reads fall by the pruned pages
// and the screens still equal the rows the scan tested. Both answers are
// the relation's rows the whole predicate holds for.

// insert adds tp to r through p: an ApplyRun of one row.
func insert(p *storage.Pool, r *relation.Relation, tp tuple.Tuple) error {
	_, err := r.ApplyRun(p, []tuple.Tuple{tp}, nil, -1, nil)
	return err
}

// selectFixture is one relation under one storage configuration.
type selectFixture struct {
	name   string
	hash   int  // 0: B+-tree; else hash buckets
	frames int  // pool capacity; 4 disables readahead and so pruning
	dirty  bool // one insert left dirty in the pool: pruning disarmed
}

const selectRows = 300

// selectRow is row k of every fixture's relation.
func selectRow(k int64) tuple.Tuple {
	f := float64(k%13) - 6.5
	if k%9 == 0 {
		f = math.Copysign(0, -1)
	}
	return tuple.New(uint64(k+1), tuple.I(k), tuple.I(k*41%selectRows), tuple.S(fmt.Sprintf("s%d", k%7)), tuple.F(f))
}

// build loads the fixture's relation. Two builds of one fixture are in
// identical states, frame for frame.
func (fx selectFixture) build(t *testing.T) (*relation.Relation, *storage.Pool, *storage.Meter) {
	t.Helper()
	d := storage.NewDisk(512)
	m := storage.NewMeter()
	p := storage.NewArena(d, fx.frames).NewPool(m)
	schema := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("s", tuple.String), tuple.Col("f", tuple.Float))
	var rel *relation.Relation
	var err error
	if fx.hash > 0 {
		rel, err = relation.NewHash(d, p, "r", schema, 0, fx.hash)
	} else {
		rel, err = relation.NewBTree(d, p, "r", schema, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < selectRows; k++ {
		if err := insert(p, rel, selectRow(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if fx.dirty {
		if err := insert(p, rel, selectRow(selectRows)); err != nil {
			t.Fatal(err)
		}
	}
	return rel, p, m
}

// drawAtom draws a comparison on one of the fixture's columns, mostly
// against a value of the column's type, sometimes against another type.
func drawAtom(rng *rand.Rand) pred.Cmp {
	col := rng.Intn(4)
	ops := []pred.Op{pred.Eq, pred.Ne, pred.Lt, pred.Le, pred.Gt, pred.Ge}
	var val tuple.Value
	typ := []tuple.Type{tuple.Int, tuple.Int, tuple.String, tuple.Float}[col]
	if rng.Intn(8) == 0 {
		typ = tuple.Type(rng.Intn(3))
	}
	switch typ {
	case tuple.Int:
		val = tuple.I(rng.Int63n(selectRows+20) - 10)
	case tuple.String:
		val = tuple.S([]string{"", "s0", "s3", "s35", "t"}[rng.Intn(5)])
	default:
		val = tuple.F([]float64{0, math.Copysign(0, -1), -2.5, 1, math.Inf(1)}[rng.Intn(5)])
	}
	return pred.Cmp{Rel: 0, Col: col, Op: ops[rng.Intn(len(ops))], Val: val}
}

// model is the plain-Go answer: the fixture's rows the predicate holds
// for, row-encoded in id order.
func (fx selectFixture) model(p *pred.P) []byte {
	n := int64(selectRows)
	if fx.dirty {
		n++
	}
	var enc []byte
	for k := int64(0); k < n; k++ {
		if tp := selectRow(k); p.EvalSingle(0, tp) {
			enc = tp.Encode(enc)
		}
	}
	return enc
}

// selectRun is what one scan+Filter tree reports.
type selectRun struct {
	rows          []byte // the answer, row-encoded in order
	byID          []byte // the answer, row-encoded in id order
	scanned       int64  // the scan's RowsOut
	screens       int64  // the Filter's C1 screens
	reads, pruned int64  // the scan's page reads and pruned pages
}

func runSelect(t *testing.T, rel *relation.Relation, o Options, full *pred.P, pushed []pred.Atom) selectRun {
	t.Helper()
	var scan *SeqScan
	if pushed == nil {
		scan = NewSeqScan(o, rel)
	} else {
		scan = NewSeqScanPruned(o, rel, PruneAtoms(pred.New(pushed...), nil, 0))
	}
	f := NewFilter(o, Label{"sel"}, scan, Pred{P: full}, true)
	rows, err := gathered(Drain(f))
	if err != nil {
		t.Fatal(err)
	}
	var enc, byID []byte
	for _, r := range rows {
		enc = r.T0.Encode(enc)
	}
	slices.SortFunc(rows, func(a, b Row) int { return cmp.Compare(a.T0.ID, b.T0.ID) })
	for _, r := range rows {
		byID = r.T0.Encode(byID)
	}
	st := scan.Stats()
	return selectRun{rows: enc, byID: byID, scanned: st.RowsOut, screens: f.Stats().Cost.Screens, reads: st.Cost.Reads, pruned: st.Pruned}
}

func TestSeqScanSelectionMatchesFullScan(t *testing.T) {
	var fixtures []selectFixture
	for _, am := range []struct {
		name string
		hash int
	}{{"btree", 0}, {"hash", 64}, {"hash-overflow", 4}} {
		for _, pm := range []struct {
			name   string
			frames int
			dirty  bool
		}{{"window", 256, false}, {"tiny-pool", 4, false}, {"dirty", 256, true}} {
			fixtures = append(fixtures, selectFixture{name: am.name + "/col/" + pm.name,
				hash: am.hash, frames: pm.frames, dirty: pm.dirty})
		}
	}
	for fi, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			relSel, poolSel, mSel := fx.build(t)
			relAll, poolAll, mAll := fx.build(t)
			rng := rand.New(rand.NewSource(int64(fi)))
			prunedAny := false
			for draw := 0; draw < 6; draw++ {
				pushed := []pred.Atom{drawAtom(rng)}
				if rng.Intn(2) == 0 {
					pushed = append(pushed, drawAtom(rng))
				}
				full := pred.New(append(append([]pred.Atom(nil), pushed...), drawAtom(rng))...) // one atom the scan never sees
				for _, bs := range []int{1, 7, 1024} {
					if !fx.dirty { // eviction would write the dirty frame back
						poolSel.Close()
						poolAll.Close()
					}
					sel := runSelect(t, relSel, Options{Pool: poolSel, Meter: mSel, BatchSize: bs}, full, pushed)
					all := runSelect(t, relAll, Options{Pool: poolAll, Meter: mAll, BatchSize: bs}, full, nil)
					where := fmt.Sprintf("draw %d (pushed %v, filter %v), batch %d", draw, pushed, full.Atoms, bs)
					if !bytes.Equal(sel.rows, all.rows) {
						t.Fatalf("%s: the selecting scan's answer differs", where)
					}
					if !bytes.Equal(all.byID, fx.model(full)) {
						t.Fatalf("%s: the answer differs from the rows the predicate holds for", where)
					}
					if sel.screens != sel.scanned || all.screens != all.scanned {
						t.Fatalf("%s: screens %d / %d for %d / %d rows scanned", where, sel.screens, all.screens, sel.scanned, all.scanned)
					}
					// A pruned page is a read saved — except a B+-tree's first
					// leaf, which the descent to it reads before the walk can
					// prune it.
					if d := sel.reads + sel.pruned - all.reads; d != 0 && (d != 1 || fx.hash > 0) {
						t.Fatalf("%s: %d reads + %d pruned, want the full scan's %d reads", where, sel.reads, sel.pruned, all.reads)
					}
					if sel.pruned == 0 && sel.scanned != all.scanned || sel.scanned > all.scanned {
						t.Fatalf("%s: scanned %d rows (%d pages pruned), the full scan %d", where, sel.scanned, sel.pruned, all.scanned)
					}
					prunedAny = prunedAny || sel.pruned > 0
				}
			}
			armed := !fx.dirty && fx.frames >= 8
			if prunedAny != armed {
				t.Errorf("pages pruned: %v; pruning armed: %v", prunedAny, armed)
			}
			poolSel.AssertUnpinned(t)
			poolAll.AssertUnpinned(t)
		})
	}
}
