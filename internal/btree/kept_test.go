package btree

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"viewmat/internal/colpage"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// A full scan keeps each leaf it reads in a readahead window decoded
// beside the leaf's image (colpage's kept lanes). These tests hold the
// lanes to the image they stand for: built by the first scan of the
// bytes, reused by every later one, rebuilt where the bytes changed and
// nowhere else, never outliving the bytes, and never changing an answer,
// a charge or a prune. Every use of kept lanes in a test binary is also
// checked against a fresh decode of the page (colpage's kept.check).

// keptRow is row k of the kept-lane fixtures: R(k, a, p) of scan-qm's
// shape, with a string column so that lanes keep string cells too.
func keptRow(k, n int64) tuple.Tuple {
	return tuple.New(uint64(k+1), tuple.I(k), tuple.I(k*40503%n), tuple.S(fmt.Sprintf("p%d", k%7)))
}

// newKeptTree loads n keptRows in 200-row runs on 512-byte pages, every
// page written to its image.
func newKeptTree(t *testing.T, n int64) (*testTree, *storage.Disk, *storage.Meter) {
	t.Helper()
	d := storage.NewDisk(512)
	m := storage.NewMeter()
	tr, err := newTree(storage.NewArena(d, 64).NewPool(m), d.Open("t"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for lo := int64(0); lo < n; lo += 200 {
		var run []tuple.Tuple
		for k := lo; k < min(lo+200, n); k++ {
			run = append(run, keptRow(k, n))
		}
		if err := insertRun(tr, run); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.pool.Close(); err != nil {
		t.Fatal(err)
	}
	return tr, d, m
}

// keptScan is one full scan's account: its rows, reads, prunes, and the
// leaves whose lanes it built and reused.
type keptScan struct {
	rows          []tuple.Tuple
	reads, pruned int64
	built, reused int64
}

// scanKept runs a full scan of tr pruned by atoms and closes its pool.
func scanKept(t *testing.T, tr *testTree, m *storage.Meter, atoms []colpage.Atom) keptScan {
	t.Helper()
	built, reused := colpage.KeptLanes()
	before := m.Snapshot()
	it, err := tr.ScanAll(atoms)
	if err != nil {
		t.Fatal(err)
	}
	s := keptScan{rows: collect(t, it), pruned: it.Pruned()}
	s.reads = m.Snapshot().Sub(before).Reads
	b, r := colpage.KeptLanes()
	s.built, s.reused = b-built, r-reused
	if err := tr.pool.Close(); err != nil {
		t.Fatal(err)
	}
	return s
}

// freshAnswer is what a scan pruned by atoms must answer, from a fresh
// decode of every leaf: a range scan, which follows the chain page by
// page and keeps no lanes, filtered by the atoms.
func freshAnswer(t *testing.T, tr *testTree, atoms []colpage.Atom) []tuple.Tuple {
	t.Helper()
	it, err := tr.ScanBatches(&pred.Range{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []tuple.Tuple
	for _, tp := range collect(t, it) {
		keep := true
		for _, a := range atoms {
			keep = keep && a.Op.Holds(tp.Vals[a.Col], a.Val)
		}
		if keep {
			out = append(out, tp)
		}
	}
	if err := tr.pool.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameRows reports whether two answers hold the same rows in order: ids,
// and values of the same type that compare equal.
func sameRows(a, b []tuple.Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y tuple.Tuple) bool {
		return x.ID == y.ID && slices.EqualFunc(x.Vals, y.Vals, func(v, w tuple.Value) bool {
			return v.Type() == w.Type() && tuple.Equal(v, w)
		})
	})
}

// drain is collect for a goroutine: it returns the scan's error.
func drain(it *colpage.Scan) ([]tuple.Tuple, error) {
	var out []tuple.Tuple
	for !it.Done() {
		b := &vec.Batch{}
		if err := it.Fill(b, vec.DefaultBatchSize); err != nil {
			return nil, err
		}
		out = b.AppendTuples(out, 0)
	}
	return out, nil
}

// keptValues returns, by leaf page number, the value kept beside each
// leaf's image (nil where none is), reading no lane and keeping nothing.
func keptValues(t *testing.T, tr *testTree) map[storage.PageNum]any {
	t.Helper()
	out := map[storage.PageNum]any{}
	for pn := storage.PageNum(0); pn < tr.file.Extent(); pn++ {
		leaf := false
		if err := tr.file.View(pn, func(page []byte) error {
			leaf = page[0] == byte(leafPages)
			return nil
		}); err != nil || !leaf {
			continue
		}
		v, err := tr.pool.Derive(tr.file, pn, func(_ []byte, d any) (any, error) { return d, nil })
		if err != nil {
			t.Fatal(err)
		}
		out[pn] = v
	}
	if err := tr.pool.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestKeptLanesLifetime follows one relation's kept lanes through scans,
// an update, a freed and reused page and a restored disk.
func TestKeptLanesLifetime(t *testing.T) {
	const n = 3000
	tr, d, m := newKeptTree(t, n)
	atoms := []colpage.Atom{{Col: 1, Op: pred.Lt, Val: tuple.I(n / 10)}}
	want := freshAnswer(t, tr, atoms)
	if len(want) != n/10 {
		t.Fatalf("the fresh decode answers %d rows, want %d", len(want), n/10)
	}

	// The reads are the leaves read and the descent's internal pages.
	first := scanKept(t, tr, m, atoms)
	leaves := int64(tr.LeafPages())
	read := leaves - first.pruned
	if first.built != read || first.reused != 0 || first.pruned == 0 || first.reads != read+int64(tr.Height()-1) {
		t.Fatalf("first scan: %d reads, %d pruned of %d leaves; built %d, reused %d lanes", first.reads, first.pruned, leaves, first.built, first.reused)
	}
	second := scanKept(t, tr, m, atoms)
	if second.built != 0 || second.reused != read || second.reads != first.reads || second.pruned != first.pruned {
		t.Fatalf("second scan: %d reads, %d pruned, built %d, reused %d; the first read %d and pruned %d",
			second.reads, second.pruned, second.built, second.reused, first.reads, first.pruned)
	}
	for _, s := range []keptScan{first, second} {
		if !sameRows(s.rows, want) {
			t.Fatalf("a scan answered %d rows, the fresh decode %d", len(s.rows), len(want))
		}
	}
	// An unpruned scan keeps every leaf's lanes.
	if all := scanKept(t, tr, m, nil); all.built != first.pruned || all.reused != read || int64(len(all.rows)) != n {
		t.Fatalf("unpruned scan: %d rows, built %d, reused %d", len(all.rows), all.built, all.reused)
	}

	// Updating one leaf rebuilds its lanes and no other leaf's.
	before := keptValues(t, tr)
	victim := want[len(want)/2]
	if _, ok, err := deleteRow(tr, victim.Vals[0], victim.ID); err != nil || !ok {
		t.Fatalf("delete: %v, %v", ok, err)
	}
	if err := tr.pool.Close(); err != nil {
		t.Fatal(err)
	}
	gone := 0
	for pn, v := range keptValues(t, tr) {
		switch {
		case v == nil:
			gone++
		case v != before[pn]:
			t.Errorf("leaf %d: its kept lanes changed without its bytes", pn)
		}
	}
	if gone != 1 {
		t.Fatalf("the update dropped the lanes of %d leaves, want 1", gone)
	}
	want = freshAnswer(t, tr, atoms)
	third := scanKept(t, tr, m, atoms)
	if third.built != 1 || third.reused != read-1 || third.reads != first.reads || !sameRows(third.rows, want) || len(want) != n/10-1 {
		t.Fatalf("after the update: built %d, reused %d of %d reads; %d rows, the fresh decode %d",
			third.built, third.reused, third.reads, len(third.rows), len(want))
	}

	// A restored disk starts with no lanes.
	img := &storage.DiskImage{PageSize: d.PageSize()}
	if err := img.Apply(d.FullDelta()); err != nil {
		t.Fatal(err)
	}
	rd, err := storage.RestoreDisk(img)
	if err != nil {
		t.Fatal(err)
	}
	rm := storage.NewMeter()
	rt, err := openTree(storage.NewArena(rd, 64).NewPool(rm), rd.Open("t"), 0, tr.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if r := scanKept(t, rt, rm, atoms); r.built != read || r.reused != 0 || !sameRows(r.rows, want) {
		t.Fatalf("restored disk: built %d, reused %d of %d reads; %d rows, want %d", r.built, r.reused, r.reads, len(r.rows), len(want))
	}

	// A freed page, and the page its number is reused for, have none.
	var pn storage.PageNum
	for p, v := range keptValues(t, tr) {
		if v != nil {
			pn = p
			break
		}
	}
	tr.pool.Discard(tr.file, pn)
	tr.file.Free(pn)
	fr, err := tr.pool.Alloc(tr.file)
	if err != nil {
		t.Fatal(err)
	}
	if fr.PageNum() != pn {
		t.Fatalf("the freed page %d was not reused: allocated %d", pn, fr.PageNum())
	}
	// Drop the new page's frame unwritten: the image the page number now
	// names is the reused one, and no write-back has cleared its slot.
	if err := tr.pool.Release(fr); err != nil {
		t.Fatal(err)
	}
	tr.pool.Discard(tr.file, pn)
	v, err := tr.pool.Derive(tr.file, pn, func(_ []byte, d any) (any, error) { return d, nil })
	if err != nil || v != nil {
		t.Fatalf("the reused page %d starts with %T (%v), kept for the page freed there", pn, v, err)
	}
	if err := tr.pool.Close(); err != nil {
		t.Fatal(err)
	}
	tr.pool.AssertUnpinned(t)
}

// TestKeptLanesUnderConcurrentScans: two operations, each on its own
// pool, full-scan one relation at once while its lanes are first built —
// both may build a leaf's lanes and publish them — and each answers
// exactly what a fresh decode does. The race detector runs it.
func TestKeptLanesUnderConcurrentScans(t *testing.T) {
	const n = 3000
	for _, atoms := range [][]colpage.Atom{nil, {{Col: 1, Op: pred.Lt, Val: tuple.I(n / 10)}}} {
		tr, d, _ := newKeptTree(t, n) // no lanes kept yet
		want := freshAnswer(t, tr, atoms)
		arena := storage.NewArena(d, 64)
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make(chan error, 2)
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := arena.NewPool(storage.NewMeter())
				<-start
				for round := range 3 {
					it, err := tr.Tree.ScanAll(p, atoms)
					if err != nil {
						errs <- err
						return
					}
					got, err := drain(it)
					if err == nil {
						err = p.Close()
					}
					if err == nil && !sameRows(got, want) {
						err = fmt.Errorf("round %d: %d rows, the fresh decode %d", round, len(got), len(want))
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("atoms %v: %v", atoms, err)
		}
	}
}
