package btree

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"viewmat/internal/colpage"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// Every read of a leaf of a clean file — a full scan's readahead window,
// a range scan or point lookup following the chain, a Get — keeps the
// leaf decoded beside its image (colpage's kept lanes). These tests hold
// the lanes to the image they stand for: built by the first read of the
// bytes, reused by every later one, rebuilt where the bytes changed and
// nowhere else, never built while the file holds a dirty frame, never
// outliving the bytes, and never changing an answer, a charge or a
// prune. Every use of kept lanes in a test binary is also checked
// against a fresh decode of the page (colpage's kept.check).

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

// keptScan is one full scan's account: its rows, the rows its atoms
// dropped, reads, prunes, the leaves whose lanes it built and reused, and
// the leaves whose rows it took from their selection slot.
type keptScan struct {
	rows          []tuple.Tuple
	dropped       int
	reads, pruned int64
	built, reused int64
	selected      int64
}

// scanKept runs a full scan of tr pruned by atoms and closes its pool.
func scanKept(t *testing.T, tr *testTree, m *storage.Meter, atoms []colpage.Atom) keptScan {
	t.Helper()
	built, reused := colpage.KeptLanes()
	selected := colpage.KeptSelections()
	before := m.Snapshot()
	it, err := tr.ScanAll(atoms)
	if err != nil {
		t.Fatal(err)
	}
	var s keptScan
	for !it.Done() {
		b := &vec.Batch{}
		if err := it.Fill(b, vec.DefaultBatchSize); err != nil {
			t.Fatal(err)
		}
		s.rows, s.dropped = b.AppendTuples(s.rows, 0), s.dropped+b.Dropped
	}
	s.pruned = it.Pruned()
	s.reads = m.Snapshot().Sub(before).Reads
	b, r := colpage.KeptLanes()
	s.built, s.reused, s.selected = b-built, r-reused, colpage.KeptSelections()-selected
	if err := tr.pool.Close(); err != nil {
		t.Fatal(err)
	}
	return s
}

// imageRows decodes the leaf chain's images itself, from the leftmost
// leaf, and returns their rows in key order. It reads through no pool but
// the descent's, so it neither builds nor reuses kept lanes.
func imageRows(t *testing.T, tr *testTree) []tuple.Tuple {
	t.Helper()
	pn, err := tr.findLeaf(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.pool.Close(); err != nil {
		t.Fatal(err)
	}
	var out []tuple.Tuple
	for more := true; more; {
		var leaf leafNode
		if err := tr.file.View(pn, func(page []byte) error { return leafPages.DecodePage(page, &leaf) }); err != nil {
			t.Fatal(err)
		}
		for i := range leaf.IDs {
			out = append(out, leaf.Row(i))
		}
		pn, more = leaf.Next, leaf.HasNext
	}
	return out
}

// freshAnswer is what a scan pruned by atoms must answer, from a fresh
// decode of every leaf image, filtered by the atoms.
func freshAnswer(t *testing.T, tr *testTree, atoms []colpage.Atom) []tuple.Tuple {
	t.Helper()
	return holding(imageRows(t, tr), atoms)
}

// holding returns the rows every atom holds for, in rows' storage.
func holding(rows []tuple.Tuple, atoms []colpage.Atom) []tuple.Tuple {
	return slices.DeleteFunc(rows, func(tp tuple.Tuple) bool {
		for _, a := range atoms {
			if !a.Op.Holds(tp.Vals[a.Col], a.Val) {
				return true
			}
		}
		return false
	})
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

// TestKeptSelectionsLifetime follows the selection slots of one
// relation's kept lanes: the first pruned full scan of an image tests its
// atoms and publishes what each read leaf keeps, every later one with the
// same atoms takes those rows and tests no cell, a scan with other atoms
// selects for itself and leaves the slots alone, a one-row update drops
// its leaf's selection with its lanes and no other leaf's, and a restored
// disk starts with none. Reads, prunes, rows and the dropped count are
// the same whether a slot answered or not.
func TestKeptSelectionsLifetime(t *testing.T) {
	const n = 3000
	tr, d, m := newKeptTree(t, n)
	atoms := []colpage.Atom{{Col: 1, Op: pred.Lt, Val: tuple.I(n / 10)}}
	// other prunes the leaves atoms prunes, and keeps fewer rows of those
	// it reads.
	other := append(slices.Clone(atoms), colpage.Atom{Col: 2, Op: pred.Ne, Val: tuple.S("p0")})
	same := func(what string, got, want keptScan, answer []tuple.Tuple) {
		t.Helper()
		if got.reads != want.reads || got.pruned != want.pruned || got.dropped != want.dropped || !sameRows(got.rows, answer) {
			t.Fatalf("%s: %d reads, %d pruned, %d dropped, %d rows; want %d, %d, %d and the fresh decode's %d",
				what, got.reads, got.pruned, got.dropped, len(got.rows), want.reads, want.pruned, want.dropped, len(answer))
		}
	}
	want, wantOther := freshAnswer(t, tr, atoms), freshAnswer(t, tr, other)
	first := scanKept(t, tr, m, atoms)
	read := int64(tr.LeafPages()) - first.pruned
	if first.built != read || first.selected != 0 {
		t.Fatalf("first scan: built %d lanes of %d read leaves, %d from a selection slot", first.built, read, first.selected)
	}
	second := scanKept(t, tr, m, atoms)
	if second.selected != read {
		t.Fatalf("second scan: %d of %d read leaves from a selection slot", second.selected, read)
	}
	same("the second scan", second, first, want)
	if first.dropped == 0 {
		t.Fatalf("first scan dropped no row beside the %d it kept", len(want))
	}
	// Other atoms select for themselves, on every read, and publish nothing.
	for round := range 2 {
		o := scanKept(t, tr, m, other)
		if o.selected != 0 || o.pruned != first.pruned || !sameRows(o.rows, wantOther) || len(wantOther) >= len(want) {
			t.Fatalf("scan %d with other atoms: %d leaves from a selection slot, %d pruned; %d rows, the fresh decode %d",
				round, o.selected, o.pruned, len(o.rows), len(wantOther))
		}
	}
	same("a scan after the other atoms'", scanKept(t, tr, m, atoms), second, want)

	// A one-row update drops the selection of its leaf alone.
	victim := want[len(want)/2]
	if _, ok, err := deleteRow(tr, victim.Vals[0], victim.ID); err != nil || !ok {
		t.Fatalf("delete: %v, %v", ok, err)
	}
	if err := tr.pool.Close(); err != nil {
		t.Fatal(err)
	}
	want = freshAnswer(t, tr, atoms)
	third := scanKept(t, tr, m, atoms)
	if third.selected != read-1 || third.built != 1 {
		t.Fatalf("after the update: %d of %d read leaves from a selection slot, %d lanes built; want all but the updated leaf", third.selected, read, third.built)
	}
	fourth := scanKept(t, tr, m, atoms)
	if fourth.selected != read {
		t.Fatalf("the scan after: %d of %d read leaves from a selection slot", fourth.selected, read)
	}
	same("after the update", fourth, third, want)
	if third.dropped != first.dropped {
		t.Fatalf("after deleting a kept row the scan dropped %d rows, before %d", third.dropped, first.dropped)
	}

	// A restored disk starts with no selection.
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
	restored := scanKept(t, rt, rm, atoms)
	if restored.selected != 0 || restored.built != read {
		t.Fatalf("restored disk: %d leaves from a selection slot, %d lanes built of %d read", restored.selected, restored.built, read)
	}
	again := scanKept(t, rt, rm, atoms)
	if again.selected != read {
		t.Fatalf("restored disk, second scan: %d of %d read leaves from a selection slot", again.selected, read)
	}
	same("restored disk", restored, fourth, want)
	same("restored disk, second scan", again, fourth, want)
}

// chainRead is one of the reads that follow the leaf chain, or descend
// to one leaf, rather than read ahead: it reads tr through pool p and
// returns its answer, and want is that answer from rows, the leaves'
// rows in key order.
type chainRead struct {
	name string
	read func(tr *Tree, p *storage.Pool) ([]tuple.Tuple, error)
	want func(rows []tuple.Tuple) []tuple.Tuple
}

// chainReads over keptRows of n: a 600-key range scan, point lookups
// (relation.LookupKey's range scan of one key) of every seventh key of
// it, and Gets of the same rows by key and id.
func chainReads(n int64) []chainRead {
	lo, hi := n/3, n/3+600
	inRange := func(rows []tuple.Tuple, every int64) []tuple.Tuple {
		var out []tuple.Tuple
		for _, tp := range rows {
			if k := tp.Vals[0].Int(); k >= lo && k < hi && (k-lo)%every == 0 {
				out = append(out, tp)
			}
		}
		return out
	}
	return []chainRead{
		{"range", func(tr *Tree, p *storage.Pool) ([]tuple.Tuple, error) {
			it, err := tr.ScanBatches(p, pred.NewRange(tuple.I(lo), tuple.I(hi), true, false), nil)
			if err != nil {
				return nil, err
			}
			return drain(it)
		}, func(rows []tuple.Tuple) []tuple.Tuple { return inRange(rows, 1) }},
		{"point", func(tr *Tree, p *storage.Pool) ([]tuple.Tuple, error) {
			var out []tuple.Tuple
			for k := lo; k < hi; k += 7 {
				it, err := tr.ScanBatches(p, pred.PointRange(tuple.I(k)), nil)
				if err != nil {
					return nil, err
				}
				got, err := drain(it)
				if err != nil {
					return nil, err
				}
				out = append(out, got...)
			}
			return out, nil
		}, func(rows []tuple.Tuple) []tuple.Tuple { return inRange(rows, 7) }},
		getRead(n, true),
	}
}

// getRead is chainReads' Gets, of every seventh key of its range by key
// and id, with Get's build.
func getRead(n int64, build bool) chainRead {
	lo, hi := n/3, n/3+600
	name := "get"
	if !build {
		name = "get without building"
	}
	return chainRead{name, func(tr *Tree, p *storage.Pool) ([]tuple.Tuple, error) {
		var out []tuple.Tuple
		for k := lo; k < hi; k += 7 {
			tp, ok, err := tr.Get(p, tuple.I(k), uint64(k+1), build)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, tp)
			}
		}
		return out, nil
	}, func(rows []tuple.Tuple) []tuple.Tuple {
		return slices.DeleteFunc(rows, func(tp tuple.Tuple) bool {
			k := tp.Vals[0].Int()
			return k < lo || k >= hi || (k-lo)%7 != 0
		})
	}}
}

// TestGetWithoutBuild: a Get that does not build reads the kept lanes of
// a leaf that has them, and decodes a leaf that has none for itself,
// keeping nothing beside it; it answers and charges what a building Get
// does either way.
func TestGetWithoutBuild(t *testing.T) {
	const n = 3000
	tr, _, m := newKeptTree(t, n) // no lanes kept yet
	peek, get := getRead(n, false), getRead(n, true)
	want := peek.want(imageRows(t, tr))
	cold := readKept(t, tr, m, peek)
	if !sameRows(cold.rows, want) || cold.built != 0 || cold.reused != 0 {
		t.Fatalf("over no kept lanes: %d rows (want %d), built %d, reused %d", len(cold.rows), len(want), cold.built, cold.reused)
	}
	for pn, v := range keptValues(t, tr) {
		if v != nil {
			t.Fatalf("leaf %d keeps %T after Gets that do not build", pn, v)
		}
	}
	built := readKept(t, tr, m, get)
	warm := readKept(t, tr, m, peek)
	if !sameRows(warm.rows, want) || built.built == 0 || warm.built != 0 || warm.reused != built.built+built.reused ||
		warm.reads != cold.reads || built.reads != cold.reads {
		t.Fatalf("over kept lanes: %d rows (want %d), built %d, reused %d, %d reads; the building Gets built %d, reused %d, %d reads; cold %d reads",
			len(warm.rows), len(want), warm.built, warm.reused, warm.reads, built.built, built.reused, built.reads, cold.reads)
	}
}

// readKept runs one chain read on tr's pool and closes it, accounting it
// as scanKept accounts a full scan.
func readKept(t *testing.T, tr *testTree, m *storage.Meter, r chainRead) keptScan {
	t.Helper()
	built, reused := colpage.KeptLanes()
	before := m.Snapshot()
	rows, err := r.read(tr.Tree, tr.pool)
	if err != nil {
		t.Fatal(err)
	}
	s := keptScan{rows: rows, reads: m.Snapshot().Sub(before).Reads}
	b, u := colpage.KeptLanes()
	s.built, s.reused = b-built, u-reused
	if err := tr.pool.Close(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestKeptLanesOnChainReads follows the kept lanes of the leaves a range
// scan, point lookups and Gets read: the first read of the images builds
// them, a second reuses them all and charges what the first did, a
// one-row update rebuilds its leaf's lanes and no other's, and a read
// while the file holds a dirty frame keeps none and uses none.
func TestKeptLanesOnChainReads(t *testing.T) {
	const n = 3000
	for _, r := range chainReads(n) {
		t.Run(r.name, func(t *testing.T) {
			tr, _, m := newKeptTree(t, n) // no lanes kept yet
			want := r.want(imageRows(t, tr))
			if len(want) == 0 {
				t.Fatal("the read answers nothing")
			}
			first := readKept(t, tr, m, r)
			second := readKept(t, tr, m, r)
			switch {
			case !sameRows(first.rows, want) || !sameRows(second.rows, want):
				t.Fatalf("the reads answered %d and %d rows, the fresh decode %d", len(first.rows), len(second.rows), len(want))
			case first.built == 0 || first.reads == 0:
				t.Fatalf("first read: %d reads, built %d lanes", first.reads, first.built)
			case second.built != 0 || second.reused != first.built+first.reused || second.reads != first.reads:
				t.Fatalf("second read: %d reads, built %d, reused %d; the first read %d, built %d, reused %d",
					second.reads, second.built, second.reused, first.reads, first.built, first.reused)
			}

			// Updating one leaf the read visits rebuilds its lanes alone.
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
				case v == nil && before[pn] != nil:
					gone++
				case v != before[pn]:
					t.Errorf("leaf %d: its kept lanes changed without its bytes", pn)
				}
			}
			want = r.want(imageRows(t, tr))
			third := readKept(t, tr, m, r)
			if gone != 1 || third.built != 1 || third.built+third.reused != second.reused || third.reads != first.reads || !sameRows(third.rows, want) {
				t.Fatalf("after the update (%d leaves lost their lanes): %d reads, built %d, reused %d; %d rows, the fresh decode %d",
					gone, third.reads, third.built, third.reused, len(third.rows), len(want))
			}

			if r.name == "range" {
				want = splitKeptLeaf(t, tr, m, r, want[len(want)/3].Vals[0], third)
			}

			// A dirty frame of the file — the last leaf's, held pinned so
			// that no eviction writes it back — sends every read to the
			// page bytes.
			last, err := tr.findLeaf(&key{val: tuple.I(n - 1), id: n})
			if err != nil {
				t.Fatal(err)
			}
			fr, err := tr.pool.Get(tr.file, last)
			if err != nil {
				t.Fatal(err)
			}
			fr.MarkDirty()
			b0, r0 := colpage.KeptLanes()
			dirty, err := r.read(tr.Tree, tr.pool)
			b1, r1 := colpage.KeptLanes()
			if err != nil || !sameRows(dirty, want) || b1 != b0 || r1 != r0 {
				t.Fatalf("read over a dirty frame: %d rows (want %d), err %v; built %d, reused %d lanes", len(dirty), len(want), err, b1-b0, r1-r0)
			}
			if err := tr.pool.Release(fr); err != nil {
				t.Fatal(err)
			}
			if err := tr.pool.Close(); err != nil {
				t.Fatal(err)
			}
			tr.pool.AssertUnpinned(t)
		})
	}
}

// splitKeptLeaf splits the kept leaf holding key value k, which the chain
// read r reads, by inserting rows of that value under new ids until it
// overflows, and returns r's answer from the images afterwards. The split
// rewrites the leaf and its forward link, so its kept lanes (and the link
// kept with them) go, and the next read must build the lanes of the leaf
// and of its new sibling, follow the new link to the sibling, and answer
// the moved rows; last is the account of the read before the split.
func splitKeptLeaf(t *testing.T, tr *testTree, m *storage.Meter, r chainRead, k tuple.Value, last keptScan) []tuple.Tuple {
	t.Helper()
	leaf, err := tr.findLeaf(&key{val: k, id: uint64(k.Int() + 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.pool.Close(); err != nil {
		t.Fatal(err)
	}
	if keptValues(t, tr)[leaf] == nil {
		t.Fatalf("leaf %d holds no kept lanes before the split", leaf)
	}
	var run []tuple.Tuple
	for i := range int64(40) {
		run = append(run, tuple.New(uint64(1<<20+i), k, tuple.I(i), tuple.S("split")))
	}
	if err := insertRun(tr, run); err != nil {
		t.Fatal(err)
	}
	if err := tr.pool.Close(); err != nil {
		t.Fatal(err)
	}
	if v := keptValues(t, tr)[leaf]; v != nil {
		t.Fatalf("split leaf %d kept its lanes (%T) past the split", leaf, v)
	}
	want := r.want(imageRows(t, tr))
	got := readKept(t, tr, m, r)
	if !sameRows(got.rows, want) || got.built < 2 || got.reads <= last.reads || got.built+got.reused != last.built+last.reused+got.reads-last.reads {
		t.Fatalf("after the split: %d reads, built %d, reused %d; %d rows, the fresh decode %d (before it: %d reads)",
			got.reads, got.built, got.reused, len(got.rows), len(want), last.reads)
	}
	return want
}

// TestKeptLanesUnderConcurrentScans: two operations, each on its own
// pool, read one relation at once while its lanes are first built —
// both may build a leaf's lanes and publish them — and each answers
// exactly what a fresh decode does: full scans, unpruned and pruned,
// and the chain reads (range scans, point lookups, Gets). Pruned full
// scans race for the leaves' selection slots too: both with one atom
// list, or each with its own, where the first to claim a slot keeps it
// and the other selects for itself. The race detector runs it.
func TestKeptLanesUnderConcurrentScans(t *testing.T) {
	const n = 3000
	type read struct {
		name string
		// ops are the two operations' reads: one read, or one each.
		ops []chainRead
	}
	var reads []read
	for _, r := range chainReads(n) {
		reads = append(reads, read{r.name, []chainRead{r}})
	}
	fullScan := func(atoms []colpage.Atom) chainRead {
		return chainRead{fmt.Sprintf("full scan %v", atoms), func(tr *Tree, p *storage.Pool) ([]tuple.Tuple, error) {
			it, err := tr.ScanAll(p, atoms)
			if err != nil {
				return nil, err
			}
			return drain(it)
		}, func(rows []tuple.Tuple) []tuple.Tuple { return holding(rows, atoms) }}
	}
	lt := []colpage.Atom{{Col: 1, Op: pred.Lt, Val: tuple.I(n / 10)}}
	ge := []colpage.Atom{{Col: 1, Op: pred.Ge, Val: tuple.I(n / 20)}, {Col: 0, Op: pred.Lt, Val: tuple.I(n / 2)}}
	for _, atoms := range [][]colpage.Atom{nil, lt} {
		reads = append(reads, read{fmt.Sprintf("full scan %v", atoms), []chainRead{fullScan(atoms)}})
	}
	reads = append(reads, read{fmt.Sprintf("full scans %v and %v", lt, ge), []chainRead{fullScan(lt), fullScan(ge)}})
	for _, r := range reads {
		tr, d, _ := newKeptTree(t, n) // no lanes kept yet
		rows := imageRows(t, tr)
		arena := storage.NewArena(d, 64)
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make(chan error, 2)
		for op := range 2 {
			rd := r.ops[op%len(r.ops)]
			want := rd.want(slices.Clone(rows))
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := arena.NewPool(storage.NewMeter())
				<-start
				for round := range 3 {
					got, err := rd.read(tr.Tree, p)
					if err == nil {
						err = p.Close()
					}
					if err == nil && !sameRows(got, want) {
						err = fmt.Errorf("%s, round %d: %d rows, the fresh decode %d", rd.name, round, len(got), len(want))
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
			t.Errorf("%s: %v", r.name, err)
		}
	}
}

// TestKeptLaneBuildAllocations pins what building a leaf's kept lanes
// allocates: full scans, unpruned, of images that hold no lanes — each
// run scans a disk restored afresh from the same image, so every leaf it
// reads builds its lanes — over scan-qm's R shape at N = 20 000 on
// 4 000-byte pages (370 leaves), through a fresh 256-frame pool. A build
// is the kept value, its id lane, its column headers, one lane per Int
// column and the pool's box publishing it: 7 objects a leaf. The new
// pool's frames and the scan's batches add 1.25 a leaf: 8.25 in all
// (8.43 while a window's rows grew the batch's lanes leaf by leaf; a
// garbage collection during the scans adds an object or two, so the
// bound is 8.45). The warm scan guards (exec.TestFullScanAllocations,
// TestColdScanAllocations) read lanes their warm-up kept, so this is the
// guard on the build itself.
func TestKeptLaneBuildAllocations(t *testing.T) {
	const n, runs = 20000, 3
	tr, d, _ := keptLaneTree(t, rowRuns(n, 2000, func(k int64) tuple.Tuple { return scanQMRow(k, n) }))
	img := &storage.DiskImage{PageSize: d.PageSize()}
	if err := img.Apply(d.FullDelta()); err != nil {
		t.Fatal(err)
	}
	var total, built uint64
	var ms runtime.MemStats
	for range runs {
		rd, err := storage.RestoreDisk(img)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := openTree(storage.NewArena(rd, 256).NewPool(storage.NewMeter()), rd.Open("t"), 0, tr.Meta())
		if err != nil {
			t.Fatal(err)
		}
		b0, _ := colpage.KeptLanes()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		it, err := rt.ScanAll(nil)
		got := 0
		for err == nil && !it.Done() {
			b := &vec.Batch{}
			err = it.Fill(b, vec.DefaultBatchSize)
			got += b.NumRows()
		}
		runtime.ReadMemStats(&ms)
		total += ms.Mallocs - before
		b1, _ := colpage.KeptLanes()
		built += uint64(b1 - b0)
		if err != nil || got != n {
			t.Fatalf("the scan read %d rows, err %v", got, err)
		}
		if err := rt.pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if leaves := uint64(runs * tr.LeafPages()); built != leaves {
		t.Fatalf("the scans built the lanes of %d leaves, want all %d they read", built, leaves)
	}
	perLeaf := float64(total) / float64(built)
	t.Logf("%.4f allocations a leaf whose lanes a scan builds, %d leaves a scan (race detector: %v)", perLeaf, tr.LeafPages(), raceEnabled())
	max := 8.45 // race detector: 12.44
	if raceEnabled() {
		max = 13
	}
	if perLeaf > max {
		t.Errorf("a scan allocated %.2f objects a leaf whose lanes it built, want at most %.2f", perLeaf, max)
	}
}

// TestKeptSelectionAllocations pins what a pruned full scan allocates for
// its selections, over scan-qm's R shape at N = 20 000 on 4 000-byte
// pages (370 leaves) pruned by a < N/100: a scan of images whose lanes an
// unpruned scan kept but whose selection slots are free (a miss: each
// read leaf's selection is tested and published), then the same scan
// again (a hit: each read leaf's rows come from its slot). A published
// selection is one object, its rows; a leaf whose selection is none of
// its rows, or all, publishes no object at all; and the miss's own
// selection storage grows a few times a scan (179 published selections
// and 181.67 objects more than a hit, 183.33 under the race detector). A
// hit tests no cell and allocates nothing for its selection: the hit scan
// allocates what the miss scan does less one object a published
// selection and that growth (216 and 34.33 objects; 776.67 and 593.33
// under the race detector).
func TestKeptSelectionAllocations(t *testing.T) {
	const n, runs = 20000, 3
	tr, d, _ := keptLaneTree(t, rowRuns(n, 2000, func(k int64) tuple.Tuple { return scanQMRow(k, n) }))
	img := &storage.DiskImage{PageSize: d.PageSize()}
	if err := img.Apply(d.FullDelta()); err != nil {
		t.Fatal(err)
	}
	atoms := []colpage.Atom{{Col: 1, Op: pred.Lt, Val: tuple.I(n / 100)}}
	var ms runtime.MemStats
	scan := func(rt *testTree, atoms []colpage.Atom) (mallocs uint64, selected, read int64, published int) {
		s0 := colpage.KeptSelections()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		it, err := rt.ScanAll(atoms)
		for err == nil && !it.Done() {
			err = it.Fill(&vec.Batch{}, vec.DefaultBatchSize)
		}
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs - before
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.pool.Close(); err != nil {
			t.Fatal(err)
		}
		for _, v := range keptValues(t, rt) {
			if colpage.KeptSelectionBytes(v) > 0 {
				published++
			}
		}
		return mallocs, colpage.KeptSelections() - s0, int64(rt.LeafPages()) - it.Pruned(), published
	}
	var miss, hit uint64
	var leaves int64
	var objects int
	for range runs {
		rd, err := storage.RestoreDisk(img)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := openTree(storage.NewArena(rd, 256).NewPool(storage.NewMeter()), rd.Open("t"), 0, tr.Meta())
		if err != nil {
			t.Fatal(err)
		}
		scan(rt, nil) // keeps every leaf's lanes, and no selection
		m, selected, read, published := scan(rt, atoms)
		if selected != 0 || published == 0 {
			t.Fatalf("the first pruned scan took %d leaves' rows from a selection slot and published %d selections", selected, published)
		}
		h, selected, _, _ := scan(rt, atoms)
		if selected != read {
			t.Fatalf("the second pruned scan took %d of %d read leaves' rows from a selection slot", selected, read)
		}
		miss, hit, leaves, objects = miss+m, hit+h, leaves+read, objects+published
	}
	t.Logf("a pruned scan of %d leaves, %d of them publishing a selection object: %.2f allocations on a miss, %.2f on a hit (race detector: %v)",
		leaves/runs, objects/runs, float64(miss)/runs, float64(hit)/runs, raceEnabled())
	if extra := float64(miss-hit) / runs; extra > float64(objects)/runs+8 {
		t.Errorf("a miss allocated %.2f objects more than a hit, want at most the %d selections it published and 8 for its selection storage", extra, objects/runs)
	}
	if hit > miss-uint64(objects) {
		t.Errorf("a hit allocated %.2f objects, a miss %.2f publishing %d selections", float64(hit)/runs, float64(miss)/runs, objects/runs)
	}
}
