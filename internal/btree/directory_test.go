package btree

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	"viewmat/internal/colpage"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// checkDirectory flushes the tree's pool and compares the leaf directory
// its writers kept with one rebuilt from the page images, and its leaf
// count with a walk of the leaf chain over the images.
func checkDirectory(tr *testTree) error {
	if err := tr.pool.FlushAll(); err != nil {
		return err
	}
	if err := tr.dir.Diff(colpage.NewDirectory(leafPages, tr.file)); err != nil {
		return err
	}
	walked, err := leafChainPages(tr)
	if err != nil {
		return err
	}
	if n := tr.LeafPages(); n != walked {
		return fmt.Errorf("LeafPages = %d, the leaf chain has %d", n, walked)
	}
	return nil
}

// leafChainPages counts the leaves down the chain from the leftmost one,
// following each image's link: the oracle of the directory's count,
// which it does not consult.
func leafChainPages(tr *testTree) (int, error) {
	pn, err := tr.findLeaf(nil)
	if err != nil {
		return 0, err
	}
	for n := 1; ; n++ {
		hasNext := false
		err := tr.file.View(pn, func(page []byte) error {
			pn, hasNext = colpage.PageLink(page)
			return nil
		})
		if err != nil || !hasNext {
			return n, err
		}
	}
}

// restored reopens tr over a copy of its disk carried through a full
// delta, the way restoring a checkpoint reopens every tree.
func restored(t *testing.T, tr *testTree, d *storage.Disk) *testTree {
	t.Helper()
	if err := tr.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	img := &storage.DiskImage{PageSize: d.PageSize()}
	if err := img.Apply(d.FullDelta()); err != nil {
		t.Fatal(err)
	}
	d2, err := storage.RestoreDisk(img)
	if err != nil {
		t.Fatal(err)
	}
	back, err := openTree(storage.NewArena(d2, 64).NewPool(storage.NewMeter()), d2.Open(tr.file.Name()), tr.keyCol, tr.Meta())
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestRestoreRebuildsTheDirectoryWritersKept: the directory Open rebuilds
// from a restored disk is the one the writers kept — over splits, deletes,
// updates, string bounds that move, and leaves written without their zone
// maps.
func TestRestoreRebuildsTheDirectoryWritersKept(t *testing.T) {
	d := storage.NewDisk(256)
	tr, err := newTree(storage.NewArena(d, 64).NewPool(storage.NewMeter()), d.Open("t"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 400; i++ {
		k := i * 7919 % 400
		s := string(rune('a' + k%26))
		if i >= 300 {
			// Past every key, zone bounds of 40 bytes: three such rows
			// fill a leaf, whose zone maps then do not fit it.
			k, s = i+100, strings.Repeat(s, 35)
		}
		if err := insert(tr, tuple.New(uint64(i+1), tuple.I(k), tuple.S(s))); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 100; i++ {
		k := i * 7919 % 400
		if _, _, err := deleteRow(tr, tuple.I(k), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(100); i < 150; i++ {
		k := i * 7919 % 400
		pair := []tuple.Tuple{tuple.New(uint64(i+1), tuple.I(k)), tuple.New(uint64(i+1), tuple.I(k), tuple.S("zz"))}
		if _, err := tr.ApplyRun(pair, []int8{-1, 1}, -1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkDirectory(tr); err != nil {
		t.Fatal(err)
	}
	zoneless := 0
	for pn := storage.PageNum(0); pn < tr.file.Extent(); pn++ {
		_ = tr.file.View(pn, func(page []byte) error {
			var z colpage.Zones
			if page[0] == byte(leafPages) && colpage.ReadZones(page[colpage.DataPageHeader:], &z) == nil && z.N > 0 && !z.Cols[1].Present {
				zoneless++
			}
			return nil
		})
	}
	if zoneless == 0 {
		t.Fatal("no leaf was written without its zone maps")
	}
	if err := restored(t, tr, d).dir.Diff(tr.dir); err != nil {
		t.Errorf("rebuilt directory differs from the kept one: %v", err)
	}
}

// TestRestoredLeafWithUnreadableZonesStopsTheWalk: a restored leaf whose
// footer does not parse opens, as it did when walks peeked the images,
// and a pruning scan stops its walk there and reads it on the charged
// path — it is not pruned, and the scan answers right.
func TestRestoredLeafWithUnreadableZonesStopsTheWalk(t *testing.T) {
	tr, d, p, _ := newColTree(t, 256, 64, 500)
	atoms := []colpage.Atom{{Col: 0, Op: pred.Lt, Val: tuple.I(50)}}
	scan := func(tr *testTree) (keys []int64, pruned int64) {
		it, err := tr.ScanBatches(nil, atoms)
		if err != nil {
			t.Fatal(err)
		}
		keys, _ = drainBatches(t, it)
		return keys, it.Pruned()
	}
	_, intact := scan(restored(t, tr, d))

	// Damage the first zone of the last leaf, one every scan prunes: its
	// min bound's value tag names no type.
	pn, err := tr.findLeaf(nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		page, err := tr.file.Peek(pn)
		if err != nil {
			t.Fatal(err)
		}
		next, ok := colpage.PageLink(page)
		if !ok {
			break
		}
		pn = next
	}
	fr, err := p.Get(tr.file, pn)
	if err != nil {
		t.Fatal(err)
	}
	chunk := fr.Data[colpage.DataPageHeader:]
	foot := binary.BigEndian.Uint32(chunk[4:])
	if fr.Data[0] != byte(leafPages) || chunk[foot]&1 == 0 {
		t.Fatalf("last leaf: type %d, first zone flags %d; want a columnar leaf with a zone", fr.Data[0], chunk[foot])
	}
	chunk[foot+1] = 0xEE
	fr.MarkDirty()
	if err := p.Release(fr); err != nil {
		t.Fatal(err)
	}

	back := restored(t, tr, d)
	keys, pruned := scan(back)
	if pruned != intact-1 {
		t.Errorf("scan pruned %d leaves, want %d: one fewer than over the intact image", pruned, intact-1)
	}
	if len(keys) != 50 {
		t.Errorf("scan returned %d rows, want 50", len(keys))
	}
	back.pool.AssertUnpinned(t)
}

// TestConcurrentPrunedScans: scans read the directory from several
// goroutines at once, each on a pool of its own — as queries do under
// the engine's read lock — and each sees what a lone scan sees.
func TestConcurrentPrunedScans(t *testing.T) {
	tr, d, p, _ := newColTree(t, 256, 256, 2000)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	atoms := []colpage.Atom{{Col: 0, Op: pred.Lt, Val: tuple.I(300)}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := storage.NewArena(d, 256).NewPool(storage.NewMeter())
			defer q.AssertUnpinned(t)
			for i := 0; i < 5; i++ {
				it, err := tr.Tree.ScanBatches(q, nil, atoms)
				if err != nil {
					t.Error(err)
					return
				}
				var keys []int64
				for !it.Done() {
					b := &vec.Batch{}
					if err := it.Fill(b, vec.DefaultBatchSize); err != nil {
						t.Error(err)
						return
					}
					for r := 0; r < b.NumRows(); r++ {
						keys = append(keys, b.TupleAt(0, r).Vals[0].Int())
					}
				}
				if len(keys) != 300 || it.Pruned() == 0 {
					t.Errorf("scan returned %d rows with %d leaves pruned, want 300 and some", len(keys), it.Pruned())
					return
				}
			}
		}()
	}
	wg.Wait()
}
