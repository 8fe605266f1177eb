package hashidx

import (
	"encoding/binary"
	"fmt"
	"testing"

	"viewmat/internal/colpage"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// checkDirectory flushes the index's pool and compares the page directory
// its writers kept with one rebuilt from the page images, and its page
// count with a walk of every bucket chain over the images.
func checkDirectory(ix *testIndex) error {
	if err := ix.pool.FlushAll(); err != nil {
		return err
	}
	if err := ix.dir.Diff(colpage.NewDirectory(chainPages, ix.file)); err != nil {
		return err
	}
	walked, err := chainWalkPages(ix)
	if err != nil {
		return err
	}
	if n := ix.Pages(); n != walked {
		return fmt.Errorf("Pages = %d, the bucket chains have %d", n, walked)
	}
	return nil
}

// chainWalkPages counts the pages of every bucket chain, decoding each
// image and following its link from each bucket that has a page: the oracle of the
// directory's count, which it does not consult. Every page the file
// holds must be on one chain, once: a bucket with no page hides none.
func chainWalkPages(ix *testIndex) (int, error) {
	seen := map[storage.PageNum]bool{}
	var n node
	for b, pn := range ix.buckets {
		for hasNext := pn != noPage; hasNext; pn, hasNext = n.Next, n.HasNext {
			if seen[pn] {
				return 0, fmt.Errorf("bucket %d's chain reaches page %d twice", b, pn)
			}
			seen[pn] = true
			if err := ix.file.View(pn, func(page []byte) error { return chainPages.DecodePage(page, &n) }); err != nil {
				return 0, err
			}
		}
	}
	if n := ix.file.NumPages(); n != len(seen) {
		return 0, fmt.Errorf("the bucket chains reach %d pages, the file holds %d", len(seen), n)
	}
	return len(seen), nil
}

// TestRestoreRebuildsTheDirectoryWritersKept: the directory Open rebuilds
// from a restored disk is the one the writers kept — over overflow chains,
// deletes, and the pages a truncate freed and a refill reused — and so
// are the index's rows, on a disk saved right after the truncate, when
// no bucket had a page, and on one saved while a refill had reached some
// buckets only.
func TestRestoreRebuildsTheDirectoryWritersKept(t *testing.T) {
	d := storage.NewDisk(128)
	ix, err := newIndex(storage.NewArena(d, 64).NewPool(storage.NewMeter()), d.Open("h"), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(from, to int64) {
		for i := from; i < to; i++ {
			if err := insert(ix, tuple.New(uint64(i+1), tuple.I(i%23), tuple.S(string(rune('a'+i%26))))); err != nil {
				t.Fatal(err)
			}
		}
	}
	// same restores the disk and fails the test unless the reopened index
	// has the kept directory and rows, and buckets with no page where the
	// index has them.
	same := func(label string) {
		t.Helper()
		back, _ := restored(t, ix, d)
		if err := back.dir.Diff(ix.dir); err != nil {
			t.Errorf("%s: rebuilt directory differs from the kept one: %v", label, err)
		}
		got, err := scanAll(back)
		if err != nil {
			t.Fatal(err)
		}
		want, err := scanAll(ix)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || back.Len() != ix.Len() {
			t.Errorf("%s: restored index holds %d rows %v, the kept one %d %v", label, back.Len(), got, ix.Len(), want)
		}
		if err := checkDirectory(back); err != nil {
			t.Errorf("%s: restored index: %v", label, err)
		}
	}
	fill(0, 120)
	if err := ix.Truncate(); err != nil {
		t.Fatal(err)
	}
	same("truncated")
	fill(200, 202)
	none := 0
	for _, pn := range ix.Meta().Buckets {
		if pn == noPage {
			none++
		}
	}
	if none == 0 {
		t.Fatal("the fixture needs a bucket the refill has not reached")
	}
	same("partly refilled")
	fill(202, 260)
	for i := int64(200); i < 230; i += 3 {
		if _, _, err := deleteRow(ix, tuple.I(i%23), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkDirectory(ix); err != nil {
		t.Fatal(err)
	}
	same("refilled")
}

// TestOpenRefusesABucketThatIsNoChainPage: Open checks each primary
// bucket against the directory it builds, so metadata naming a page that
// holds no chain page — one allocated and never written, one a truncate
// freed, one past the file's end — is refused there, not at the bucket's
// first decode; metadata whose buckets have no page, as a truncate
// leaves them, opens.
func TestOpenRefusesABucketThatIsNoChainPage(t *testing.T) {
	ix, _ := newTestIndex(t, 128, 64, 2)
	for i := int64(0); i < 40; i++ {
		if err := insert(ix, mk(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Pages() == ix.Buckets() {
		t.Fatal("the fixture has no overflow page for a truncate to free")
	}
	overflow := storage.PageNum(ix.file.Extent() - 1)
	if err := ix.Truncate(); err != nil {
		t.Fatal(err)
	}
	fr, err := ix.pool.Alloc(ix.file) // reuses a freed page, left zeroed
	if err != nil {
		t.Fatal(err)
	}
	blank := fr.PageNum()
	fr.MarkDirty()
	if err := ix.pool.Release(fr); err != nil {
		t.Fatal(err)
	}
	if err := ix.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if overflow == blank {
		overflow-- // the page Alloc reused: take another freed one
	}
	if ix.file.View(overflow, func([]byte) error { return nil }) == nil {
		t.Fatalf("page %d is not free", overflow)
	}
	for name, pn := range map[string]storage.PageNum{"never written": blank, "freed": overflow, "past the end": ix.file.Extent()} {
		m := ix.Meta()
		m.Buckets[1] = pn
		if _, err := openIndex(ix.pool, ix.file, ix.keyCol, m); err == nil {
			t.Errorf("bucket page %d (%s) opened", pn, name)
		}
	}
	if _, err := openIndex(ix.pool, ix.file, ix.keyCol, ix.Meta()); err != nil {
		t.Errorf("intact metadata: %v", err)
	}
}

// restored reopens ix over a copy of its disk carried through a full
// delta, the way restoring a checkpoint reopens every index, with a cold
// pool of its own, and returns that pool's meter.
func restored(t *testing.T, ix *testIndex, d *storage.Disk) (*testIndex, *storage.Meter) {
	t.Helper()
	if err := ix.pool.FlushAll(); err != nil {
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
	m := storage.NewMeter()
	back, err := openIndex(storage.NewArena(d2, 64).NewPool(m), d2.Open(ix.file.Name()), ix.keyCol, ix.Meta())
	if err != nil {
		t.Fatal(err)
	}
	return back, m
}

// TestRestoredChainPageWithUnreadableZonesStopsTheWalk is the B+-tree
// test's twin on a hash file: a restored chain page whose footer does
// not parse opens, and a pruning scan stops its walk there and reads it
// on the charged path. The page is the last of the last bucket's chain,
// so nothing past it is left to prune: the scan prunes one page fewer
// than over the intact image, reads or prunes every chain page once,
// and returns every row the atom keeps.
func TestRestoredChainPageWithUnreadableZonesStopsTheWalk(t *testing.T) {
	d := storage.NewDisk(256)
	p := storage.NewArena(d, 64).NewPool(storage.NewMeter())
	ix, err := newIndex(p, d.Open("h"), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		if err := insert(ix, mk(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Pages() == ix.Buckets() {
		t.Fatal("the fixture needs overflow chains")
	}
	atoms := []colpage.Atom{{Col: 0, Op: pred.Lt, Val: tuple.I(50)}}
	scan := func(ix *testIndex, m *storage.Meter) (rows int, reads, pruned int64) {
		out, pruned, err := ix.ScanAllBatches(0, atoms)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range out {
			rows += b.NumRows()
		}
		return rows, m.Snapshot().Reads, pruned
	}
	_, _, intact := scan(restored(t, ix, d))

	// Damage the first zone of the last page of the last chain, one every
	// scan prunes: its min bound's value tag names no type.
	pn := ix.buckets[len(ix.buckets)-1]
	for {
		page, err := ix.file.Peek(pn)
		if err != nil {
			t.Fatal(err)
		}
		next, ok := colpage.PageLink(page)
		if !ok {
			break
		}
		pn = next
	}
	fr, err := p.Get(ix.file, pn)
	if err != nil {
		t.Fatal(err)
	}
	chunk := fr.Data[colpage.DataPageHeader:]
	foot := binary.BigEndian.Uint32(chunk[4:])
	if chunk[foot]&1 == 0 {
		t.Fatalf("last chain page: first zone flags %d; want a zone", chunk[foot])
	}
	chunk[foot+1] = 0xEE
	fr.MarkDirty()
	if err := p.Release(fr); err != nil {
		t.Fatal(err)
	}

	back, m := restored(t, ix, d)
	rows, reads, pruned := scan(back, m)
	if pruned != intact-1 {
		t.Errorf("scan pruned %d pages, want %d: one fewer than over the intact image", pruned, intact-1)
	}
	if pages := int64(back.Pages()); reads+pruned != pages {
		t.Errorf("reads %d + pruned %d != %d chain pages", reads, pruned, pages)
	}
	if rows != 50 {
		t.Errorf("scan returned %d rows, want 50", rows)
	}
	back.pool.AssertUnpinned(t)
}
