package hashidx

import (
	"encoding/binary"
	"sort"
	"strings"
	"testing"

	"viewmat/internal/colpage"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// batchKeys flattens ScanAllBatches output to sorted key values.
func batchKeys(bs []*vec.Batch) []int64 {
	var keys []int64
	for _, b := range bs {
		for i := 0; i < b.NumRows(); i++ {
			keys = append(keys, b.TupleAt(0, i).Vals[0].Int())
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// batchDropped sums the rows ScanAllBatches' atoms dropped.
func batchDropped(bs []*vec.Batch) int {
	n := 0
	for _, b := range bs {
		n += b.Dropped
	}
	return n
}

// TestScanAllBatchesPruning: the one chain scan's readahead walk down
// the bucket chains (colpage.Scan) must not pin or charge pages whose
// zone maps disprove the prune atoms — each Pool.ReadBatch window is
// built from surviving pages only. Empty bucket pages carry no zones and
// are always read.
func TestScanAllBatchesPruning(t *testing.T) {
	d := storage.NewDisk(256)
	m := storage.NewMeter()
	pool := storage.NewArena(d, 64).NewPool(m)
	ix, err := newIndex(pool, d.Open("h"), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 24
	for i := int64(0); i < rows; i++ {
		if err := insert(ix, mk(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	if ix.file.NumPages() != 8 {
		t.Fatalf("fixture overflowed: %d pages for 8 buckets", ix.file.NumPages())
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pool.Close()

	// Every stored key is < 24: the atom disproves every non-empty
	// page, so only empty bucket pages (no zones) are read.
	before := m.Snapshot()
	out, pruned, err := ix.ScanAllBatches(0, []colpage.Atom{{Col: 0, Op: pred.Ge, Val: tuple.I(1000)}})
	if err != nil {
		t.Fatal(err)
	}
	reads := m.Snapshot().Sub(before).Reads
	if len(batchKeys(out)) != 0 {
		t.Errorf("all-pruned scan returned %d rows", len(batchKeys(out)))
	}
	if pruned == 0 {
		t.Fatal("scan pruned nothing")
	}
	if reads+pruned != 8 {
		t.Errorf("reads %d + pruned %d != 8 bucket pages: pruned pages were pinned", reads, pruned)
	}

	// Unpruned control: every page read, every row returned.
	pool.Close()
	before = m.Snapshot()
	out, pruned, err = ix.ScanAllBatches(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Sub(before).Reads; got != 8 {
		t.Errorf("unpruned scan read %d pages, want 8", got)
	}
	if pruned != 0 {
		t.Errorf("unpruned scan reported %d pruned", pruned)
	}
	keys := batchKeys(out)
	if len(keys) != rows {
		t.Fatalf("unpruned scan returned %d rows, want %d", len(keys), rows)
	}
	for i, k := range keys {
		if k != int64(i) {
			t.Fatalf("key %d = %d", i, k)
		}
	}

	// Selective prune: pages whose whole key range is >= 12 are
	// skipped, and the rows >= 12 of the pages read are dropped: the
	// survivors are exactly the keys < 12.
	pool.Close()
	out, pruned, err = ix.ScanAllBatches(0, []colpage.Atom{{Col: 0, Op: pred.Lt, Val: tuple.I(12)}})
	if err != nil {
		t.Fatal(err)
	}
	keys = batchKeys(out)
	if len(keys) != 12 || keys[0] != 0 || keys[11] != 11 {
		t.Errorf("selective scan returned keys %v, want 0..11", keys)
	}
	// Every row of the pages read is returned or dropped.
	if dropped := batchDropped(out); dropped == 0 || len(keys)+dropped > rows || pruned == 0 && len(keys)+dropped != rows {
		t.Errorf("selective scan dropped %d rows (%d pages pruned)", dropped, pruned)
	}
	pool.AssertUnpinned(t)
}

// TestScanAllBatchesPruningDisarmedByDirtyFrames mirrors the btree
// test: stale on-disk zone maps (dirty pool frames) must disable
// pruning entirely, while the row test, which reads the pinned frames,
// stays armed.
func TestScanAllBatchesPruningDisarmedByDirtyFrames(t *testing.T) {
	d := storage.NewDisk(256)
	m := storage.NewMeter()
	pool := storage.NewArena(d, 64).NewPool(m)
	ix, err := newIndex(pool, d.Open("h"), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 24; i++ {
		if err := insert(ix, mk(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	if err := insert(ix, mk(100, 5)); err != nil {
		t.Fatal(err)
	}
	out, pruned, err := ix.ScanAllBatches(0, []colpage.Atom{{Col: 0, Op: pred.Ge, Val: tuple.I(1000)}})
	if err != nil {
		t.Fatal(err)
	}
	if pruned != 0 {
		t.Errorf("scan over dirty frames pruned %d pages", pruned)
	}
	if got, dropped := len(batchKeys(out)), batchDropped(out); got != 0 || dropped != 25 {
		t.Errorf("scan returned %d rows and dropped %d, want 0 and 25", got, dropped)
	}
	pool.AssertUnpinned(t)
}

// TestScanAllBatchesRejectsHeaderCountMismatch: a columnar chain page
// whose header row count disagrees with its chunk is corrupt, and the
// scan must say so rather than trust the chunk (the codec's own table is
// colpage.TestDataPageRejectsDamage; this is the way there from a scan).
func TestScanAllBatchesRejectsHeaderCountMismatch(t *testing.T) {
	d := storage.NewDisk(256)
	pool := storage.NewArena(d, 64).NewPool(storage.NewMeter())
	ix, err := newIndex(pool, d.Open("h"), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 24; i++ {
		if err := insert(ix, mk(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	fr, err := pool.Get(ix.file, ix.buckets[ix.bucketFor(tuple.I(5))])
	if err != nil {
		t.Fatal(err)
	}
	if fr.Data[0] != byte(chainPages) {
		t.Fatalf("bucket page has type %d, want a columnar page", fr.Data[0])
	}
	binary.BigEndian.PutUint16(fr.Data[1:], binary.BigEndian.Uint16(fr.Data[1:])+1)
	fr.MarkDirty()
	if err := pool.Release(fr); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	_, _, err = ix.ScanAllBatches(0, nil)
	if err == nil || !strings.Contains(err.Error(), "header says") {
		t.Errorf("scan over a page with a wrong header count: err = %v", err)
	}
	pool.AssertUnpinned(t)
}

// TestScanAllBatchesCutsBatches: chain pages scan into batches of the
// requested size — over buckets alone and down overflow chains, whole
// pages and pages that straddle a batch boundary — keeping exactly the
// rows the atoms hold for. Every chain page is read or pruned, once; a
// pruned page's rows are neither returned nor dropped.
func TestScanAllBatchesCutsBatches(t *testing.T) {
	for _, c := range []struct {
		name          string
		buckets, rows int
		overflow      bool
	}{
		{"bucket runs", 8, 24, false},
		{"overflow chains", 2, 60, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := storage.NewDisk(256)
			m := storage.NewMeter()
			pool := storage.NewArena(d, 64).NewPool(m)
			ix, err := newIndex(pool, d.Open("h"), 0, c.buckets)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < c.rows; i++ {
				if err := insert(ix, mk(uint64(i+1), int64(i))); err != nil {
					t.Fatal(err)
				}
			}
			if got := ix.file.NumPages() > c.buckets; got != c.overflow {
				t.Fatalf("fixture has %d pages for %d buckets", ix.file.NumPages(), c.buckets)
			}
			if err := pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
			pool.Close()
			const size = 5
			const cut = 10
			before := m.Snapshot()
			out, pruned, err := ix.ScanAllBatches(size, []colpage.Atom{{Col: 0, Op: pred.Ge, Val: tuple.I(cut)}})
			if err != nil {
				t.Fatal(err)
			}
			if reads := m.Snapshot().Sub(before).Reads; reads+pruned != int64(ix.Pages()) {
				t.Errorf("reads %d + pruned %d != %d chain pages", reads, pruned, ix.Pages())
			}
			for i, b := range out {
				if b.NumRows() == 0 || b.NumRows() > size {
					t.Errorf("batch %d holds %d rows", i, b.NumRows())
				}
			}
			keys, dropped := batchKeys(out), batchDropped(out)
			if len(keys) != c.rows-cut || dropped > cut || pruned == 0 && dropped != cut {
				t.Fatalf("scan returned %d rows and dropped %d with %d pages pruned, want %d rows and %d dropped or pruned",
					len(keys), dropped, pruned, c.rows-cut, cut)
			}
			for i, k := range keys {
				if k != int64(cut+i) {
					t.Fatalf("key %d = %d", i, k)
				}
			}
			pool.AssertUnpinned(t)
		})
	}
}
