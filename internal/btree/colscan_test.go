package btree

import (
	"encoding/binary"
	"strings"
	"testing"

	"viewmat/internal/colpage"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// newColTree is newTestTree exposing the disk and pool, with the
// on-disk image flushed clean so zone-map pruning is armed.
func newColTree(t testing.TB, pageSize, poolCap, rows int) (*Tree, *storage.Disk, *storage.Pool, *storage.Meter) {
	t.Helper()
	d := storage.NewDisk(pageSize)
	m := storage.NewMeter()
	p := storage.NewPool(d, m, poolCap)
	tr, err := New(p, d.Open("t"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := tr.Insert(mk(uint64(i+1), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.EvictAll()
	return tr, d, p, m
}

// drainBatches pulls a BatchIterator dry, returning the slot-0 key
// values in emission order.
func drainBatches(t testing.TB, it *BatchIterator) []int64 {
	t.Helper()
	var keys []int64
	for !it.Done() {
		b := &vec.Batch{}
		if err := it.Fill(b, vec.DefaultBatchSize); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b.NumRows(); i++ {
			keys = append(keys, b.TupleAt(0, i).Vals[0].Int())
		}
	}
	return keys
}

// TestScanBatchesPrunedPagesNeverPinned is the speculative-pin
// regression test: a full scan with prune atoms must not speculatively pin (or
// charge) pages whose zone maps disprove the atoms. The read count of
// a pruned scan must equal the unpruned scan's reads minus exactly the
// pruned page count — pruned pages never enter the pool at all — and
// no scan may leak a pin.
func TestScanBatchesPrunedPagesNeverPinned(t *testing.T) {
	const rows = 500
	tr, _, pool, m := newColTree(t, 256, 64, rows)
	atoms := []colpage.Atom{{Col: 0, Op: pred.Lt, Val: tuple.I(50)}}

	before := m.Snapshot()
	it, err := tr.ScanBatches(nil, atoms)
	if err != nil {
		t.Fatal(err)
	}
	prunedKeys := drainBatches(t, it)
	prunedReads := m.Snapshot().Sub(before).Reads
	if it.Pruned() == 0 {
		t.Fatal("scan pruned nothing; fixture too small to exercise pruning")
	}

	pool.EvictAll()
	before = m.Snapshot()
	full, err := tr.ScanBatches(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fullKeys := drainBatches(t, full)
	fullReads := m.Snapshot().Sub(before).Reads
	if full.Pruned() != 0 {
		t.Fatalf("unpruned scan reported %d pruned pages", full.Pruned())
	}

	if prunedReads != fullReads-it.Pruned() {
		t.Errorf("pruned scan reads = %d, want %d (full %d - pruned %d): pruned pages were pinned",
			prunedReads, fullReads-it.Pruned(), fullReads, it.Pruned())
	}
	if len(fullKeys) != rows {
		t.Fatalf("full scan returned %d rows, want %d", len(fullKeys), rows)
	}

	// The pruned scan returns every surviving page's rows: a superset
	// of the matching rows, identical once both are filtered.
	match := func(keys []int64) []int64 {
		var out []int64
		for _, k := range keys {
			if k < 50 {
				out = append(out, k)
			}
		}
		return out
	}
	pm, fm := match(prunedKeys), match(fullKeys)
	if len(pm) != len(fm) || len(pm) != 50 {
		t.Fatalf("pruned scan kept %d matching rows, full scan %d, want 50", len(pm), len(fm))
	}
	for i := range pm {
		if pm[i] != fm[i] {
			t.Fatalf("matching row %d: pruned %d vs full %d", i, pm[i], fm[i])
		}
	}
	pool.AssertUnpinned(t)
}

// TestScanBatchesPruningDisarmedByDirtyFrames: while dirty frames
// exist the on-disk zone maps may be stale, so the scan must read
// every page (identical charges to the unpruned scan). Write-through
// is off so the dirtying insert stays pool-only, and the pool is
// large enough that the dirty frame is never evicted (an eviction
// writes it back, making the disk current — at which point pruning
// soundly re-arms).
func TestScanBatchesPruningDisarmedByDirtyFrames(t *testing.T) {
	tr, _, pool, m := newColTree(t, 256, 512, 500)
	pool.BeginBulk()
	// Dirty a page: an insert rewrites its leaf in the pool only.
	if err := tr.Insert(mk(9001, 9001)); err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()
	it, err := tr.ScanBatches(nil, []colpage.Atom{{Col: 0, Op: pred.Lt, Val: tuple.I(50)}})
	if err != nil {
		t.Fatal(err)
	}
	keys := drainBatches(t, it)
	if it.Pruned() != 0 {
		t.Errorf("scan over dirty frames pruned %d pages", it.Pruned())
	}
	if len(keys) != 501 {
		t.Errorf("scan returned %d rows, want 501", len(keys))
	}
	if reads := m.Snapshot().Sub(before).Reads; reads == 0 {
		t.Error("scan charged no reads")
	}
	pool.AssertUnpinned(t)
}

// TestScanBatchesRangePruneEquivalence: a range scan ignores prune
// atoms (pruning applies only to full scans) and must return exactly
// the range under both layouts.
func TestScanBatchesRangeIgnoresPrune(t *testing.T) {
	tr, _, pool, _ := newColTree(t, 256, 64, 300)
	rg := pred.NewRange(tuple.I(100), tuple.I(150), true, true)
	it, err := tr.ScanBatches(rg, []colpage.Atom{{Col: 0, Op: pred.Lt, Val: tuple.I(10)}})
	if err != nil {
		t.Fatal(err)
	}
	keys := drainBatches(t, it)
	if it.Pruned() != 0 {
		t.Errorf("range scan pruned %d pages", it.Pruned())
	}
	if len(keys) != 51 || keys[0] != 100 || keys[len(keys)-1] != 150 {
		t.Errorf("range scan returned %d keys [%v..%v], want 51 [100..150]",
			len(keys), keys[0], keys[len(keys)-1])
	}
	pool.AssertUnpinned(t)
}

// TestScanBatchesRowLayout: the BatchIterator decodes row-major pages
// through the same interface (mixed-layout files are legal), with no
// pruning ever (row pages carry no zone maps).
func TestScanBatchesRowLayout(t *testing.T) {
	d := storage.NewDisk(256)
	m := storage.NewMeter()
	p := storage.NewPool(d, m, 64)
	d.SetPageLayout(storage.PageLayoutRow)
	tr, err := New(p, d.Open("t"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := tr.Insert(mk(uint64(i+1), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.EvictAll()
	it, err := tr.ScanBatches(nil, []colpage.Atom{{Col: 0, Op: pred.Lt, Val: tuple.I(10)}})
	if err != nil {
		t.Fatal(err)
	}
	keys := drainBatches(t, it)
	if it.Pruned() != 0 {
		t.Errorf("row-layout scan pruned %d pages", it.Pruned())
	}
	if len(keys) != 300 {
		t.Errorf("row-layout scan returned %d rows, want 300", len(keys))
	}
	for i, k := range keys {
		if k != int64(i) {
			t.Fatalf("key %d = %d out of order", i, k)
		}
	}
	p.AssertUnpinned(t)
}

// TestScanBatchesRejectsHeaderCountMismatch: a columnar leaf whose
// header row count disagrees with its chunk is corrupt, and the scan
// must say so rather than trust the chunk (the codec's own table is
// colpage.TestDataPageRejectsDamage; this is the way there from a scan).
func TestScanBatchesRejectsHeaderCountMismatch(t *testing.T) {
	tr, _, p, _ := newColTree(t, 256, 64, 200)
	pn, err := tr.leftmostLeafUncharged()
	if err != nil {
		t.Fatal(err)
	}
	fr, err := p.Get(tr.file, pn)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Data[0] != leafPages.Col {
		t.Fatalf("leftmost leaf has page type %d, want a columnar leaf", fr.Data[0])
	}
	binary.BigEndian.PutUint16(fr.Data[1:], binary.BigEndian.Uint16(fr.Data[1:])+1)
	fr.MarkDirty()
	if err := p.Release(fr); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.EvictAll()
	it, err := tr.ScanBatches(nil, nil)
	for err == nil && !it.Done() {
		err = it.Fill(&vec.Batch{}, vec.DefaultBatchSize)
	}
	if err == nil || !strings.Contains(err.Error(), "header says") {
		t.Errorf("scan over a leaf with a wrong header count: err = %v", err)
	}
	p.AssertUnpinned(t)
}
