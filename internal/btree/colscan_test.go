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
func newColTree(t testing.TB, pageSize, poolCap, rows int) (*testTree, *storage.Disk, *storage.Pool, *storage.Meter) {
	t.Helper()
	d := storage.NewDisk(pageSize)
	m := storage.NewMeter()
	p := storage.NewArena(d, poolCap).NewPool(m)
	tr, err := newTree(p, d.Open("t"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := insert(tr, mk(uint64(i+1), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	return tr, d, p, m
}

// drainBatches pulls a scan dry, returning the slot-0 key
// values in emission order and the rows the prune atoms dropped.
func drainBatches(t testing.TB, it *colpage.Scan) (keys []int64, dropped int) {
	t.Helper()
	for !it.Done() {
		b := &vec.Batch{}
		if err := it.Fill(b, vec.DefaultBatchSize); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b.NumRows(); i++ {
			keys = append(keys, b.TupleAt(0, i).Vals[0].Int())
		}
		dropped += b.Dropped
	}
	return keys, dropped
}

// below returns the keys less than n, in the order given.
func below(keys []int64, n int64) []int64 {
	var out []int64
	for _, k := range keys {
		if k < n {
			out = append(out, k)
		}
	}
	return out
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
	prunedKeys, dropped := drainBatches(t, it)
	prunedReads := m.Snapshot().Sub(before).Reads
	if it.Pruned() == 0 {
		t.Fatal("scan pruned nothing; fixture too small to exercise pruning")
	}

	pool.Close()
	before = m.Snapshot()
	full, err := tr.ScanBatches(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fullKeys, _ := drainBatches(t, full)
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

	// The pruned scan returns the matching rows alone, in key order,
	// and counts the rest of every page it read as dropped.
	fm := below(fullKeys, 50)
	if len(prunedKeys) != 50 || len(fm) != 50 {
		t.Fatalf("pruned scan returned %d rows, full scan %d matching, want 50", len(prunedKeys), len(fm))
	}
	for i := range fm {
		if prunedKeys[i] != fm[i] {
			t.Fatalf("matching row %d: pruned %d vs full %d", i, prunedKeys[i], fm[i])
		}
	}
	if int64(dropped) >= rows-50 || dropped == 0 {
		t.Errorf("pruned scan dropped %d rows; want some, fewer than the %d on pruned pages too", dropped, rows-50)
	}
	pool.AssertUnpinned(t)
}

// TestScanBatchesPruningDisarmedByDirtyFrames: while dirty frames
// exist the on-disk zone maps may be stale, so the scan must read
// every page (identical charges to the unpruned scan) — but the row
// test reads the pinned frames, dirty or not, so it stays armed. Write-
// through is off so the dirtying insert stays pool-only, and the pool
// is large enough that the dirty frame is never evicted (an eviction
// writes it back, making the disk current — at which point pruning
// soundly re-arms).
func TestScanBatchesPruningDisarmedByDirtyFrames(t *testing.T) {
	// scan runs a full scan over a freshly dirtied tree, the same tree
	// every call, and returns its keys, dropped rows and page reads.
	scan := func(atoms []colpage.Atom) (keys []int64, dropped int, reads int64) {
		tr, _, pool, m := newColTree(t, 256, 512, 500)
		// Dirty a page: an insert rewrites its leaf in the pool only.
		if err := insert(tr, mk(9001, 9001)); err != nil {
			t.Fatal(err)
		}
		before := m.Snapshot()
		it, err := tr.ScanBatches(nil, atoms)
		if err != nil {
			t.Fatal(err)
		}
		keys, dropped = drainBatches(t, it)
		if it.Pruned() != 0 {
			t.Errorf("scan over dirty frames pruned %d pages", it.Pruned())
		}
		pool.AssertUnpinned(t)
		return keys, dropped, m.Snapshot().Sub(before).Reads
	}
	all, _, fullReads := scan(nil)
	keys, dropped, reads := scan([]colpage.Atom{{Col: 0, Op: pred.Lt, Val: tuple.I(50)}})
	if len(keys)+dropped != 501 || len(all) != 501 {
		t.Errorf("selecting scan returned %d rows and dropped %d, unselecting %d; want 501 in all", len(keys), dropped, len(all))
	}
	if reads != fullReads || reads == 0 {
		t.Errorf("selecting scan read %d pages, unselecting %d", reads, fullReads)
	}
	if want := below(all, 50); len(keys) != 50 || len(want) != 50 {
		t.Errorf("selecting scan returned %d rows, want the 50 below 50", len(keys))
	} else {
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("row %d: key %d, want %d", i, keys[i], want[i])
			}
		}
	}
}

// TestScanBatchesRangeIgnoresPrune: a range scan ignores prune atoms
// (pruning applies only to full scans) and must return exactly the
// range.
func TestScanBatchesRangeIgnoresPrune(t *testing.T) {
	tr, _, pool, _ := newColTree(t, 256, 64, 300)
	rg := pred.NewRange(tuple.I(100), tuple.I(150), true, true)
	it, err := tr.ScanBatches(rg, []colpage.Atom{{Col: 0, Op: pred.Lt, Val: tuple.I(10)}})
	if err != nil {
		t.Fatal(err)
	}
	keys, dropped := drainBatches(t, it)
	if it.Pruned() != 0 || dropped != 0 {
		t.Errorf("range scan pruned %d pages, dropped %d rows", it.Pruned(), dropped)
	}
	if len(keys) != 51 || keys[0] != 100 || keys[len(keys)-1] != 150 {
		t.Errorf("range scan returned %d keys [%v..%v], want 51 [100..150]",
			len(keys), keys[0], keys[len(keys)-1])
	}
	pool.AssertUnpinned(t)
}

// TestScanBatchesRejectsHeaderCountMismatch: a columnar leaf whose
// header row count disagrees with its chunk is corrupt, and the scan
// must say so rather than trust the chunk (the codec's own table is
// colpage.TestDataPageRejectsDamage; this is the way there from a scan).
func TestScanBatchesRejectsHeaderCountMismatch(t *testing.T) {
	tr, _, p, _ := newColTree(t, 256, 64, 200)
	pn, err := tr.findLeaf(nil)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := p.Get(tr.file, pn)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Data[0] != byte(leafPages) {
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
	p.Close()
	it, err := tr.ScanBatches(nil, nil)
	for err == nil && !it.Done() {
		err = it.Fill(&vec.Batch{}, vec.DefaultBatchSize)
	}
	if err == nil || !strings.Contains(err.Error(), "header says") {
		t.Errorf("scan over a leaf with a wrong header count: err = %v", err)
	}
	p.AssertUnpinned(t)
}
