package hashidx

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"
	"testing/quick"

	"viewmat/internal/btree"
	"viewmat/internal/colpage"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// scanAll gathers every tuple of the index through ScanAllBatches.
func scanAll(ix *testIndex) ([]tuple.Tuple, error) {
	batches, _, err := ix.ScanAllBatches(0, nil)
	if err != nil {
		return nil, err
	}
	var out []tuple.Tuple
	for _, b := range batches {
		out = b.AppendTuples(out, 0)
	}
	return out, nil
}

func newTestIndex(t testing.TB, pageSize, poolCap, buckets int) (*testIndex, *storage.Meter) {
	t.Helper()
	d := storage.NewDisk(pageSize)
	m := storage.NewMeter()
	p := storage.NewArena(d, poolCap).NewPool(m)
	ix, err := newIndex(p, d.Open("h"), 0, buckets)
	if err != nil {
		t.Fatal(err)
	}
	return ix, m
}

func mk(id uint64, k int64) tuple.Tuple {
	return tuple.New(id, tuple.I(k), tuple.S("pay"))
}

// insert adds tp: an ApplyRun of one insert.
func insert(ix *testIndex, tp tuple.Tuple) error {
	_, err := ix.ApplyRun([]tuple.Tuple{tp}, nil, nil)
	return err
}

// deleteRow deletes the row of key value v and id, an ApplyRun of one
// delete whose row carries the key value alone, and returns the row it
// cut, reporting whether there was one.
func deleteRow(ix *testIndex, v tuple.Value, id uint64) (tuple.Tuple, bool, error) {
	vals := make([]tuple.Value, ix.keyCol+1)
	vals[ix.keyCol] = v
	var cut []tuple.Tuple
	_, err := ix.ApplyRun([]tuple.Tuple{{ID: id, Vals: vals}}, []int8{-1}, &cut)
	if errors.Is(err, btree.ErrAbsent) {
		return tuple.Tuple{}, false, nil
	}
	if err != nil {
		return tuple.Tuple{}, false, err
	}
	return cut[0], true, nil
}

func TestInsertLookup(t *testing.T) {
	ix, _ := newTestIndex(t, 256, 64, 8)
	for i := int64(0); i < 100; i++ {
		if err := insert(ix, mk(uint64(i+1), i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if ix.Len() != 100 {
		t.Errorf("Len = %d", ix.Len())
	}
	got, err := ix.Lookup(tuple.I(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 43 {
		t.Errorf("Lookup(42) = %v", got)
	}
	if got, _ := ix.Lookup(tuple.I(5000)); len(got) != 0 {
		t.Errorf("Lookup of absent key = %v", got)
	}
}

func TestDuplicateKeys(t *testing.T) {
	ix, _ := newTestIndex(t, 256, 64, 4)
	for id := uint64(1); id <= 30; id++ {
		if err := insert(ix, mk(id, 7)); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := ix.Lookup(tuple.I(7))
	if len(got) != 30 {
		t.Errorf("found %d duplicates, want 30", len(got))
	}
	tp, ok, err := ix.Get(tuple.I(7), 15)
	if err != nil || !ok || tp.ID != 15 {
		t.Errorf("Get(7,15) = %v ok=%v err=%v", tp, ok, err)
	}
	if _, ok, _ := ix.Get(tuple.I(7), 99); ok {
		t.Error("Get with absent id succeeded")
	}
}

func TestOverflowChains(t *testing.T) {
	// One bucket, tiny pages: everything chains.
	ix, _ := newTestIndex(t, 96, 64, 1)
	for i := int64(0); i < 60; i++ {
		if err := insert(ix, mk(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	if p := ix.Pages(); p < 20 {
		t.Errorf("Pages = %d, expected long overflow chain", p)
	}
	all, err := scanAll(ix)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 60 {
		t.Errorf("ScanAll found %d, want 60", len(all))
	}
}

func TestDelete(t *testing.T) {
	ix, _ := newTestIndex(t, 128, 64, 4)
	for i := int64(0); i < 50; i++ {
		insert(ix, mk(uint64(i+1), i))
	}
	old, ok, err := deleteRow(ix, tuple.I(20), 21)
	if err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	if want := mk(21, 20); old.ID != want.ID || !tuple.ValsEqual(old, want) {
		t.Errorf("delete returned %v, want the removed tuple %v", old, want)
	}
	if _, ok, _ := deleteRow(ix, tuple.I(20), 21); ok {
		t.Error("second delete succeeded")
	}
	if got, _ := ix.Lookup(tuple.I(20)); len(got) != 0 {
		t.Errorf("deleted key still found: %v", got)
	}
	if ix.Len() != 49 {
		t.Errorf("Len = %d, want 49", ix.Len())
	}
}

func TestDeleteFromOverflowPage(t *testing.T) {
	ix, _ := newTestIndex(t, 96, 64, 1)
	for i := int64(0); i < 40; i++ {
		insert(ix, mk(uint64(i+1), i))
	}
	// The last-inserted tuples live deep in the chain.
	_, ok, err := deleteRow(ix, tuple.I(39), 40)
	if err != nil || !ok {
		t.Fatalf("delete from overflow: ok=%v err=%v", ok, err)
	}
	all, _ := scanAll(ix)
	for _, tp := range all {
		if tp.ID == 40 {
			t.Error("deleted tuple still present")
		}
	}
}

func TestSameKeyUpdateStaysOnSamePage(t *testing.T) {
	// §2.2.2: with clustered hashing, a tuple updated without changing
	// its key hashes to the same page, so delete-old + insert-new
	// touches a single chain page (when there is room).
	ix, m := newTestIndex(t, 512, 64, 16)
	old := mk(1, 5)
	if err := insert(ix, old); err != nil {
		t.Fatal(err)
	}
	if err := ix.pool.Close(); err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()
	if _, ok, err := deleteRow(ix, tuple.I(5), 1); err != nil || !ok {
		t.Fatal("delete failed")
	}
	if err := insert(ix, mk(2, 5)); err != nil {
		t.Fatal(err)
	}
	diff := m.Snapshot().Sub(before)
	// Same primary page cached in the pool: 1 read, writes on unpin.
	if diff.Reads != 1 {
		t.Errorf("same-key update charged %d reads, want 1", diff.Reads)
	}
}

// TestTruncate: Truncate frees every chain page, overflow chains
// included, and charges nothing; it leaves every bucket with no page and
// the index empty; and a refill of the same rows reuses the freed pages
// without growing the file.
func TestTruncate(t *testing.T) {
	ix, m := newTestIndex(t, 96, 64, 2)
	fill := func(id0 uint64) {
		t.Helper()
		for i := int64(0); i < 50; i++ {
			if err := insert(ix, mk(id0+uint64(i), i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill(1)
	pagesBefore, extent := ix.Pages(), ix.file.Extent()
	if pagesBefore <= 2 {
		t.Fatalf("expected overflow before truncate, pages=%d", pagesBefore)
	}
	if err := ix.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if err := ix.Truncate(); err != nil {
		t.Fatal(err)
	}
	if err := ix.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot(); got != (storage.Stats{}) {
		t.Errorf("Truncate charged %+v, want nothing", got)
	}
	if ix.Len() != 0 {
		t.Errorf("Len after truncate = %d", ix.Len())
	}
	if got, n := ix.Pages(), ix.file.NumPages(); got != 0 || n != 0 {
		t.Errorf("after truncate: Pages = %d, the file holds %d pages, want 0 and 0", got, n)
	}
	for b, pn := range ix.Meta().Buckets {
		if pn != noPage {
			t.Errorf("bucket %d has page %d after truncate, want none", b, pn)
		}
	}
	all, _ := scanAll(ix)
	if len(all) != 0 {
		t.Errorf("ScanAll after truncate = %v", all)
	}
	if err := checkDirectory(ix); err != nil {
		t.Errorf("after truncate: %v", err)
	}
	// Index stays usable and reuses freed pages.
	fill(100)
	all, _ = scanAll(ix)
	if len(all) != 50 {
		t.Errorf("after refill ScanAll = %d, want 50", len(all))
	}
	if got, e := ix.Pages(), ix.file.Extent(); got != pagesBefore || e != extent {
		t.Errorf("after refill: %d pages in a file of extent %d, want %d in %d: the freed pages reused", got, e, pagesBefore, extent)
	}
	if err := checkDirectory(ix); err != nil {
		t.Errorf("after refill: %v", err)
	}
}

// TestTruncateFreesChainsUnread: Truncate frees every bucket's chain
// without reading or writing a page — here one bucket with rows and
// overflow, one with rows only, one whose primary page its deletes
// emptied but whose overflow still holds rows, and one never written —
// and a second Truncate costs nothing either. A bucket with no page
// answers a lookup, a delete and a scan without a read. The first insert into
// it allocates its page: no read, and one write when its scope closes.
func TestTruncateFreesChainsUnread(t *testing.T) {
	ix, m := newTestIndex(t, 96, 64, 4)
	var byBucket [4][]int64
	for k := int64(0); len(byBucket[0]) < 12 || len(byBucket[1]) < 1 || len(byBucket[2]) < 12; k++ {
		if b := ix.bucketFor(tuple.I(k)); b < 3 {
			byBucket[b] = append(byBucket[b], k)
		}
	}
	for _, keys := range byBucket {
		for _, k := range keys {
			if err := insert(ix, mk(uint64(k+1), k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Empty bucket 2's primary page, which took its first rows.
	for _, k := range byBucket[2] {
		if e, _ := ix.dir.Lookup(ix.buckets[2]); e.Empty() {
			break
		}
		if _, ok, err := deleteRow(ix, tuple.I(k), uint64(k+1)); err != nil || !ok {
			t.Fatalf("delete key %d: ok %v, err %v", k, ok, err)
		}
	}
	if e, _ := ix.dir.Lookup(ix.buckets[2]); !e.Empty() || !e.HasNext {
		t.Fatalf("bucket 2's primary page %v: the fixture needs it empty with overflow", e)
	}
	if e, _ := ix.dir.Lookup(ix.buckets[0]); e.Empty() || !e.HasNext {
		t.Fatalf("bucket 0's primary page %v: the fixture needs rows and overflow", e)
	}
	if err := ix.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// charged runs op and a flush, and returns what they charged.
	charged := func(op func() error) storage.Stats {
		t.Helper()
		m.Reset()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		if err := ix.pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		return m.Snapshot()
	}
	pages := ix.file.NumPages()
	for round := range 2 {
		if got := charged(ix.Truncate); got != (storage.Stats{}) {
			t.Errorf("Truncate %d charged %+v, want nothing", round, got)
		}
		if n := ix.file.NumPages(); n != 0 {
			t.Errorf("Truncate %d left %d of %d pages", round, n, pages)
		}
		if err := checkDirectory(ix); err != nil {
			t.Errorf("after truncate %d: %v", round, err)
		}
	}

	k := byBucket[0][0]
	if got := charged(func() error {
		rows, err := ix.Lookup(tuple.I(k))
		if err == nil && len(rows) > 0 {
			err = fmt.Errorf("Lookup(%d) = %v", k, rows)
		}
		return err
	}); got != (storage.Stats{}) {
		t.Errorf("a lookup of a bucket with no page charged %+v, want nothing", got)
	}
	if got := charged(func() error {
		_, ok, err := deleteRow(ix, tuple.I(k), uint64(k+1))
		if err == nil && ok {
			err = fmt.Errorf("deleted key %d from a truncated index", k)
		}
		return err
	}); got != (storage.Stats{}) {
		t.Errorf("a delete in a bucket with no page charged %+v, want nothing", got)
	}
	if got := charged(func() error {
		rows, err := scanAll(ix)
		if err == nil && len(rows) > 0 {
			err = fmt.Errorf("ScanAll of a truncated index = %v", rows)
		}
		return err
	}); got != (storage.Stats{}) {
		t.Errorf("a scan of buckets with no page charged %+v, want nothing", got)
	}
	if got := charged(func() error { return insert(ix, mk(uint64(k+1), k)) }); got != (storage.Stats{Writes: 1}) {
		t.Errorf("the first insert into a bucket with no page charged %+v, want one write", got)
	}
	if got := charged(func() error { return insert(ix, mk(uint64(k+2), k)) }); got != (storage.Stats{Writes: 1}) {
		t.Errorf("the second insert charged %+v, want one write and no read: its page is in the pool", got)
	}
	if got, n := ix.Pages(), ix.file.NumPages(); got != 1 || n != 1 {
		t.Errorf("after the refill: Pages = %d, the file holds %d, want 1 and 1", got, n)
	}
	if rows, err := ix.Lookup(tuple.I(k)); err != nil || len(rows) != 2 {
		t.Errorf("Lookup(%d) = %v, %v; want the two rows", k, rows, err)
	}
	if err := checkDirectory(ix); err != nil {
		t.Errorf("after the refill: %v", err)
	}
}

func TestStringKeyedIndex(t *testing.T) {
	d := storage.NewDisk(256)
	p := storage.NewArena(d, 64).NewPool(storage.NewMeter())
	ix, err := newIndex(p, d.Open("s"), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"alice", "bob", "carol", "dave"}
	for i, n := range names {
		if err := insert(ix, tuple.New(uint64(i+1), tuple.I(int64(i)), tuple.S(n))); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := ix.Lookup(tuple.S("carol"))
	if len(got) != 1 || got[0].ID != 3 {
		t.Errorf("Lookup(carol) = %v", got)
	}
}

// TestFloatKeyClassesShareABucket: a Lookup, Get and Delete find a row
// under any key tuple.Equal matches — +0 finds −0, and math.NaN() a NaN
// of another payload — at bucket counts where the raw IEEE bits of the
// two hash apart.
func TestFloatKeyClassesShareABucket(t *testing.T) {
	for _, pair := range [][2]float64{
		{math.Copysign(0, -1), 0},
		{math.Float64frombits(0x7ff8dead0000beef), math.NaN()},
	} {
		for _, buckets := range []int{3, 7, 13, 100} {
			ix, _ := newTestIndex(t, 256, 64, buckets)
			stored, probe := tuple.F(pair[0]), tuple.F(pair[1])
			if err := insert(ix, tuple.New(1, stored, tuple.S("pay"))); err != nil {
				t.Fatal(err)
			}
			if got, err := ix.Lookup(probe); err != nil || len(got) != 1 {
				t.Errorf("%d buckets: Lookup(%v) of a stored %v = %v, %v", buckets, probe, stored, got, err)
			}
			if _, ok, err := ix.Get(probe, 1); err != nil || !ok {
				t.Errorf("%d buckets: Get(%v, 1) of a stored %v missed: %v", buckets, probe, stored, err)
			}
			if _, ok, err := deleteRow(ix, probe, 1); err != nil || !ok || ix.Len() != 0 {
				t.Errorf("%d buckets: Delete(%v, 1) of a stored %v missed: %v", buckets, probe, stored, err)
			}
		}
	}
}

func TestOversizedTupleRejected(t *testing.T) {
	ix, _ := newTestIndex(t, 64, 16, 1)
	big := tuple.New(1, tuple.I(1), tuple.S(string(make([]byte, 100))))
	if err := insert(ix, big); err == nil {
		t.Error("oversized tuple accepted")
	}
}

// Property: the index agrees with a map-based model under arbitrary
// insert/delete interleavings, and its page directory with one rebuilt
// from the flushed images.
func TestPropertyMatchesModel(t *testing.T) {
	fn := func(ops []int16) bool {
		ix, _ := newTestIndex(t, 128, 128, 4)
		model := map[uint64]int64{}
		nextID := uint64(1)
		for _, op := range ops {
			k := int64(op % 16)
			if op >= 0 {
				if err := insert(ix, mk(nextID, k)); err != nil {
					return false
				}
				model[nextID] = k
				nextID++
			} else {
				for id, mk2 := range model {
					if mk2 == k {
						_, ok, err := deleteRow(ix, tuple.I(k), id)
						if err != nil || !ok {
							return false
						}
						delete(model, id)
						break
					}
				}
			}
		}
		if ix.Len() != len(model) {
			return false
		}
		all, err := scanAll(ix)
		if err != nil || len(all) != len(model) {
			return false
		}
		for _, tp := range all {
			if model[tp.ID] != tp.Vals[0].Int() {
				return false
			}
		}
		// Per-key lookups agree too.
		counts := map[int64]int{}
		for _, v := range model {
			counts[v]++
		}
		for k, want := range counts {
			got, err := ix.Lookup(tuple.I(k))
			if err != nil || len(got) != want {
				return false
			}
		}
		if err := checkDirectory(ix); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestChainEditAllocations pins what one chain page edit or point read
// allocates on a warm index — an insert and a delete, each an ApplyRun of
// one row, and a Get, none of them growing a chain: the edit decodes the
// page onto lanes the index
// reuses, splices one row and encodes the lanes back, and a Get boxes the
// one row it returns. An edit that boxed the whole page again
// would show here: while pages decoded to tuples and a Get cloned every
// key match, the three allocated 14, 28 and 13 objects. The bounds are
// today's counts: they may fall, and must not rise.
func TestChainEditAllocations(t *testing.T) {
	ix, _ := newTestIndex(t, 1024, 64, 16)
	for i := int64(0); i < 200; i++ {
		if err := insert(ix, mk(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	pages := ix.Pages()
	// Eleven rows of key 7 (AllocsPerRun's warm-up and ten runs) fit on
	// its bucket's page beside its rows.
	ins, del := uint64(100000), uint64(100000)
	row, key, minus := make([]tuple.Tuple, 1), []tuple.Value{tuple.I(7)}, []int8{-1}
	var cut []tuple.Tuple
	for _, op := range []struct {
		name      string
		max, race float64 // the race detector's count, which wanders by one
		run       func() error
	}{
		{"insert", 6, 12, func() error { ins++; return insert(ix, mk(ins, 7)) }},
		{"get", 10, 14, func() error {
			if _, ok, err := ix.Get(tuple.I(7), 100005); err != nil || !ok {
				return fmt.Errorf("row 100005: %v, %v", ok, err)
			}
			return nil
		}},
		{"delete", 7, 11, func() error {
			del++
			row[0] = tuple.Tuple{ID: del, Vals: key}
			_, err := ix.ApplyRun(row, minus, &cut)
			cut = cut[:0]
			return err
		}},
	} {
		allocs := testing.AllocsPerRun(10, func() {
			if err := op.run(); err != nil {
				t.Fatal(err)
			}
		})
		max := op.max
		if raceEnabled() {
			max = op.race
		}
		t.Logf("%.0f allocations a chain page %s (race detector: %v)", allocs, op.name, raceEnabled())
		if allocs > max {
			t.Errorf("a chain page %s allocated %.0f objects, want at most %.0f", op.name, allocs, max)
		}
	}
	if got := ix.Pages(); got != pages {
		t.Fatalf("the edits grew a chain: %d pages, then %d", pages, got)
	}
}

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation moves stack buffers to the heap.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

func BenchmarkInsert(b *testing.B) {
	ix, _ := newTestIndex(b, 4000, 256, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := insert(ix, mk(uint64(i+1), int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	ix, _ := newTestIndex(b, 4000, 256, 256)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		insert(ix, mk(uint64(i+1), int64(rng.Intn(10000))))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Lookup(tuple.I(int64(i % 10000))); err != nil {
			b.Fatal(err)
		}
	}
}

func TestIndexAccessors(t *testing.T) {
	ix, _ := newTestIndex(t, 128, 16, 4)
	if ix.Buckets() != 4 {
		t.Errorf("Buckets = %d", ix.Buckets())
	}
	if ix.KeyCol() != 0 {
		t.Errorf("KeyCol = %d", ix.KeyCol())
	}
	if got, err := newIndex(ix.pool, ix.file, 0, 0); err != nil || got.Buckets() != 1 {
		t.Errorf("bucket clamp: %v, %v", got, err)
	}
}

// testIndex is an Index driven through one pool, as one operation drives
// it: the page-touching methods take the pool the test gave the index.
type testIndex struct {
	*Index
	pool *storage.Pool
}

func newIndex(p *storage.Pool, file *storage.File, keyCol, numBuckets int) (*testIndex, error) {
	ix, err := New(p, file, keyCol, numBuckets)
	if err != nil {
		return nil, err
	}
	return &testIndex{ix, p}, nil
}

func openIndex(p *storage.Pool, file *storage.File, keyCol int, m Meta) (*testIndex, error) {
	ix, err := Open(file, keyCol, m)
	if err != nil {
		return nil, err
	}
	return &testIndex{ix, p}, nil
}

func (ix *testIndex) ApplyRun(rows []tuple.Tuple, signs []int8, cut *[]tuple.Tuple) (int, error) {
	return ix.Index.ApplyRun(ix.pool, rows, signs, cut)
}

func (ix *testIndex) Lookup(v tuple.Value) ([]tuple.Tuple, error) { return ix.Index.Lookup(ix.pool, v) }

func (ix *testIndex) Get(v tuple.Value, id uint64) (tuple.Tuple, bool, error) {
	return ix.Index.Get(ix.pool, v, id)
}

func (ix *testIndex) Truncate() error { return ix.Index.Truncate(ix.pool) }

func (ix *testIndex) ScanAll(prune []colpage.Atom) (*colpage.Scan, error) {
	return ix.Index.ScanAll(ix.pool, prune)
}

func (ix *testIndex) ScanAllBatches(size int, prune []colpage.Atom) ([]*vec.Batch, int64, error) {
	return ix.Index.ScanAllBatches(ix.pool, size, prune)
}
