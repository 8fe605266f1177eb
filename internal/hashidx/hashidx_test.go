package hashidx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// scanAll gathers every tuple of the index through ScanAllBatches.
func scanAll(ix *Index) ([]tuple.Tuple, error) {
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

func newTestIndex(t testing.TB, pageSize, poolCap, buckets int) (*Index, *storage.Meter) {
	t.Helper()
	d := storage.NewDisk(pageSize)
	m := storage.NewMeter()
	p := storage.NewPool(d, m, poolCap)
	ix, err := New(p, d.Open("h"), 0, buckets)
	if err != nil {
		t.Fatal(err)
	}
	return ix, m
}

func mk(id uint64, k int64) tuple.Tuple {
	return tuple.New(id, tuple.I(k), tuple.S("pay"))
}

func TestInsertLookup(t *testing.T) {
	ix, _ := newTestIndex(t, 256, 64, 8)
	for i := int64(0); i < 100; i++ {
		if err := ix.Insert(mk(uint64(i+1), i)); err != nil {
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
		if err := ix.Insert(mk(id, 7)); err != nil {
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
		if err := ix.Insert(mk(uint64(i+1), i)); err != nil {
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
		ix.Insert(mk(uint64(i+1), i))
	}
	old, ok, err := ix.Delete(tuple.I(20), 21)
	if err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	if want := mk(21, 20); old.ID != want.ID || !tuple.ValsEqual(old, want) {
		t.Errorf("delete returned %v, want the removed tuple %v", old, want)
	}
	if _, ok, _ := ix.Delete(tuple.I(20), 21); ok {
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
		ix.Insert(mk(uint64(i+1), i))
	}
	// The last-inserted tuples live deep in the chain.
	_, ok, err := ix.Delete(tuple.I(39), 40)
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
	if err := ix.Insert(old); err != nil {
		t.Fatal(err)
	}
	if err := ix.pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()
	if _, ok, err := ix.Delete(tuple.I(5), 1); err != nil || !ok {
		t.Fatal("delete failed")
	}
	if err := ix.Insert(mk(2, 5)); err != nil {
		t.Fatal(err)
	}
	diff := m.Snapshot().Sub(before)
	// Same primary page cached in the pool: 1 read, writes on unpin.
	if diff.Reads != 1 {
		t.Errorf("same-key update charged %d reads, want 1", diff.Reads)
	}
}

func TestTruncate(t *testing.T) {
	ix, _ := newTestIndex(t, 96, 64, 2)
	for i := int64(0); i < 50; i++ {
		ix.Insert(mk(uint64(i+1), i))
	}
	pagesBefore := ix.Pages()
	if pagesBefore <= 2 {
		t.Fatalf("expected overflow before truncate, pages=%d", pagesBefore)
	}
	if err := ix.Truncate(); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 0 {
		t.Errorf("Len after truncate = %d", ix.Len())
	}
	if got := ix.Pages(); got != 2 {
		t.Errorf("Pages after truncate = %d, want 2 primaries", got)
	}
	all, _ := scanAll(ix)
	if len(all) != 0 {
		t.Errorf("ScanAll after truncate = %v", all)
	}
	if err := checkDirectory(ix); err != nil {
		t.Errorf("after truncate: %v", err)
	}
	// Index stays usable and reuses freed pages.
	for i := int64(0); i < 50; i++ {
		if err := ix.Insert(mk(uint64(100+i), i)); err != nil {
			t.Fatalf("insert after truncate: %v", err)
		}
	}
	all, _ = scanAll(ix)
	if len(all) != 50 {
		t.Errorf("after refill ScanAll = %d, want 50", len(all))
	}
}

func TestStringKeyedIndex(t *testing.T) {
	d := storage.NewDisk(256)
	p := storage.NewPool(d, storage.NewMeter(), 64)
	ix, err := New(p, d.Open("s"), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"alice", "bob", "carol", "dave"}
	for i, n := range names {
		if err := ix.Insert(tuple.New(uint64(i+1), tuple.I(int64(i)), tuple.S(n))); err != nil {
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
			if err := ix.Insert(tuple.New(1, stored, tuple.S("pay"))); err != nil {
				t.Fatal(err)
			}
			if got, err := ix.Lookup(probe); err != nil || len(got) != 1 {
				t.Errorf("%d buckets: Lookup(%v) of a stored %v = %v, %v", buckets, probe, stored, got, err)
			}
			if _, ok, err := ix.Get(probe, 1); err != nil || !ok {
				t.Errorf("%d buckets: Get(%v, 1) of a stored %v missed: %v", buckets, probe, stored, err)
			}
			if _, ok, err := ix.Delete(probe, 1); err != nil || !ok || ix.Len() != 0 {
				t.Errorf("%d buckets: Delete(%v, 1) of a stored %v missed: %v", buckets, probe, stored, err)
			}
		}
	}
}

func TestOversizedTupleRejected(t *testing.T) {
	ix, _ := newTestIndex(t, 64, 16, 1)
	big := tuple.New(1, tuple.I(1), tuple.S(string(make([]byte, 100))))
	if err := ix.Insert(big); err == nil {
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
				if err := ix.Insert(mk(nextID, k)); err != nil {
					return false
				}
				model[nextID] = k
				nextID++
			} else {
				for id, mk2 := range model {
					if mk2 == k {
						_, ok, err := ix.Delete(tuple.I(k), id)
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

func BenchmarkInsert(b *testing.B) {
	ix, _ := newTestIndex(b, 4000, 256, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ix.Insert(mk(uint64(i+1), int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	ix, _ := newTestIndex(b, 4000, 256, 256)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		ix.Insert(mk(uint64(i+1), int64(rng.Intn(10000))))
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
	if got, err := New(ix.pool, ix.file, 0, 0); err != nil || got.Buckets() != 1 {
		t.Errorf("bucket clamp: %v, %v", got, err)
	}
}
