package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"viewmat/internal/colpage"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

func newTestTree(t testing.TB, pageSize, poolCap int) (*testTree, *storage.Meter) {
	t.Helper()
	d := storage.NewDisk(pageSize)
	m := storage.NewMeter()
	p := storage.NewArena(d, poolCap).NewPool(m)
	tr, err := newTree(p, d.Open("t"), 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr, m
}

func mk(id uint64, k int64) tuple.Tuple {
	return tuple.New(id, tuple.I(k), tuple.S("payload"))
}

// insert adds tp: an ApplyRun of one row.
func insert(tr *testTree, tp tuple.Tuple) error {
	_, err := tr.ApplyRun([]tuple.Tuple{tp}, nil, -1, nil)
	return err
}

// insertRun inserts tps in order: an ApplyRun of inserts only.
func insertRun(tr *testTree, tps []tuple.Tuple) error {
	_, err := tr.ApplyRun(tps, nil, -1, nil)
	return err
}

// deleteRow deletes the row of key value val and id, an ApplyRun of one
// delete whose row carries the key value alone, and returns the row it
// cut, reporting whether there was one.
func deleteRow(tr *testTree, val tuple.Value, id uint64) (tuple.Tuple, bool, error) {
	vals := make([]tuple.Value, tr.keyCol+1)
	vals[tr.keyCol] = val
	var cut []tuple.Tuple
	_, err := tr.ApplyRun([]tuple.Tuple{{ID: id, Vals: vals}}, []int8{-1}, -1, &cut)
	if errors.Is(err, ErrAbsent) {
		return tuple.Tuple{}, false, nil
	}
	if err != nil {
		return tuple.Tuple{}, false, err
	}
	return cut[0], true, nil
}

func collect(t testing.TB, it *colpage.Scan) []tuple.Tuple {
	t.Helper()
	var out []tuple.Tuple
	for !it.Done() {
		b := &vec.Batch{}
		if err := it.Fill(b, vec.DefaultBatchSize); err != nil {
			t.Fatal(err)
		}
		out = b.AppendTuples(out, 0)
	}
	return out
}

func TestInsertAndGet(t *testing.T) {
	tr, _ := newTestTree(t, 256, 64)
	for i := int64(0); i < 50; i++ {
		if err := insert(tr, mk(uint64(i+1), i*3)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tr.Len() != 50 {
		t.Errorf("Len = %d, want 50", tr.Len())
	}
	tp, ok, err := tr.Get(tuple.I(30), 11)
	if err != nil || !ok {
		t.Fatalf("Get(30,11): ok=%v err=%v", ok, err)
	}
	if tp.ID != 11 || tp.Vals[0].Int() != 30 {
		t.Errorf("Get returned %v", tp)
	}
	if _, ok, _ := tr.Get(tuple.I(31), 99); ok {
		t.Error("Get of absent key succeeded")
	}
	if _, ok, _ := tr.Get(tuple.I(30), 99); ok {
		t.Error("Get matched value with wrong id")
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	tr, _ := newTestTree(t, 256, 64)
	if err := insert(tr, mk(7, 5)); err != nil {
		t.Fatal(err)
	}
	if err := insert(tr, mk(7, 5)); err == nil {
		t.Error("duplicate (value, id) accepted")
	}
}

func TestDuplicateValuesDifferentIDs(t *testing.T) {
	tr, _ := newTestTree(t, 256, 64)
	for id := uint64(1); id <= 40; id++ {
		if err := insert(tr, mk(id, 42)); err != nil {
			t.Fatalf("insert dup value id=%d: %v", id, err)
		}
	}
	it, err := tr.ScanBatches(pred.PointRange(tuple.I(42)), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, it)
	if len(got) != 40 {
		t.Errorf("scan found %d duplicates, want 40", len(got))
	}
	// Each individually deletable by id.
	_, ok, err := deleteRow(tr, tuple.I(42), 17)
	if err != nil || !ok {
		t.Fatalf("delete dup: ok=%v err=%v", ok, err)
	}
	if tr.Len() != 39 {
		t.Errorf("Len = %d, want 39", tr.Len())
	}
}

func TestScanOrderAfterRandomInserts(t *testing.T) {
	tr, _ := newTestTree(t, 200, 128)
	rng := rand.New(rand.NewSource(7))
	keys := rng.Perm(500)
	for i, k := range keys {
		if err := insert(tr, mk(uint64(i+1), int64(k))); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	it, err := tr.ScanBatches(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, it)
	if len(got) != 500 {
		t.Fatalf("scan found %d, want 500", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Vals[0].Int() > got[i].Vals[0].Int() {
			t.Fatalf("scan out of order at %d: %v then %v", i, got[i-1], got[i])
		}
	}
	if tr.Height() < 2 {
		t.Errorf("500 tuples on 200-byte pages should have split: height %d", tr.Height())
	}
}

func TestRangeScanBounds(t *testing.T) {
	tr, _ := newTestTree(t, 200, 128)
	for i := int64(0); i < 300; i++ {
		if err := insert(tr, mk(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		name   string
		rg     *pred.Range
		lo, hi int64 // inclusive expected bounds
		count  int
	}{
		{"closed", pred.NewRange(tuple.I(10), tuple.I(19), true, true), 10, 19, 10},
		{"half-open", pred.NewRange(tuple.I(10), tuple.I(20), true, false), 10, 19, 10},
		{"open-low", pred.NewRange(tuple.I(10), tuple.I(20), false, true), 11, 20, 10},
		{"point", pred.PointRange(tuple.I(150)), 150, 150, 1},
		{"past-end", pred.NewRange(tuple.I(290), tuple.I(400), true, true), 290, 299, 10},
		{"empty", pred.NewRange(tuple.I(500), tuple.I(600), true, true), 0, 0, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			it, err := tr.ScanBatches(tc.rg, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := collect(t, it)
			if len(got) != tc.count {
				t.Fatalf("count = %d, want %d", len(got), tc.count)
			}
			if tc.count > 0 {
				if got[0].Vals[0].Int() != tc.lo || got[len(got)-1].Vals[0].Int() != tc.hi {
					t.Errorf("range [%d,%d], want [%d,%d]",
						got[0].Vals[0].Int(), got[len(got)-1].Vals[0].Int(), tc.lo, tc.hi)
				}
			}
		})
	}
}

func TestDeleteThenScan(t *testing.T) {
	tr, _ := newTestTree(t, 200, 128)
	for i := int64(0); i < 200; i++ {
		if err := insert(tr, mk(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 200; i += 2 {
		_, ok, err := deleteRow(tr, tuple.I(i), uint64(i+1))
		if err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	if _, ok, _ := deleteRow(tr, tuple.I(0), 1); ok {
		t.Error("second delete of same tuple succeeded")
	}
	it, _ := tr.ScanBatches(nil, nil)
	got := collect(t, it)
	if len(got) != 100 {
		t.Fatalf("after deletes scan found %d, want 100", len(got))
	}
	for _, tp := range got {
		if tp.Vals[0].Int()%2 == 0 {
			t.Fatalf("deleted tuple %v still visible", tp)
		}
	}
}

func TestDeleteEntireTreeThenReinsert(t *testing.T) {
	tr, _ := newTestTree(t, 200, 128)
	for i := int64(0); i < 150; i++ {
		if err := insert(tr, mk(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 150; i++ {
		if _, ok, err := deleteRow(tr, tuple.I(i), uint64(i+1)); err != nil || !ok {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d after deleting all", tr.Len())
	}
	it, _ := tr.ScanBatches(nil, nil)
	if got := collect(t, it); len(got) != 0 {
		t.Errorf("scan of emptied tree found %d tuples", len(got))
	}
	// Tree must remain usable.
	for i := int64(0); i < 50; i++ {
		if err := insert(tr, mk(uint64(1000+i), i)); err != nil {
			t.Fatalf("reinsert: %v", err)
		}
	}
	it, _ = tr.ScanBatches(nil, nil)
	if got := collect(t, it); len(got) != 50 {
		t.Errorf("after reinsert scan found %d, want 50", len(got))
	}
}

func TestHeightGrowth(t *testing.T) {
	tr, _ := newTestTree(t, 128, 256)
	if tr.Height() != 1 {
		t.Errorf("empty tree height = %d", tr.Height())
	}
	for i := int64(0); i < 2000; i++ {
		if err := insert(tr, mk(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Errorf("2000 tuples on 128-byte pages: height = %d, want ≥ 3", tr.Height())
	}
	if lp := tr.LeafPages(); lp < 100 {
		t.Errorf("LeafPages = %d, want many", lp)
	}
}

func TestSearchChargesHeightReads(t *testing.T) {
	tr, m := newTestTree(t, 128, 256)
	for i := int64(0); i < 2000; i++ {
		if err := insert(tr, mk(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	// Cool the cache so the descent is cold, then count reads.
	pool := tr.pool
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()
	if _, _, err := tr.Get(tuple.I(1234), 1235); err != nil {
		t.Fatal(err)
	}
	reads := m.Snapshot().Sub(before).Reads
	if reads != int64(tr.Height()) {
		t.Errorf("cold Get charged %d reads, want height %d", reads, tr.Height())
	}
}

func TestLeafPagesChargesNothing(t *testing.T) {
	tr, m := newTestTree(t, 128, 256)
	for i := int64(0); i < 500; i++ {
		insert(tr, mk(uint64(i+1), i))
	}
	tr.pool.Close()
	before := m.Snapshot()
	tr.LeafPages()
	if diff := m.Snapshot().Sub(before); diff != (storage.Stats{}) {
		t.Errorf("LeafPages charged %v", diff)
	}
}

func TestOversizedTupleRejected(t *testing.T) {
	tr, _ := newTestTree(t, 64, 16)
	big := tuple.New(1, tuple.I(1), tuple.S(string(make([]byte, 100))))
	if err := insert(tr, big); err == nil {
		t.Error("oversized tuple accepted")
	}
}

// TestSplitFitsBothHalves: a leaf splits where both halves fit, however
// unevenly its tuples are sized. The first script split [76, 3 869, 126]
// in the middle, by count, and wrote 4 050 bytes of the right half over a
// 4 000-byte frame. In the second the 3 900-byte string fits beside
// neither neighbour, so the leaf splits three ways.
func TestSplitFitsBothHalves(t *testing.T) {
	for _, c := range []struct {
		name   string
		width  map[int64]int // key → the width of its string
		order  []int64       // the keys in insertion order
		leaves int
	}{
		{"uneven halves", map[int64]int{1: 76, 2: 3869, 3: 126}, []int64{1, 2, 3}, 3},
		{"three ways", map[int64]int{1: 100, 2: 3900, 3: 100}, []int64{1, 3, 2}, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr, _ := newTestTree(t, 4000, 16)
			for i, k := range c.order {
				if err := insert(tr, tuple.New(uint64(i+1), tuple.I(k), tuple.S(strings.Repeat("s", c.width[k])))); err != nil {
					t.Fatal(err)
				}
			}
			it, err := tr.ScanBatches(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := collect(t, it)
			if len(got) != len(c.order) || tr.Len() != len(c.order) {
				t.Fatalf("scan returned %d tuples, Len %d; want %d", len(got), tr.Len(), len(c.order))
			}
			for i, tp := range got {
				if k := int64(i + 1); tp.Vals[0].Int() != k || len(tp.Vals[1].Str()) != c.width[k] {
					t.Fatalf("position %d: key %v, %d bytes of string; want key %d, %d bytes", i, tp.Vals[0], len(tp.Vals[1].Str()), k, c.width[k])
				}
			}
			if n := tr.LeafPages(); n != c.leaves {
				t.Errorf("%d leaves, want %d", n, c.leaves)
			}
			if err := checkDirectory(tr); err != nil {
				t.Fatal(err)
			}
			tr.pool.AssertUnpinned(t)
		})
	}
}

// TestInternalSplitFitsBothHalves: an internal page splits at the
// separator nearest the middle where both halves fit, however unevenly
// its separators are sized. Clustered on a string column, ~1 900-byte
// keys among 5-byte ones make separators of which two fill a 4 000-byte
// page; a cut by count put three on one half and wrote 5 691 bytes over
// the frame.
func TestInternalSplitFitsBothHalves(t *testing.T) {
	d := storage.NewDisk(4000)
	tr, err := newTree(storage.NewArena(d, 64).NewPool(storage.NewMeter()), d.Open("s"), 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(38))
	var want []string
	for i := 0; i < 60; i++ {
		width := 4
		if rng.Intn(3) == 0 {
			width = 1800 + rng.Intn(151)
		}
		k := string(rune('a'+rng.Intn(26))) + strings.Repeat("k", width)
		if err := insert(tr, tuple.New(uint64(i+1), tuple.I(int64(i)), tuple.S(k))); err != nil {
			t.Fatal(err)
		}
		want = append(want, k)
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d: the script no longer splits an internal page", tr.Height())
	}
	sort.Strings(want)
	it, err := tr.ScanBatches(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, it)
	if len(got) != len(want) {
		t.Fatalf("scan returned %d tuples, want %d", len(got), len(want))
	}
	for i, tp := range got {
		if tp.Vals[1].Str() != want[i] {
			t.Fatalf("position %d: a key of %d bytes, want one of %d", i, len(tp.Vals[1].Str()), len(want[i]))
		}
		if _, ok, err := tr.Get(tp.Vals[1], tp.ID); err != nil || !ok {
			t.Fatalf("Get of the key at position %d: found %v, %v", i, ok, err)
		}
	}
	if err := checkDirectory(tr); err != nil {
		t.Fatal(err)
	}
	tr.pool.AssertUnpinned(t)
}

// TestInternalSizeCountsFitTheHeader: an internal page counts its
// children in 16 bits, so a node of more fits no page.
func TestInternalSizeCountsFitTheHeader(t *testing.T) {
	n := &internalNode{children: make([]storage.PageNum, 1<<16), seps: make([]key, 1<<16-1)}
	if sz := internalSize(n); sz <= 4<<20 {
		t.Fatalf("%d children: size %d admits a 4 MiB page", len(n.children), sz)
	}
}

func TestStringKeys(t *testing.T) {
	d := storage.NewDisk(256)
	p := storage.NewArena(d, 64).NewPool(storage.NewMeter())
	tr, err := newTree(p, d.Open("s"), 1) // cluster on column 1 (string)
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"pear", "apple", "fig", "banana", "cherry", "date", "elderberry", "grape"}
	for i, w := range words {
		if err := insert(tr, tuple.New(uint64(i+1), tuple.I(int64(i)), tuple.S(w))); err != nil {
			t.Fatal(err)
		}
	}
	it, _ := tr.ScanBatches(nil, nil)
	got := collect(t, it)
	want := append([]string(nil), words...)
	sort.Strings(want)
	for i, tp := range got {
		if tp.Vals[1].Str() != want[i] {
			t.Fatalf("position %d: got %q want %q", i, tp.Vals[1].Str(), want[i])
		}
	}
}

// Property: after any interleaving of inserts and deletes, a full scan
// returns exactly the live set in sorted order.
func TestPropertyInsertDeleteScan(t *testing.T) {
	fn := func(ops []int16) bool {
		tr, _ := newTestTree(t, 160, 256)
		live := map[uint64]int64{}
		nextID := uint64(1)
		for _, op := range ops {
			k := int64(op % 64)
			if op >= 0 { // insert
				if err := insert(tr, mk(nextID, k)); err != nil {
					return false
				}
				live[nextID] = k
				nextID++
			} else { // delete a random live tuple with this key, if any
				for id, lk := range live {
					if lk == k {
						_, ok, err := deleteRow(tr, tuple.I(k), id)
						if err != nil || !ok {
							return false
						}
						delete(live, id)
						break
					}
				}
			}
		}
		it, err := tr.ScanBatches(nil, nil)
		if err != nil {
			return false
		}
		got := collect(t, it)
		if len(got) != len(live) {
			return false
		}
		prev := int64(-1 << 62)
		for _, tp := range got {
			k := tp.Vals[0].Int()
			if k < prev {
				return false
			}
			prev = k
			if live[tp.ID] != k {
				return false
			}
			delete(live, tp.ID)
		}
		return len(live) == 0
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: range scans agree with filtering a full scan.
func TestPropertyRangeScanAgreesWithFilter(t *testing.T) {
	tr, _ := newTestTree(t, 160, 256)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		if err := insert(tr, mk(uint64(i+1), int64(rng.Intn(100)))); err != nil {
			t.Fatal(err)
		}
	}
	itAll, _ := tr.ScanBatches(nil, nil)
	all := collect(t, itAll)
	fn := func(a, b int8, inc uint8) bool {
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		rg := pred.NewRange(tuple.I(lo), tuple.I(hi), inc&1 == 0, inc&2 == 0)
		it, err := tr.ScanBatches(rg, nil)
		if err != nil {
			return false
		}
		got := collect(t, it)
		var want int
		for _, tp := range all {
			if rg.Contains(tp.Vals[0]) {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGetCold(b *testing.B) {
	tr, _ := newTestTree(b, 4000, 256)
	for i := 0; i < 100000; i++ {
		if err := insert(tr, mk(uint64(i+1), int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.pool.Close()
		k := int64(i % 100000)
		if _, ok, err := tr.Get(tuple.I(k), uint64(k+1)); err != nil || !ok {
			b.Fatal("miss")
		}
	}
}

func TestTreeKeyCol(t *testing.T) {
	tr, _ := newTestTree(t, 256, 16)
	if tr.KeyCol() != 0 {
		t.Errorf("KeyCol = %d", tr.KeyCol())
	}
}

// TestDecodeInternalRejectsDamage: pages come from snapshot files, so an
// internal page is checked like any other input — a child pointer that
// runs off the page is an error, not a panic, and a page that is not an
// internal page is not descended through.
func TestDecodeInternalRejectsDamage(t *testing.T) {
	// Two children; the separator's string value is sized so the key
	// ends exactly at the page end and child 1 has no bytes left.
	page := make([]byte, 256)
	const strLen = 256 - internalHeader - 4 - (1 + 4) - 8
	encodeInternal(page, &internalNode{
		children: []storage.PageNum{1, 2},
		seps:     []key{{val: tuple.S(strings.Repeat("k", strLen-4)), id: 9}},
	})
	if _, err := decodeInternal(page); err != nil {
		t.Fatalf("well-formed internal page: %v", err)
	}
	binary.BigEndian.PutUint32(page[internalHeader+4+1:], strLen) // key grows over child 1
	if _, err := decodeInternal(page); err == nil || !strings.Contains(err.Error(), "btree: ") {
		t.Errorf("child pointer past the page end: err = %v", err)
	}

	tr, _ := newTestTree(t, 256, 64)
	for i := int64(0); i < 100; i++ {
		if err := insert(tr, mk(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		t.Fatal("fixture has no internal page")
	}
	leaf, err := tr.findLeaf(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pn := range []storage.PageNum{leaf, tr.root} {
		fr, err := tr.pool.Get(tr.file, pn)
		if err != nil {
			t.Fatal(err)
		}
		if pn == tr.root {
			fr.Data[0] = 9 // neither a leaf nor an internal page
			fr.MarkDirty()
		}
		_, derr := decodeInternal(fr.Data)
		if err := tr.pool.Release(fr); err != nil {
			t.Fatal(err)
		}
		if derr == nil || !strings.Contains(derr.Error(), "not an internal page") {
			t.Errorf("decodeInternal of page %d: err = %v", pn, derr)
		}
	}
	if _, _, err := tr.Get(tuple.I(5), 6); err == nil || !strings.Contains(err.Error(), "not an internal page") {
		t.Errorf("descent through a root of type 9: err = %v", err)
	}
}

// TestDescentRejectsCorruptInternalPages: a descent binary-searches the
// node kept beside an internal page's image (childFor), and the node is
// made by decodeInternal, which checks the whole page before any probe
// is searched — so a damaged root fails every descent through it with
// an error, whatever the probe, never a panic, and leaves no pin behind.
func TestDescentRejectsCorruptInternalPages(t *testing.T) {
	// The root's first separator starts after the header and child 0.
	const sep0 = internalHeader + 4
	cases := []struct {
		name   string
		damage func(page []byte, used int)
		want   string
	}{
		{"not an internal page", func(page []byte, _ int) { page[0] = 9 }, "not an internal page"},
		{"zero children", func(page []byte, _ int) { binary.BigEndian.PutUint16(page[1:], 0) }, "with 0 children"},
		{"bad value tag", func(page []byte, _ int) { page[sep0] = 0xEE }, "unknown value tag"},
		// An int separator retagged as a string whose length runs off the page.
		{"truncated separator", func(page []byte, _ int) {
			page[sep0] = byte(tuple.String)
			binary.BigEndian.PutUint32(page[sep0+1:], 0xFFFF)
		}, "truncated string payload"},
		// One more child than the page holds: a string separator that ends
		// three bytes before the page does, leaving no room for its child.
		{"child pointer past the page", func(page []byte, used int) {
			binary.BigEndian.PutUint16(page[1:], binary.BigEndian.Uint16(page[1:])+1)
			page[used] = byte(tuple.String)
			binary.BigEndian.PutUint32(page[used+1:], uint32(len(page)-used-1-4-8-3))
		}, "truncated at child"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, _ := newTestTree(t, 256, 64)
			for i := int64(0); i < 100; i++ {
				if err := insert(tr, mk(uint64(i+1), i)); err != nil {
					t.Fatal(err)
				}
			}
			if tr.Height() < 2 {
				t.Fatal("fixture has no internal page")
			}
			fr, err := tr.pool.Get(tr.file, tr.root)
			if err != nil {
				t.Fatal(err)
			}
			in, err := decodeInternal(fr.Data)
			if err != nil {
				t.Fatal(err)
			}
			c.damage(fr.Data, internalSize(in))
			fr.MarkDirty()
			if err := tr.pool.Release(fr); err != nil {
				t.Fatal(err)
			}
			check := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s: err = %v, want one naming %q", what, err, c.want)
				}
			}
			for _, k := range []*key{nil, {val: tuple.I(-1)}, {val: tuple.I(50), id: 51}, {val: tuple.I(1 << 40)}} {
				_, err := tr.findLeaf(k)
				check(fmt.Sprintf("findLeaf(%v)", k), err)
			}
			check("Insert", insert(tr, mk(1000, 7)))
			_, _, err = deleteRow(tr, tuple.I(99), 100)
			check("Delete", err)
			_, err = tr.ApplyRun([]tuple.Tuple{mk(1, 0), mk(1001, 0)}, []int8{-1, 1}, -1, nil)
			check("ApplyRun", err)
			tr.pool.AssertUnpinned(t)
		})
	}
}

// TestFindLeafAllocations: a descent through a tree of height ≥ 3
// binary-searches the nodes kept beside its internal pages' images, so
// once they are kept it allocates nothing — the check every test binary
// makes of each kept node included.
func TestFindLeafAllocations(t *testing.T) {
	tr, _ := newTestTree(t, 256, 1024)
	for i := int64(0); i < 2000; i++ {
		if err := insert(tr, mk(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d, want ≥ 3", tr.Height())
	}
	k := key{val: tuple.I(1234), id: 1235}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := tr.findLeaf(&k); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations a descent of height %d", allocs, tr.Height())
	if allocs != 0 {
		t.Errorf("findLeaf allocated %.0f objects, want 0", allocs)
	}
}

// TestLeafEditAllocations pins what one leaf edit allocates on a warm
// tree — an insert, a delete, and an update that stays in its leaf (the
// pair of its delete and insert, one ApplyRun), none of them splitting
// one: the edit decodes the leaf onto lanes the tree reuses, splices one
// row and encodes the lanes back. An edit that boxed
// the whole page again would show here: while edits decoded the leaf to
// tuples, the three allocated 12, 11 and 15 objects. The bounds are
// today's counts: they may fall, and must not rise.
func TestLeafEditAllocations(t *testing.T) {
	tr, _ := newTestTree(t, 1024, 256)
	for i := int64(0); i < 2000; i++ {
		if err := insert(tr, mk(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	leaves := tr.LeafPages()
	// Each run edits rows of key 1000 with ids after its own (1001), which
	// land in its leaf: eleven of them (AllocsPerRun's warm-up and ten
	// runs) fit beside its rows.
	ins, del, upd := uint64(100000), uint64(100000), 0
	gone, minus := []tuple.Tuple{tuple.New(0, tuple.I(1000))}, []int8{-1}
	var cut []tuple.Tuple
	for _, op := range []struct {
		name      string
		max, race float64 // the race detector's count, which wanders by one
		run       func() error
	}{
		{"insert", 4, 10, func() error { ins++; return insert(tr, mk(ins, 1000)) }},
		{"delete", 5, 9, func() error {
			del++
			gone[0].ID = del
			_, err := tr.ApplyRun(gone, minus, -1, &cut)
			cut = cut[:0]
			return err
		}},
		{"update", 10, 17, func() error {
			upd++
			_, err := tr.ApplyRun([]tuple.Tuple{tuple.New(1001, tuple.I(1000)), tuple.New(1001, tuple.I(1000), tuple.S(fmt.Sprint("payload", upd%2)))}, []int8{-1, 1}, -1, nil)
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
		t.Logf("%.0f allocations a leaf %s (race detector: %v)", allocs, op.name, raceEnabled())
		if allocs > max {
			t.Errorf("a leaf %s allocated %.0f objects, want at most %.0f", op.name, allocs, max)
		}
	}
	if got := tr.LeafPages(); got != leaves {
		t.Fatalf("the edits split a leaf: %d leaves, then %d", leaves, got)
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

// testTree is a Tree driven through one pool, as one operation drives
// it: the page-touching methods take the pool the test gave the tree.
type testTree struct {
	*Tree
	pool *storage.Pool
}

func newTree(p *storage.Pool, file *storage.File, keyCol int) (*testTree, error) {
	tr, err := New(p, file, keyCol)
	if err != nil {
		return nil, err
	}
	return &testTree{tr, p}, nil
}

func openTree(p *storage.Pool, file *storage.File, keyCol int, m Meta) (*testTree, error) {
	tr, err := Open(file, keyCol, m)
	if err != nil {
		return nil, err
	}
	return &testTree{tr, p}, nil
}

func (t *testTree) ApplyRun(rows []tuple.Tuple, signs []int8, countCol int, cut *[]tuple.Tuple) (int, error) {
	return t.Tree.ApplyRun(t.pool, rows, signs, countCol, cut)
}

func (t *testTree) Get(val tuple.Value, id uint64) (tuple.Tuple, bool, error) {
	return t.Tree.Get(t.pool, val, id, true)
}

func (t *testTree) ScanBatches(rg *pred.Range, prune []colpage.Atom) (*colpage.Scan, error) {
	return t.Tree.ScanBatches(t.pool, rg, prune)
}

func (t *testTree) ScanAll(prune []colpage.Atom) (*colpage.Scan, error) {
	return t.Tree.ScanAll(t.pool, prune)
}

func (t *testTree) findLeaf(k *key) (storage.PageNum, error) { return t.Tree.findLeaf(t.pool, k) }
