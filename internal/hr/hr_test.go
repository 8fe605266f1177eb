package hr

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"viewmat/internal/btree"
	"viewmat/internal/relation"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

func testHR(t testing.TB) (*HR, *relation.Relation, *storage.Meter, *storage.Pool) {
	t.Helper()
	d := storage.NewDisk(512)
	m := storage.NewMeter()
	p := storage.NewPool(d, m, 128)
	sch := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("v", tuple.Int))
	base, err := relation.NewBTree(d, p, "r", sch, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(d, p, base, Config{ADBuckets: 2, BloomKeys: 256})
	if err != nil {
		t.Fatal(err)
	}
	return h, base, m, p
}

func row(id uint64, k, v int64) tuple.Tuple {
	return tuple.New(id, tuple.I(k), tuple.I(v))
}

// appendRow records the insertion of tp: an ApplyRun of one insert.
func appendRow(h *HR, tp tuple.Tuple) error {
	_, err := h.ApplyRun([]tuple.Tuple{tp}, nil, nil)
	return err
}

// deleteRow records the deletion of the visible tuple (key, id), an
// ApplyRun of one delete, and returns the version it recorded, reporting
// whether the tuple was visible.
func deleteRow(h *HR, key tuple.Value, id uint64) (tuple.Tuple, bool, error) {
	var cut []tuple.Tuple
	_, err := h.ApplyRun([]tuple.Tuple{tuple.New(id, key)}, []int8{-1}, &cut)
	if errors.Is(err, btree.ErrAbsent) {
		return tuple.Tuple{}, false, nil
	}
	if err != nil {
		return tuple.Tuple{}, false, err
	}
	return cut[0], true, nil
}

// update replaces the visible tuple (key, id) with newTp as the pair of
// its delete and newTp's insert, one ApplyRun, and returns the version
// the delete recorded.
func update(h *HR, key tuple.Value, id uint64, newTp tuple.Tuple) (tuple.Tuple, error) {
	var cut []tuple.Tuple
	_, err := h.ApplyRun([]tuple.Tuple{tuple.New(id, key), newTp}, []int8{-1, 1}, &cut)
	if err != nil {
		return tuple.Tuple{}, err
	}
	return cut[0], nil
}

func TestAppendVisibleThroughHR(t *testing.T) {
	h, base, _, _ := testHR(t)
	if err := appendRow(h, row(1, 10, 100)); err != nil {
		t.Fatal(err)
	}
	// Not yet in the base...
	if _, ok, _ := base.Get(tuple.I(10), 1); ok {
		t.Error("append leaked into base before fold")
	}
	// ...but visible through the HR.
	got, err := h.ReadKey(tuple.I(10))
	if err != nil || len(got) != 1 || got[0].Vals[1].Int() != 100 {
		t.Errorf("ReadKey = %v err=%v", got, err)
	}
}

// TestSignedZeroKeyThroughBloom: a row appended under key −0 is read,
// fetched and deleted through the HR under +0, which tuple.Equal
// matches; the Bloom filter once keyed −0 apart and hid the AD entry.
func TestSignedZeroKeyThroughBloom(t *testing.T) {
	d := storage.NewDisk(512)
	p := storage.NewPool(d, storage.NewMeter(), 128)
	base, err := relation.NewBTree(d, p, "r", tuple.NewSchema(tuple.Col("k", tuple.Float), tuple.Col("v", tuple.Int)), 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(d, p, base, Config{ADBuckets: 2, BloomKeys: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRow(h, tuple.New(1, tuple.F(math.Copysign(0, -1)), tuple.I(100))); err != nil {
		t.Fatal(err)
	}
	if got, err := h.ReadKey(tuple.F(0)); err != nil || len(got) != 1 {
		t.Errorf("ReadKey(+0) of a row keyed −0 = %v, %v", got, err)
	}
	if _, ok, err := deleteRow(h, tuple.F(0), 1); err != nil || !ok {
		t.Errorf("Delete(+0, 1) of a row keyed −0: ok=%v err=%v", ok, err)
	}
}

func TestDeleteHidesBaseTuple(t *testing.T) {
	h, base, _, _ := testHR(t)
	if err := base.Insert(row(1, 10, 100)); err != nil {
		t.Fatal(err)
	}
	old, ok, err := deleteRow(h, tuple.I(10), 1)
	if err != nil || !ok {
		t.Fatalf("Delete: ok=%v err=%v", ok, err)
	}
	if old.Vals[1].Int() != 100 {
		t.Errorf("deleted value = %v", old)
	}
	if got, _ := h.ReadKey(tuple.I(10)); len(got) != 0 {
		t.Errorf("deleted tuple still visible: %v", got)
	}
	// Base still physically holds it until Fold.
	if _, ok, _ := base.Get(tuple.I(10), 1); !ok {
		t.Error("base tuple physically removed before fold")
	}
}

func TestDeleteOfAbsentTuple(t *testing.T) {
	h, _, _, _ := testHR(t)
	if _, ok, err := deleteRow(h, tuple.I(99), 1); err != nil || ok {
		t.Errorf("delete of absent: ok=%v err=%v", ok, err)
	}
}

func TestUpdateOldToDNewToA(t *testing.T) {
	h, _, _, _ := testHR(t)
	if err := h.Base().Insert(row(1, 10, 100)); err != nil {
		t.Fatal(err)
	}
	old, err := update(h, tuple.I(10), 1, row(2, 10, 200))
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if old.Vals[1].Int() != 100 {
		t.Errorf("old = %v", old)
	}
	got, _ := h.ReadKey(tuple.I(10))
	if len(got) != 1 || got[0].Vals[1].Int() != 200 || got[0].ID != 2 {
		t.Errorf("post-update visible = %v", got)
	}
	anet, dnet, err := h.NetChanges()
	if err != nil {
		t.Fatal(err)
	}
	if len(anet) != 1 || anet[0].ID != 2 {
		t.Errorf("A-net = %v", anet)
	}
	if len(dnet) != 1 || dnet[0].ID != 1 {
		t.Errorf("D-net = %v", dnet)
	}
}

func TestAppendThenDeleteCancels(t *testing.T) {
	h, _, _, _ := testHR(t)
	if err := appendRow(h, row(1, 10, 100)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := deleteRow(h, tuple.I(10), 1); err != nil || !ok {
		t.Fatalf("delete of epoch-appended tuple: ok=%v err=%v", ok, err)
	}
	anet, dnet, err := h.NetChanges()
	if err != nil {
		t.Fatal(err)
	}
	if len(anet) != 0 || len(dnet) != 0 {
		t.Errorf("append+delete should cancel: A-net=%v D-net=%v", anet, dnet)
	}
	if got, _ := h.ReadKey(tuple.I(10)); len(got) != 0 {
		t.Errorf("cancelled tuple visible: %v", got)
	}
}

func TestUpdateOfEpochAppendedTuple(t *testing.T) {
	h, _, _, _ := testHR(t)
	appendRow(h, row(1, 10, 100))
	if _, err := update(h, tuple.I(10), 1, row(2, 10, 200)); err != nil {
		t.Fatalf("update of epoch append: %v", err)
	}
	anet, dnet, _ := h.NetChanges()
	if len(anet) != 1 || anet[0].ID != 2 {
		t.Errorf("A-net = %v", anet)
	}
	if len(dnet) != 0 {
		t.Errorf("D-net should be empty (tuple never in R): %v", dnet)
	}
}

func TestFoldAppliesAndResets(t *testing.T) {
	h, base, _, _ := testHR(t)
	base.Insert(row(1, 1, 10))
	base.Insert(row(2, 2, 20))
	appendRow(h, row(3, 3, 30))
	deleteRow(h, tuple.I(1), 1)
	update(h, tuple.I(2), 2, row(4, 2, 25))

	if err := h.Fold(); err != nil {
		t.Fatal(err)
	}
	if h.ADLen() != 0 {
		t.Errorf("AD not empty after fold: %d", h.ADLen())
	}
	if h.Filter().Len() != 0 {
		t.Error("bloom filter not reset after fold")
	}
	if base.Len() != 2 {
		t.Errorf("base Len = %d, want 2", base.Len())
	}
	if _, ok, _ := base.Get(tuple.I(1), 1); ok {
		t.Error("deleted tuple survived fold")
	}
	if tp, ok, _ := base.Get(tuple.I(2), 4); !ok || tp.Vals[1].Int() != 25 {
		t.Error("updated tuple not in base after fold")
	}
	if _, ok, _ := base.Get(tuple.I(3), 3); !ok {
		t.Error("appended tuple not in base after fold")
	}
}

func TestBloomFastPathSkipsAD(t *testing.T) {
	h, base, m, p := testHR(t)
	for i := int64(0); i < 50; i++ {
		base.Insert(row(uint64(i+1), i, i))
	}
	// Touch key 1 only.
	update(h, tuple.I(1), 2, row(100, 1, 99))

	p.EvictAll()
	before := m.Snapshot()
	if _, err := h.ReadKey(tuple.I(30)); err != nil { // untouched key
		t.Fatal(err)
	}
	cold := m.Snapshot().Sub(before)

	p.EvictAll()
	before = m.Snapshot()
	if _, err := h.ReadKey(tuple.I(1)); err != nil { // touched key
		t.Fatal(err)
	}
	touched := m.Snapshot().Sub(before)

	if cold.Reads >= touched.Reads {
		t.Errorf("bloom fast path: untouched key %d reads, touched key %d reads", cold.Reads, touched.Reads)
	}
}

func TestNetChangesEmptyEpoch(t *testing.T) {
	h, _, _, _ := testHR(t)
	anet, dnet, err := h.NetChanges()
	if err != nil || len(anet) != 0 || len(dnet) != 0 {
		t.Errorf("empty epoch: A=%v D=%v err=%v", anet, dnet, err)
	}
	if err := h.Fold(); err != nil {
		t.Errorf("fold of empty epoch: %v", err)
	}
}

func TestRepeatedEpochs(t *testing.T) {
	h, base, _, _ := testHR(t)
	id := uint64(1)
	for epoch := 0; epoch < 5; epoch++ {
		for i := 0; i < 10; i++ {
			if err := appendRow(h, row(id, int64(id), int64(epoch))); err != nil {
				t.Fatal(err)
			}
			id++
		}
		if err := h.Fold(); err != nil {
			t.Fatalf("fold %d: %v", epoch, err)
		}
	}
	if base.Len() != 50 {
		t.Errorf("base Len = %d, want 50", base.Len())
	}
}

// Property: for any interleaving of appends, deletes and updates, the
// visible contents through the HR before Fold equal the base contents
// after Fold.
func TestPropertyFoldPreservesVisibleState(t *testing.T) {
	fn := func(ops []uint8) bool {
		h, base, _, _ := testHR(t)
		nextID := uint64(1)
		// Seed base.
		for i := int64(0); i < 8; i++ {
			if err := base.Insert(row(nextID, i, i*10)); err != nil {
				return false
			}
			nextID++
		}
		live := map[uint64]int64{} // id -> key
		for i := int64(0); i < 8; i++ {
			live[uint64(i+1)] = i
		}
		for _, op := range ops {
			k := int64(op % 8)
			switch op % 3 {
			case 0: // append
				if err := appendRow(h, row(nextID, k, int64(op))); err != nil {
					return false
				}
				live[nextID] = k
				nextID++
			case 1: // delete some live tuple with key k
				for id, lk := range live {
					if lk == k {
						if _, ok, err := deleteRow(h, tuple.I(k), id); err != nil || !ok {
							return false
						}
						delete(live, id)
						break
					}
				}
			case 2: // update some live tuple with key k
				for id, lk := range live {
					if lk == k {
						if _, err := update(h, tuple.I(k), id, row(nextID, k, int64(op)+1000)); err != nil {
							return false
						}
						delete(live, id)
						live[nextID] = k
						nextID++
						break
					}
				}
			}
		}
		// Visible state before fold.
		visible := map[uint64]bool{}
		for k := int64(0); k < 8; k++ {
			tuples, err := h.ReadKey(tuple.I(k))
			if err != nil {
				return false
			}
			for _, tp := range tuples {
				visible[tp.ID] = true
			}
		}
		if len(visible) != len(live) {
			return false
		}
		for id := range live {
			if !visible[id] {
				return false
			}
		}
		if err := h.Fold(); err != nil {
			return false
		}
		if base.Len() != len(live) {
			return false
		}
		for id, k := range live {
			if _, ok, err := base.Get(tuple.I(k), id); err != nil || !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHRUpdate(b *testing.B) {
	h, base, _, _ := testHR(b)
	n := 1000
	for i := 0; i < n; i++ {
		base.Insert(row(uint64(i+1), int64(i), 0))
	}
	id := uint64(n + 1)
	cur := make([]uint64, n)
	for i := range cur {
		cur[i] = uint64(i + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % n
		if _, err := update(h, tuple.I(int64(k)), cur[k], row(id, int64(k), int64(i))); err != nil {
			b.Fatal(fmt.Sprintf("update: %v", err))
		}
		cur[k] = id
		id++
		if (i+1)%500 == 0 {
			if err := h.Fold(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestHRADPagesAndBase(t *testing.T) {
	h, base, _, _ := testHR(t)
	if h.Base() != base {
		t.Error("Base() mismatch")
	}
	if h.ADPages() < 1 {
		t.Errorf("ADPages = %d", h.ADPages())
	}
	before := h.ADPages()
	for i := int64(0); i < 100; i++ {
		if err := appendRow(h, row(uint64(i+1), i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if h.ADPages() <= before {
		t.Error("AD did not grow")
	}
}

func TestHRAppendValidatesSchema(t *testing.T) {
	h, _, _, _ := testHR(t)
	if err := appendRow(h, tuple.New(1, tuple.I(1))); err == nil {
		t.Error("wrong-arity append accepted")
	}
	if err := h.Base().Insert(row(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := update(h, tuple.I(1), 1, tuple.New(2, tuple.I(1))); err == nil {
		t.Error("wrong-arity update accepted")
	}
	if h.ADLen() != 0 {
		t.Errorf("a refused update recorded %d AD entries", h.ADLen())
	}
}

func TestHRFoldWithMissingBaseTuple(t *testing.T) {
	h, _, _, _ := testHR(t)
	// A fabricated D-net entry for a tuple the base never held.
	err := h.FoldWith(nil, []tuple.Tuple{row(99, 1, 1)})
	if err == nil {
		t.Error("fold of phantom deletion succeeded")
	}
}

func TestHRConfigDefaults(t *testing.T) {
	d := storage.NewDisk(256)
	p := storage.NewPool(d, storage.NewMeter(), 32)
	sch := tuple.NewSchema(tuple.Col("k", tuple.Int))
	base, err := relation.NewBTree(d, p, "b", sch, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(d, p, base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if h.Filter().Bits() == 0 {
		t.Error("default bloom not sized")
	}
}
