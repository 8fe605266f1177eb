package hr

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"viewmat/internal/btree"
	"viewmat/internal/colpage"
	"viewmat/internal/relation"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

func testHR(t testing.TB) (*testH, *baseRel, *storage.Meter, *storage.Pool) {
	t.Helper()
	d := storage.NewDisk(512)
	m := storage.NewMeter()
	p := storage.NewArena(d, 128).NewPool(m)
	sch := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("v", tuple.Int))
	base, err := newBase(d, p, "r", sch, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := newHR(d, p, base, Config{ADBuckets: 2, BloomKeys: 256})
	if err != nil {
		t.Fatal(err)
	}
	return h, base, m, p
}

func row(id uint64, k, v int64) tuple.Tuple {
	return tuple.New(id, tuple.I(k), tuple.I(v))
}

// insertBase inserts tp straight into the base relation: an ApplyRun
// of one insert.
func insertBase(r *baseRel, tp tuple.Tuple) error {
	_, err := r.ApplyRun([]tuple.Tuple{tp}, nil, -1, nil)
	return err
}

// scanBase returns every tuple the base relation stores.
func scanBase(r *baseRel) ([]tuple.Tuple, error) {
	batches, _, err := r.ScanAllBatches(0, nil)
	var out []tuple.Tuple
	for _, b := range batches {
		out = b.AppendTuples(out, 0)
	}
	return out, err
}

// appendRow records the insertion of tp: an ApplyRun of one insert.
func appendRow(h *testH, tp tuple.Tuple) error {
	_, err := h.ApplyRun([]tuple.Tuple{tp}, nil, nil)
	return err
}

// deleteRow records the deletion of the visible tuple (key, id), an
// ApplyRun of one delete, and returns the version it recorded, reporting
// whether the tuple was visible.
func deleteRow(h *testH, key tuple.Value, id uint64) (tuple.Tuple, bool, error) {
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

// fold applies the epoch's net changes to the base and resets the HR,
// as a deferred refresh does after consuming them.
func fold(h *testH) error {
	anet, dnet, err := h.NetChanges()
	if err != nil {
		return err
	}
	return h.FoldWith(anet, dnet)
}

// update replaces the visible tuple (key, id) with newTp as the pair of
// its delete and newTp's insert, one ApplyRun, and returns the version
// the delete recorded.
func update(h *testH, key tuple.Value, id uint64, newTp tuple.Tuple) (tuple.Tuple, error) {
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
	// ...but visible through the HR: the version a delete would find,
	// and A-net.
	got, ok, err := h.getVisible(tuple.I(10), 1)
	if err != nil || !ok || got.Vals[1].Int() != 100 {
		t.Errorf("getVisible = %v, %v err=%v", got, ok, err)
	}
	anet, dnet, err := h.NetChanges()
	if err != nil || len(anet) != 1 || anet[0].ID != 1 || len(dnet) != 0 {
		t.Errorf("A-net = %v, D-net = %v, err=%v", anet, dnet, err)
	}
}

// TestSignedZeroKeyThroughBloom: a row appended under key −0 is read,
// fetched and deleted through the HR under +0, which tuple.Equal
// matches; the Bloom filter once keyed −0 apart and hid the AD entry.
func TestSignedZeroKeyThroughBloom(t *testing.T) {
	d := storage.NewDisk(512)
	p := storage.NewArena(d, 128).NewPool(storage.NewMeter())
	base, err := newBase(d, p, "r", tuple.NewSchema(tuple.Col("k", tuple.Float), tuple.Col("v", tuple.Int)), 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := newHR(d, p, base, Config{ADBuckets: 2, BloomKeys: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRow(h, tuple.New(1, tuple.F(math.Copysign(0, -1)), tuple.I(100))); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := h.getVisible(tuple.F(0), 1); err != nil || !ok {
		t.Errorf("getVisible(+0, 1) of a row keyed −0 = %v, %v, %v", got, ok, err)
	}
	if _, ok, err := deleteRow(h, tuple.F(0), 1); err != nil || !ok {
		t.Errorf("Delete(+0, 1) of a row keyed −0: ok=%v err=%v", ok, err)
	}
}

func TestDeleteHidesBaseTuple(t *testing.T) {
	h, base, _, _ := testHR(t)
	if err := insertBase(base, row(1, 10, 100)); err != nil {
		t.Fatal(err)
	}
	old, ok, err := deleteRow(h, tuple.I(10), 1)
	if err != nil || !ok {
		t.Fatalf("Delete: ok=%v err=%v", ok, err)
	}
	if old.Vals[1].Int() != 100 {
		t.Errorf("deleted value = %v", old)
	}
	if got, ok, err := h.getVisible(tuple.I(10), 1); err != nil || ok {
		t.Errorf("deleted tuple still visible: %v err=%v", got, err)
	}
	if _, ok, err := deleteRow(h, tuple.I(10), 1); err != nil || ok {
		t.Errorf("second delete of the tuple: ok=%v err=%v", ok, err)
	}
	// Base still physically holds it until the fold.
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
	if err := insertBase(&baseRel{h.base, h.pool}, row(1, 10, 100)); err != nil {
		t.Fatal(err)
	}
	old, err := update(h, tuple.I(10), 1, row(2, 10, 200))
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if old.Vals[1].Int() != 100 {
		t.Errorf("old = %v", old)
	}
	if got, ok, err := h.getVisible(tuple.I(10), 2); err != nil || !ok || got.Vals[1].Int() != 200 {
		t.Errorf("post-update new version = %v, %v, %v", got, ok, err)
	}
	if got, ok, err := h.getVisible(tuple.I(10), 1); err != nil || ok {
		t.Errorf("post-update old version still visible: %v err=%v", got, err)
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
	if got, ok, err := h.getVisible(tuple.I(10), 1); err != nil || ok {
		t.Errorf("cancelled tuple visible: %v err=%v", got, err)
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
	insertBase(base, row(1, 1, 10))
	insertBase(base, row(2, 2, 20))
	appendRow(h, row(3, 3, 30))
	deleteRow(h, tuple.I(1), 1)
	update(h, tuple.I(2), 2, row(4, 2, 25))

	if err := fold(h); err != nil {
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

// TestBloomFastPathSkipsAD: the version a delete finds for a key the
// Bloom filter proves untouched is read from the base alone — the
// [Seve76] fast path; a touched key's lookup reads AD first.
func TestBloomFastPathSkipsAD(t *testing.T) {
	h, base, m, p := testHR(t)
	for i := int64(0); i < 50; i++ {
		insertBase(base, row(uint64(i+1), i, i))
	}
	insertBase(base, row(51, 1, 1)) // a second base tuple of key 1
	// Touch key 1 only.
	update(h, tuple.I(1), 2, row(100, 1, 99))

	reads := func(k int64, id uint64) int64 {
		t.Helper()
		p.Close()
		before := m.Snapshot()
		if _, ok, err := h.getVisible(tuple.I(k), id); err != nil || !ok {
			t.Fatalf("getVisible(%d, %d): ok=%v err=%v", k, id, ok, err)
		}
		return m.Snapshot().Sub(before).Reads
	}
	untouched := reads(30, 31)
	touched := reads(1, 51) // not in AD: the base is read after it
	if untouched >= touched {
		t.Errorf("bloom fast path: untouched key %d reads, touched key %d reads", untouched, touched)
	}
}

func TestNetChangesEmptyEpoch(t *testing.T) {
	h, _, _, _ := testHR(t)
	anet, dnet, err := h.NetChanges()
	if err != nil || len(anet) != 0 || len(dnet) != 0 {
		t.Errorf("empty epoch: A=%v D=%v err=%v", anet, dnet, err)
	}
	if err := fold(h); err != nil {
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
		if err := fold(h); err != nil {
			t.Fatalf("fold %d: %v", epoch, err)
		}
	}
	if base.Len() != 50 {
		t.Errorf("base Len = %d, want 50", base.Len())
	}
}

// Property: for any interleaving of appends, deletes and updates, the
// visible contents through the HR before the fold equal the base
// contents after it.
func TestPropertyFoldPreservesVisibleState(t *testing.T) {
	fn := func(ops []uint8) bool {
		h, base, _, _ := testHR(t)
		nextID := uint64(1)
		// Seed base.
		for i := int64(0); i < 8; i++ {
			if err := insertBase(base, row(nextID, i, i*10)); err != nil {
				return false
			}
			nextID++
		}
		live := map[uint64]int64{} // id -> key
		keys := map[uint64]int64{} // every id used -> its key
		for i := int64(0); i < 8; i++ {
			live[uint64(i+1)] = i
			keys[uint64(i+1)] = i
		}
		for _, op := range ops {
			k := int64(op % 8)
			switch op % 3 {
			case 0: // append
				if err := appendRow(h, row(nextID, k, int64(op))); err != nil {
					return false
				}
				live[nextID], keys[nextID] = k, k
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
						live[nextID], keys[nextID] = k, k
						nextID++
						break
					}
				}
			}
		}
		// Visible state before the fold: every id ever used is visible
		// exactly while it is live, and the base overlaid with the net
		// changes holds the live ids.
		for id := uint64(1); id < nextID; id++ {
			_, ok, err := h.getVisible(tuple.I(keys[id]), id)
			if _, live := live[id]; err != nil || ok != live {
				return false
			}
		}
		anet, dnet, err := h.NetChanges()
		if err != nil {
			return false
		}
		stored, err := scanBase(base)
		if err != nil {
			return false
		}
		visible := map[uint64]bool{}
		for _, tp := range stored {
			visible[tp.ID] = true
		}
		for _, tp := range dnet {
			delete(visible, tp.ID)
		}
		for _, tp := range anet {
			visible[tp.ID] = true
		}
		if len(visible) != len(live) {
			return false
		}
		for id := range live {
			if !visible[id] {
				return false
			}
		}
		if err := h.FoldWith(anet, dnet); err != nil {
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
		insertBase(base, row(uint64(i+1), int64(i), 0))
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
			if err := fold(h); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestHRAppendValidatesSchema(t *testing.T) {
	h, _, _, _ := testHR(t)
	if err := appendRow(h, tuple.New(1, tuple.I(1))); err == nil {
		t.Error("wrong-arity append accepted")
	}
	if err := insertBase(&baseRel{h.base, h.pool}, row(1, 1, 1)); err != nil {
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
	p := storage.NewArena(d, 32).NewPool(storage.NewMeter())
	sch := tuple.NewSchema(tuple.Col("k", tuple.Int))
	base, err := newBase(d, p, "b", sch, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := newHR(d, p, base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if h.Filter().Bits() == 0 {
		t.Error("default bloom not sized")
	}
}

// testH is an HR driven through one pool, as one operation drives it:
// the page-touching methods take the pool the test gave the HR.
type testH struct {
	*HR
	pool *storage.Pool
}

func newHR(d *storage.Disk, p *storage.Pool, base *baseRel, cfg Config) (*testH, error) {
	h, err := New(d, p, base.Relation, cfg)
	if err != nil {
		return nil, err
	}
	return &testH{h, p}, nil
}

func (h *testH) ApplyRun(rows []tuple.Tuple, signs []int8, cut *[]tuple.Tuple) (int, error) {
	return h.HR.ApplyRun(h.pool, rows, signs, cut)
}

func (h *testH) NetChanges() (anet, dnet []tuple.Tuple, err error) { return h.HR.NetChanges(h.pool) }

func (h *testH) FoldWith(anet, dnet []tuple.Tuple) error { return h.HR.FoldWith(h.pool, anet, dnet) }

func (h *testH) getVisible(keyVal tuple.Value, id uint64) (tuple.Tuple, bool, error) {
	return h.HR.getVisible(h.pool, keyVal, id)
}

// baseRel is the base relation under an HR, driven through the HR's pool.
type baseRel struct {
	*relation.Relation
	pool *storage.Pool
}

func newBase(d *storage.Disk, p *storage.Pool, name string, schema *tuple.Schema, keyCol int) (*baseRel, error) {
	r, err := relation.NewBTree(d, p, name, schema, keyCol)
	if err != nil {
		return nil, err
	}
	return &baseRel{r, p}, nil
}

func (r *baseRel) ApplyRun(tps []tuple.Tuple, signs []int8, countCol int, cut *[]tuple.Tuple) (int, error) {
	return r.Relation.ApplyRun(r.pool, tps, signs, countCol, cut)
}

func (r *baseRel) ScanAllBatches(size int, prune []colpage.Atom) ([]*vec.Batch, int64, error) {
	return r.Relation.ScanAllBatches(r.pool, size, prune)
}

func (r *baseRel) Get(keyVal tuple.Value, id uint64) (tuple.Tuple, bool, error) {
	return r.Relation.Get(r.pool, keyVal, id, true)
}

// TestDeleteBuildsNoKeptLanes: a delete finds its row's current version
// in the base without giving the base leaf kept lanes — the fold that
// applies the delete rewrites that leaf, so lanes built for it would go
// unread — and reads the lanes a reader kept there before.
func TestDeleteBuildsNoKeptLanes(t *testing.T) {
	h, base, _, p := testHR(t)
	for k := int64(0); k < 50; k++ {
		if err := insertBase(base, row(uint64(k+1), k, 10*k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil { // written back: the base file is clean
		t.Fatal(err)
	}
	del := func(k int64) (built, reused int64) {
		t.Helper()
		b0, r0 := colpage.KeptLanes()
		if got, ok, err := deleteRow(h, tuple.I(k), uint64(k+1)); err != nil || !ok || got.Vals[1].Int() != 10*k {
			t.Fatalf("delete of %d: %v, %v, %v", k, got, ok, err)
		}
		b1, r1 := colpage.KeptLanes()
		return b1 - b0, r1 - r0
	}
	if built, reused := del(20); built != 0 || reused != 0 {
		t.Fatalf("a delete over no kept lanes built %d and reused %d", built, reused)
	}
	if _, ok, err := base.Get(tuple.I(30), 31); err != nil || !ok { // a reader keeps the leaf's lanes
		t.Fatalf("Get: %v, %v", ok, err)
	}
	if built, reused := del(30); built != 0 || reused != 1 {
		t.Fatalf("a delete over kept lanes built %d and reused %d, want 0 and 1", built, reused)
	}
}
