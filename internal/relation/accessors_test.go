package relation

import (
	"testing"

	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

func TestAccessorsBTree(t *testing.T) {
	d, p, _ := testEnv(t)
	r, err := newBTree(d, p, "emp", empSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "emp" {
		t.Errorf("Name = %q", r.Name())
	}
	if r.Schema() == nil || len(r.Schema().Cols) != 3 {
		t.Errorf("Schema = %v", r.Schema())
	}
	if r.KeyCol() != 0 {
		t.Errorf("KeyCol = %d", r.KeyCol())
	}
	if r.Kind() != ClusteredBTree {
		t.Errorf("Kind = %v", r.Kind())
	}
	if r.Len() != 0 || r.Pages() != 1 {
		t.Errorf("empty relation Len=%d Pages=%d", r.Len(), r.Pages())
	}
	if r.IndexHeight() != 0 {
		t.Errorf("empty B+-tree IndexHeight = %d", r.IndexHeight())
	}
}

func TestAccessorsHash(t *testing.T) {
	d, p, _ := testEnv(t)
	r, err := newHash(d, p, "dept", empSchema(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind() != ClusteredHash {
		t.Errorf("Kind = %v", r.Kind())
	}
	if r.IndexHeight() != 1 {
		t.Errorf("hash IndexHeight = %d, want 1 (directory probe)", r.IndexHeight())
	}
	for i := int64(0); i < 12; i++ {
		if err := insert(r, emp(uint64(i+1), i, "d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 12 {
		t.Errorf("Len = %d", r.Len())
	}
	if r.Pages() < 4 {
		t.Errorf("Pages = %d", r.Pages())
	}
	// Delete and Get through the hash paths.
	tp, ok, err := deleteRow(r, tuple.I(5), 6)
	if err != nil || !ok || tp.Vals[0].Int() != 5 {
		t.Errorf("hash Delete = %v ok=%v err=%v", tp, ok, err)
	}
	if _, ok, _ := r.Get(tuple.I(5), 6); ok {
		t.Error("hash Get found deleted tuple")
	}
	if _, ok, _ := deleteRow(r, tuple.I(5), 6); ok {
		t.Error("hash double delete succeeded")
	}
}

func TestLookupKeyOnBTree(t *testing.T) {
	d, p, _ := testEnv(t)
	r, _ := newBTree(d, p, "emp", empSchema(), 0)
	for i := int64(0); i < 9; i++ {
		if err := insert(r, emp(uint64(i+1), i%3, "e", i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.LookupKey(tuple.I(1))
	if err != nil || len(got) != 3 {
		t.Errorf("LookupKey via B+-tree = %d tuples, err %v", len(got), err)
	}
}

func TestIterStreams(t *testing.T) {
	d, p, _ := testEnv(t)
	r, _ := newBTree(d, p, "emp", empSchema(), 0)
	for i := int64(0); i < 25; i++ {
		if err := insert(r, emp(uint64(i+1), i, "e", i)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := r.IterBatches(pred.NewRange(tuple.I(5), tuple.I(9), true, true), nil)
	if err != nil {
		t.Fatal(err)
	}
	n, fills := 0, 0
	for !it.Done() {
		b := &vec.Batch{}
		if err := it.Fill(b, 2); err != nil {
			t.Fatal(err)
		}
		n += b.NumRows()
		fills++
	}
	if n != 5 || fills < 3 {
		t.Errorf("IterBatches yielded %d rows in %d fills, want 5 rows two at a time", n, fills)
	}
	// IterBatches on a hash relation errors.
	h, _ := newHash(d, p, "h", empSchema(), 0, 2)
	if _, err := h.IterBatches(nil, nil); err == nil {
		t.Error("IterBatches on hash relation succeeded")
	}
}

func TestDeleteOfAbsent(t *testing.T) {
	d, p, _ := testEnv(t)
	r, _ := newBTree(d, p, "emp", empSchema(), 0)
	if _, ok, err := deleteRow(r, tuple.I(1), 1); ok || err != nil {
		t.Errorf("delete of absent: ok=%v err=%v", ok, err)
	}
}

func TestStatsStringer(t *testing.T) {
	s := storage.Stats{Reads: 1, Writes: 2, Screens: 3, ADTouches: 4}
	if got := s.String(); got != "reads=1 writes=2 screens=3 adTouches=4" {
		t.Errorf("Stats.String() = %q", got)
	}
}
