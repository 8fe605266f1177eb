package relation

import (
	"fmt"
	"testing"

	"viewmat/internal/colpage"
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

// TestLookupsReadKeptLanes: point lookups and the secondary pointer walk
// read a clean B+-tree's leaves through their kept lanes (colpage's
// kept lanes): the first lookups build them, the same lookups again
// build none, reuse every one and charge the same, and lookups while a
// write holds a dirty frame of the files keep and use none. Every answer
// is the one the inserted rows give.
func TestLookupsReadKeptLanes(t *testing.T) {
	d, p, m := testEnv(t)
	r, err := newBTree(d, p, "emp", empSchema(), 0) // clustered on dept
	if err != nil {
		t.Fatal(err)
	}
	var rows []tuple.Tuple
	for i := int64(0); i < 400; i++ {
		tp := emp(uint64(i+1), i%40, fmt.Sprintf("e%d", i%9), 1000+i)
		if err := insert(r, tp); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, tp)
	}
	if err := r.AddSecondary(2); err != nil { // salary
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	const lo, hi = 1100, 1180 // salaries of the secondary lookup
	count := func(dept int64, sal bool) (n int) {
		for _, tp := range rows {
			if s := tp.Vals[2].Int(); sal && s >= lo && s < hi || !sal && tp.Vals[0].Int() == dept {
				n++
			}
		}
		return n
	}
	type pass struct{ reads, built, reused int64 }
	lookups := func() pass {
		t.Helper()
		b0, r0 := colpage.KeptLanes()
		before := m.Snapshot()
		for dept := int64(0); dept < 40; dept += 3 {
			if got, err := r.LookupKey(tuple.I(dept)); err != nil || len(got) != count(dept, false) {
				t.Fatalf("LookupKey(%d): %d rows, err %v; want %d", dept, len(got), err, count(dept, false))
			}
		}
		if got, err := r.LookupSecondary(2, pred.NewRange(tuple.I(lo), tuple.I(hi), true, false)); err != nil || len(got) != count(0, true) {
			t.Fatalf("LookupSecondary: %d rows, err %v; want %d", len(got), err, count(0, true))
		}
		b1, r1 := colpage.KeptLanes()
		return pass{m.Snapshot().Sub(before).Reads, b1 - b0, r1 - r0}
	}
	first := lookups()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	second := lookups()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if first.built == 0 || second.built != 0 || second.reused != first.built+first.reused || second.reads != first.reads {
		t.Fatalf("first lookups: %+v; second: %+v", first, second)
	}

	extra := emp(401, 39, "x", 5000) // dirties a leaf of each file
	if err := insert(r, extra); err != nil {
		t.Fatal(err)
	}
	rows = append(rows, extra)
	if dirty := lookups(); dirty.built != 0 || dirty.reused != 0 {
		t.Fatalf("lookups over dirty frames: %+v", dirty)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p.AssertUnpinned(t)
}
