package relation

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"viewmat/internal/btree"
	"viewmat/internal/colpage"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

func testEnv(t testing.TB) (*storage.Disk, *storage.Pool, *storage.Meter) {
	t.Helper()
	d := storage.NewDisk(256)
	m := storage.NewMeter()
	return d, storage.NewArena(d, 128).NewPool(m), m
}

func empSchema() *tuple.Schema {
	return tuple.NewSchema(tuple.Col("dept", tuple.Int), tuple.Col("name", tuple.String), tuple.Col("salary", tuple.Int))
}

func emp(id uint64, dept int64, name string, sal int64) tuple.Tuple {
	return tuple.New(id, tuple.I(dept), tuple.S(name), tuple.I(sal))
}

// insert adds tp after schema validation, maintaining secondaries: an
// ApplyRun of one row.
func insert(r *testRel, tp tuple.Tuple) error {
	_, err := r.ApplyRun([]tuple.Tuple{tp}, nil, -1, nil)
	return err
}

// deleteRow deletes the row of clustering-key value key and id, an
// ApplyRun of one delete whose row carries the key value alone, and
// returns the row it cut, reporting whether there was one.
func deleteRow(r *testRel, key tuple.Value, id uint64) (tuple.Tuple, bool, error) {
	vals := make([]tuple.Value, r.keyCol+1)
	vals[r.keyCol] = key
	var cut []tuple.Tuple
	_, err := r.ApplyRun([]tuple.Tuple{{ID: id, Vals: vals}}, []int8{-1}, -1, &cut)
	if errors.Is(err, btree.ErrAbsent) {
		return tuple.Tuple{}, false, nil
	}
	if err != nil {
		return tuple.Tuple{}, false, err
	}
	return cut[0], true, nil
}

// allTuples gathers a full sequential scan.
func allTuples(r *testRel) ([]tuple.Tuple, error) {
	batches, _, err := r.ScanAllBatches(0, nil)
	if err != nil {
		return nil, err
	}
	var out []tuple.Tuple
	for _, b := range batches {
		out = b.AppendTuples(out, 0)
	}
	return out, nil
}

func TestBTreeRelationCRUD(t *testing.T) {
	d, p, _ := testEnv(t)
	r, err := newBTree(d, p, "emp", empSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 30; i++ {
		if err := insert(r, emp(uint64(i+1), i%5, "e", 1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 30 {
		t.Errorf("Len = %d", r.Len())
	}
	got, err := gather(r.IterBatches(pred.PointRange(tuple.I(3)), nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Errorf("dept 3 scan = %d tuples, want 6", len(got))
	}
	tp, ok, err := deleteRow(r, tuple.I(2), 3)
	if err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	if tp.Vals[2].Int() != 1002 {
		t.Errorf("deleted tuple = %v", tp)
	}
	if _, ok, _ := r.Get(tuple.I(2), 3); ok {
		t.Error("deleted tuple still present")
	}
	if r.Len() != 29 {
		t.Errorf("Len after delete = %d", r.Len())
	}
}

func TestSchemaValidationOnInsert(t *testing.T) {
	d, p, _ := testEnv(t)
	r, _ := newBTree(d, p, "emp", empSchema(), 0)
	if err := insert(r, tuple.New(1, tuple.I(1))); err == nil {
		t.Error("wrong-arity tuple accepted")
	}
	if err := insert(r, tuple.New(1, tuple.S("x"), tuple.S("y"), tuple.I(3))); err == nil {
		t.Error("wrong-typed tuple accepted")
	}
}

func TestHashRelationCRUD(t *testing.T) {
	d, p, _ := testEnv(t)
	r, err := newHash(d, p, "dept", empSchema(), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		if err := insert(r, emp(uint64(i+1), i, "d", i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.LookupKey(tuple.I(7))
	if err != nil || len(got) != 1 || got[0].ID != 8 {
		t.Errorf("LookupKey(7) = %v err=%v", got, err)
	}
	if _, err := r.IterBatches(pred.FullRange(), nil); err == nil {
		t.Error("range scan on hash relation should error")
	}
	all, err := allTuples(r)
	if err != nil || len(all) != 20 {
		t.Errorf("ScanAll = %d tuples err=%v", len(all), err)
	}
}

func TestKeyColValidation(t *testing.T) {
	d, p, _ := testEnv(t)
	if _, err := newBTree(d, p, "x", empSchema(), 9); err == nil {
		t.Error("out-of-range key column accepted")
	}
	if _, err := newHash(d, p, "y", empSchema(), -1, 4); err == nil {
		t.Error("negative key column accepted")
	}
}

func TestSecondaryIndexLookup(t *testing.T) {
	d, p, _ := testEnv(t)
	r, _ := newBTree(d, p, "emp", empSchema(), 0) // clustered on dept
	for i := int64(0); i < 40; i++ {
		if err := insert(r, emp(uint64(i+1), i%4, "e", 1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.AddSecondary(2); err != nil { // salary
		t.Fatal(err)
	}
	if !r.HasSecondary(2) {
		t.Error("HasSecondary(2) = false")
	}
	got, err := r.LookupSecondary(2, pred.NewRange(tuple.I(1010), tuple.I(1019), true, true))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("secondary lookup found %d, want 10", len(got))
	}
	for _, tp := range got {
		s := tp.Vals[2].Int()
		if s < 1010 || s > 1019 {
			t.Errorf("out-of-range salary %d", s)
		}
	}
}

func TestSecondaryMaintainedByInsertDelete(t *testing.T) {
	d, p, _ := testEnv(t)
	r, _ := newBTree(d, p, "emp", empSchema(), 0)
	if err := r.AddSecondary(2); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := insert(r, emp(uint64(i+1), i, "e", 100*i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := deleteRow(r, tuple.I(5), 6); err != nil || !ok {
		t.Fatal("delete failed")
	}
	got, err := r.LookupSecondary(2, pred.PointRange(tuple.I(500)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("secondary still finds deleted tuple: %v", got)
	}
	got, _ = r.LookupSecondary(2, pred.PointRange(tuple.I(300)))
	if len(got) != 1 || got[0].ID != 4 {
		t.Errorf("secondary lookup = %v", got)
	}
}

func TestSecondaryErrors(t *testing.T) {
	d, p, _ := testEnv(t)
	r, _ := newBTree(d, p, "emp", empSchema(), 0)
	if err := r.AddSecondary(0); err == nil {
		t.Error("secondary on clustering column accepted")
	}
	if err := r.AddSecondary(2); err != nil {
		t.Fatal(err)
	}
	if err := r.AddSecondary(2); err == nil {
		t.Error("duplicate secondary accepted")
	}
	if _, err := r.LookupSecondary(1, pred.FullRange()); err == nil {
		t.Error("lookup on missing secondary succeeded")
	}
}

func TestIndexHeightAndPages(t *testing.T) {
	d, p, _ := testEnv(t)
	r, _ := newBTree(d, p, "emp", empSchema(), 0)
	for i := int64(0); i < 500; i++ {
		if err := insert(r, emp(uint64(i+1), i, "e", i)); err != nil {
			t.Fatal(err)
		}
	}
	if r.IndexHeight() < 1 {
		t.Errorf("IndexHeight = %d", r.IndexHeight())
	}
	if r.Pages() < 10 {
		t.Errorf("Pages = %d, want many for 500 tuples on 256-byte pages", r.Pages())
	}
}

func TestUnclusteredCostsMoreThanClustered(t *testing.T) {
	// The structural fact behind Figure 1's clustered-vs-unclustered
	// gap: fetching a key range via a secondary index touches ~1 page
	// per tuple; the clustered scan touches ~1 page per T tuples.
	d := storage.NewDisk(512)
	m := storage.NewMeter()
	p := storage.NewArena(d, 4).NewPool(m) // tiny pool: per-fetch descents stay cold
	r, err := newBTree(d, p, "emp", empSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Clustered on dept; salary correlates inversely so a salary range
	// is scattered across dept order.
	for i := int64(0); i < 400; i++ {
		if err := insert(r, emp(uint64(i+1), i, "e", (i*797)%400)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.AddSecondary(2); err != nil {
		t.Fatal(err)
	}

	p.Close()
	before := m.Snapshot()
	cl, err := gather(r.IterBatches(pred.NewRange(tuple.I(100), tuple.I(199), true, true), nil))
	if err != nil {
		t.Fatal(err)
	}
	clusteredReads := m.Snapshot().Sub(before).Reads

	p.Close()
	before = m.Snapshot()
	un, err := r.LookupSecondary(2, pred.NewRange(tuple.I(100), tuple.I(199), true, true))
	if err != nil {
		t.Fatal(err)
	}
	unclusteredReads := m.Snapshot().Sub(before).Reads

	if len(cl) != 100 || len(un) != 100 {
		t.Fatalf("result sizes: clustered %d unclustered %d", len(cl), len(un))
	}
	if unclusteredReads < 2*clusteredReads {
		t.Errorf("expected unclustered (%d reads) ≫ clustered (%d reads)", unclusteredReads, clusteredReads)
	}
}

// TestUpdateIsDeleteThenInsert: an update, the pair of the old row's
// delete and the new row's insert as one ApplyRun, cuts the tuple it
// replaces and is charged, and leaves, what deleteRow then Insert would —
// on a B+-tree (where the clustering index applies the pair in one leaf
// visit), on a B+-tree with a secondary index (where the pair goes to the
// clustering index and then, as pointer entries, to the secondary) and on
// a hash relation (where each row walks its bucket's chain).
func TestUpdateIsDeleteThenInsert(t *testing.T) {
	for _, kind := range []string{"btree", "btree+secondary", "hash"} {
		t.Run(kind, func(t *testing.T) {
			build := func() (*testRel, *storage.Meter, *storage.Disk) {
				d, p, m := testEnv(t)
				var r *testRel
				var err error
				if kind == "hash" {
					r, err = newHash(d, p, "emp", empSchema(), 0, 4)
				} else {
					r, err = newBTree(d, p, "emp", empSchema(), 0)
				}
				if err != nil {
					t.Fatal(err)
				}
				for i := int64(0); i < 60; i++ {
					if err := insert(r, emp(uint64(i+1), i, "e", 100*i)); err != nil {
						t.Fatal(err)
					}
				}
				if kind == "btree+secondary" {
					if err := r.AddSecondary(2); err != nil {
						t.Fatal(err)
					}
				}
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
				return r, m, d
			}
			up, upM, upD := build()
			ref, refM, refD := build()
			for i, c := range []struct {
				key int64
				id  uint64
				to  tuple.Tuple
			}{
				{20, 21, emp(100, 20, "raise", 9999)}, // same key
				{30, 31, emp(101, 55, "moved", 1)},    // another key
				{20, 100, emp(102, 20, "again", 5)},   // the first update's replacement
				{40, 999, emp(103, 40, "ghost", 0)},   // absent
			} {
				before := upM.Snapshot()
				var cut []tuple.Tuple
				pair := []tuple.Tuple{tuple.New(c.id, tuple.I(c.key)), c.to}
				_, err := up.ApplyRun(pair, []int8{-1, 1}, -1, &cut)
				if err != nil && !errors.Is(err, btree.ErrAbsent) {
					t.Fatal(err)
				}
				ok := len(cut) == 1
				var old tuple.Tuple
				if ok {
					old = cut[0]
				}
				upCost := upM.Snapshot().Sub(before)
				before = refM.Snapshot()
				want, wantOK, err := deleteRow(ref, tuple.I(c.key), c.id)
				if err == nil && wantOK {
					err = insert(ref, c.to)
				}
				if err != nil {
					t.Fatal(err)
				}
				refCost := refM.Snapshot().Sub(before)
				if ok != wantOK || old.ID != want.ID || !tuple.ValsEqual(old, want) {
					t.Errorf("update %d cut %v (%v); Delete returned %v, %v", i, old, ok, want, wantOK)
				}
				if upCost != refCost {
					t.Errorf("update %d charged %+v, Delete then Insert %+v", i, upCost, refCost)
				}
			}
			if !reflect.DeepEqual(upD.FullDelta(), refD.FullDelta()) {
				t.Error("the pair and Delete then Insert left different pages")
			}
			if kind == "btree+secondary" {
				got, err := up.LookupSecondary(2, pred.PointRange(tuple.I(5)))
				if err != nil || len(got) != 1 || got[0].ID != 102 {
					t.Errorf("secondary lookup of the last replacement = %v, %v", got, err)
				}
			}
		})
	}
}

// TestInsertRunMatchesInsert: inserting rows as runs cut at random
// points — into a B+-tree with a secondary index and into a hash relation
// with one, where each run goes to the clustering file whole and then to
// the secondary index — leaves every file's pages as inserting them one
// at a time does, at pools of 8 and 512 frames. At 512 frames nothing is
// evicted and the charges are equal too; at 8, where a one-row insert
// evicts the clustering file's pages to reach the index's and back, a run
// may only be charged less.
func TestInsertRunMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	var rows []tuple.Tuple
	for k := int64(0); len(rows) < 500; k += int64(rng.Intn(40)) {
		for n := rng.Intn(50); n > 0; n-- {
			rows = append(rows, emp(uint64(len(rows)+1), k, fmt.Sprint("e", rng.Intn(100)), rng.Int63n(1000)))
			k += int64(rng.Intn(2))
		}
	}
	for _, kind := range []string{"btree", "hash"} {
		for _, frames := range []int{8, 512} {
			t.Run(fmt.Sprintf("%s/frames=%d", kind, frames), func(t *testing.T) {
				build := func(runs [][]tuple.Tuple) (*testRel, *storage.Meter, *storage.Disk) {
					d := storage.NewDisk(256)
					m := storage.NewMeter()
					p := storage.NewArena(d, frames).NewPool(m)
					var r *testRel
					var err error
					if kind == "hash" {
						r, err = newHash(d, p, "emp", empSchema(), 0, 4)
					} else {
						r, err = newBTree(d, p, "emp", empSchema(), 0)
					}
					if err == nil {
						err = r.AddSecondary(2)
					}
					for _, run := range runs {
						if err == nil {
							_, err = r.ApplyRun(run, nil, -1, nil)
						}
					}
					if err == nil {
						err = p.FlushAll()
					}
					if err != nil {
						t.Fatal(err)
					}
					p.AssertUnpinned(t)
					return r, m, d
				}
				var one, cut [][]tuple.Tuple
				for i := range rows {
					one = append(one, rows[i:i+1])
				}
				for rest := rows; len(rest) > 0; {
					n := 1 + rng.Intn(min(len(rest), 80))
					cut, rest = append(cut, rest[:n]), rest[n:]
				}
				ref, refM, refD := build(one)
				got, gotM, gotD := build(cut)
				if got.Len() != ref.Len() {
					t.Errorf("runs left %d tuples, one-row inserts %d", got.Len(), ref.Len())
				}
				want, gotFiles := refD.FullDelta(), gotD.FullDelta()
				if !reflect.DeepEqual(gotFiles, want) {
					t.Error("runs and one-row inserts left different pages")
				}
				g, w := gotM.Snapshot(), refM.Snapshot()
				if frames == 8 && (g.Reads > w.Reads || g.Writes > w.Writes) || frames != 8 && g != w {
					t.Errorf("runs charged %v, one-row inserts %v", g, w)
				}
			})
		}
	}
}

// TestHashDeleteReadsTheChainUpToItsTuple: a delete from a hash relation
// is one walk of the bucket's chain that stops at the page holding the
// tuple — not a lookup of the whole chain first. On one bucket of 60
// rows (a chain of several pages) a cold delete of the first row reads
// one page and, when its scope closes, writes it.
func TestHashDeleteReadsTheChainUpToItsTuple(t *testing.T) {
	d, p, m := testEnv(t)
	r, err := newHash(d, p, "emp", empSchema(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 60; i++ {
		if err := insert(r, emp(uint64(i+1), i, "e", 100*i)); err != nil {
			t.Fatal(err)
		}
	}
	if r.Pages() < 3 {
		t.Fatalf("the bucket's chain has %d pages, want several", r.Pages())
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()
	old, ok, err := deleteRow(r, tuple.I(0), 1)
	if err != nil || !ok || old.Vals[2].Int() != 0 {
		t.Fatalf("delete: %v, %v, %v", old, ok, err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Sub(before); got.Reads != 1 || got.Writes != 1 {
		t.Errorf("delete from the chain's first page charged %+v, want 1 read and 1 write", got)
	}
}

// TestSecondaryWriteOrderIsDeterministic: a relation with two secondary
// indexes writes them in column order, so one stream — a load, then 60
// update pairs — is charged alike run after run, in pools of 6 and 8
// frames that evict between the files' pages. While the indexes sat in a
// map they were written in its iteration order, and the reads varied
// from run to run.
func TestSecondaryWriteOrderIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var load []tuple.Tuple
	for i := 0; i < 300; i++ {
		load = append(load, emp(uint64(i+1), rng.Int63n(100), fmt.Sprint("e", rng.Intn(500)), rng.Int63n(1000)))
	}
	var updates [][]tuple.Tuple
	live := append([]tuple.Tuple(nil), load...)
	for i := 0; i < 60; i++ {
		j := rng.Intn(len(live))
		old := live[j]
		live[j] = emp(uint64(1000+i), old.Vals[0].Int(), fmt.Sprint("u", rng.Intn(500)), rng.Int63n(1000))
		updates = append(updates, []tuple.Tuple{tuple.New(old.ID, old.Vals[0]), live[j]})
	}
	for _, frames := range []int{6, 8} {
		t.Run(fmt.Sprintf("frames=%d", frames), func(t *testing.T) {
			seen := map[storage.Stats]bool{}
			for run := 0; run < 20; run++ {
				d := storage.NewDisk(256)
				m := storage.NewMeter()
				r, err := newBTree(d, storage.NewArena(d, frames).NewPool(m), "emp", empSchema(), 0)
				for _, col := range []int{1, 2} {
					if err == nil {
						err = r.AddSecondary(col)
					}
				}
				if err == nil {
					_, err = r.ApplyRun(load, nil, -1, nil)
				}
				for _, pair := range updates {
					if err == nil {
						_, err = r.ApplyRun(pair, []int8{-1, 1}, -1, nil)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				seen[m.Snapshot()] = true
			}
			if len(seen) != 1 {
				t.Errorf("20 runs of one stream charged %d different ways: %v", len(seen), seen)
			}
		})
	}
}

// testRel is a Relation driven through one pool, as one operation drives
// it: the page-touching methods take the pool the test gave the relation.
type testRel struct {
	*Relation
	pool *storage.Pool
}

func newBTree(d *storage.Disk, p *storage.Pool, name string, schema *tuple.Schema, keyCol int) (*testRel, error) {
	r, err := NewBTree(d, p, name, schema, keyCol)
	if err != nil {
		return nil, err
	}
	return &testRel{r, p}, nil
}

func newHash(d *storage.Disk, p *storage.Pool, name string, schema *tuple.Schema, keyCol, buckets int) (*testRel, error) {
	r, err := NewHash(d, p, name, schema, keyCol, buckets)
	if err != nil {
		return nil, err
	}
	return &testRel{r, p}, nil
}

func openRel(d *storage.Disk, p *storage.Pool, name string, schema *tuple.Schema, m Meta) (*testRel, error) {
	r, err := Open(d, name, schema, m)
	if err != nil {
		return nil, err
	}
	return &testRel{r, p}, nil
}

func (r *testRel) ApplyRun(tps []tuple.Tuple, signs []int8, countCol int, cut *[]tuple.Tuple) (int, error) {
	return r.Relation.ApplyRun(r.pool, tps, signs, countCol, cut)
}

func (r *testRel) Get(keyVal tuple.Value, id uint64) (tuple.Tuple, bool, error) {
	return r.Relation.Get(r.pool, keyVal, id, true)
}

func (r *testRel) LookupKey(v tuple.Value) ([]tuple.Tuple, error) {
	return r.Relation.LookupKey(r.pool, v)
}

func (r *testRel) IterBatches(rg *pred.Range, prune []colpage.Atom) (*colpage.Scan, error) {
	return r.Relation.IterBatches(r.pool, rg, prune)
}

func (r *testRel) ScanAllBatches(size int, prune []colpage.Atom) ([]*vec.Batch, int64, error) {
	return r.Relation.ScanAllBatches(r.pool, size, prune)
}

func (r *testRel) AddSecondary(col int) error { return r.Relation.AddSecondary(r.pool, col) }

func (r *testRel) LookupSecondary(col int, rg *pred.Range) ([]tuple.Tuple, error) {
	return r.Relation.LookupSecondary(r.pool, col, rg)
}
