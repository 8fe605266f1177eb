package relation

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// scanState is the pool/file condition a scan starts from.
type scanState int

const (
	stateClean    scanState = iota // flushed file, cold pool: full scans read ahead
	stateDirty                     // unflushed inserts resident: readahead disarmed
	stateTinyPool                  // pool too small for a readahead window
)

func (s scanState) String() string {
	return [...]string{"clean", "dirty-frames", "tiny-pool"}[s]
}

// scanFixture is one relation under one (kind, state) with the in-memory
// model of its contents, sorted by (key, id).
type scanFixture struct {
	rel   *testRel
	pool  *storage.Pool
	meter *storage.Meter
	model []tuple.Tuple
}

// scanShape is an access method and the file shape it scans.
type scanShape struct {
	name     string
	kind     Kind
	pageSize int
	buckets  int  // a hash file's primary pages
	overflow bool // whether the hash file's chains overflow their buckets
}

// newScanFixture builds 300 rows (every third key duplicated) and puts
// pool and file in the requested state.
func newScanFixture(t *testing.T, shape scanShape, state scanState) *scanFixture {
	t.Helper()
	frames := 512
	if state == stateTinyPool {
		frames = 4
	}
	d := storage.NewDisk(shape.pageSize)
	m := storage.NewMeter()
	p := storage.NewArena(d, frames).NewPool(m)
	var r *testRel
	var err error
	if shape.kind == ClusteredBTree {
		r, err = newBTree(d, p, "s", empSchema(), 0)
	} else {
		r, err = newHash(d, p, "s", empSchema(), 0, shape.buckets)
	}
	if err != nil {
		t.Fatal(err)
	}
	fx := &scanFixture{rel: r, pool: p, meter: m}
	id := uint64(0)
	add := func(key int64) {
		id++
		tp := emp(id, key, fmt.Sprintf("n%d", id), key*10)
		if err := insert(r, tp); err != nil {
			t.Fatal(err)
		}
		fx.model = append(fx.model, tp)
	}
	for k := int64(0); k < 300; k++ {
		add(k * 2)
		if k%3 == 0 {
			add(k * 2)
		}
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if state == stateDirty {
		for _, k := range []int64{7, 301, 599} {
			add(k)
		}
	}
	if shape.kind == ClusteredHash && (r.Pages() > shape.buckets) != shape.overflow {
		t.Fatalf("%d chain pages for %d buckets: want overflow %v", r.Pages(), shape.buckets, shape.overflow)
	}
	sort.Slice(fx.model, func(i, j int) bool {
		a, b := fx.model[i], fx.model[j]
		if c := tuple.Compare(a.Vals[0], b.Vals[0]); c != 0 {
			return c < 0
		}
		return a.ID < b.ID
	})
	return fx
}

// scan runs the one scan path for the fixture's kind: a clustered range
// scan, or (hash, nil range only) the full bucket scan.
func (fx *scanFixture) scan(rg *pred.Range) ([]tuple.Tuple, error) {
	if fx.rel.Kind() == ClusteredHash && rg == nil {
		return allTuples(fx.rel)
	}
	return gather(fx.rel.IterBatches(rg, nil))
}

// TestScanPathTable drives the batch scan path through every access
// method, range shape and pool state: rows must equal the in-memory
// model, every page visited must be metered exactly once (a miss) or not
// at all (already resident), the charged chain-following walk (dirty
// frames, tiny pool) must meter what the readahead walk does, and no case
// may leak a pin. "col" names the one page format. Hash files come in
// both shapes: chains that overflow their buckets, and buckets alone.
func TestScanPathTable(t *testing.T) {
	ranges := []struct {
		name string
		rg   *pred.Range
	}{
		{"nil", nil},
		{"point", pred.PointRange(tuple.I(120))},
		{"half-open", pred.NewRange(tuple.I(100), tuple.I(260), true, false)},
		{"empty", pred.NewRange(tuple.I(50), tuple.I(40), true, true)},
		{"beyond-last-key", pred.NewRange(tuple.I(5000), tuple.I(6000), true, true)},
	}
	kinds := []scanShape{
		{name: "btree", kind: ClusteredBTree, pageSize: 256},
		{name: "hash", kind: ClusteredHash, pageSize: 256, buckets: 16, overflow: true},
		{name: "hash-no-overflow", kind: ClusteredHash, pageSize: 4096, buckets: 8},
	}

	for _, k := range kinds {
		for _, rc := range ranges {
			// cleanReads is the cold clean-file figure the other states
			// must reproduce.
			var cleanReads int64
			for _, state := range []scanState{stateClean, stateDirty, stateTinyPool} {
				t.Run(fmt.Sprintf("%s/col/%s/%s", k.name, rc.name, state), func(t *testing.T) {
					fx := newScanFixture(t, k, state)
					defer fx.pool.AssertUnpinned(t)
					residentBefore := fx.pool.Resident()
					before := fx.meter.Snapshot()
					got, err := fx.scan(rc.rg)
					reads := fx.meter.Snapshot().Sub(before).Reads
					if k.kind == ClusteredHash && rc.rg != nil {
						if err == nil {
							t.Fatal("range scan of a hash relation succeeded")
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}

					var want []tuple.Tuple
					for _, tp := range fx.model {
						if rc.rg == nil || rc.rg.Contains(tp.Vals[0]) {
							want = append(want, tp)
						}
					}
					if k.kind == ClusteredHash {
						// Bucket order is arbitrary: compare as sets.
						sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
						sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
					}
					if len(got) != len(want) {
						t.Fatalf("scan returned %d rows, model has %d", len(got), len(want))
					}
					for i := range got {
						if got[i].ID != want[i].ID || !tuple.Equal(got[i].Vals[0], want[i].Vals[0]) ||
							got[i].Vals[1].Str() != want[i].Vals[1].Str() || got[i].Vals[2].Int() != want[i].Vals[2].Int() {
							t.Fatalf("row %d = %v, model says %v", i, got[i], want[i])
						}
					}

					switch state {
					case stateClean:
						// Cold pool, nothing evicted: one read per page
						// visited, each now resident.
						if visited := int64(fx.pool.Resident() - residentBefore); reads != visited {
							t.Errorf("reads = %d, pages visited = %d", reads, visited)
						}
						if rc.rg == nil {
							full := int64(fx.rel.Pages())
							if k.kind == ClusteredBTree {
								full += int64(fx.rel.IndexHeight()) // the descent
							}
							if reads != full {
								t.Errorf("full scan reads = %d, want every data page plus the descent = %d", reads, full)
							}
						}
						cleanReads = reads
					case stateDirty:
						// Pages the inserts left resident are hits; every
						// other page visited is one read.
						if visited := int64(fx.pool.Resident() - residentBefore); reads != visited {
							t.Errorf("reads = %d, newly resident pages = %d", reads, visited)
						}
					case stateTinyPool:
						if reads != cleanReads {
							t.Errorf("chain-following walk metered %d reads, readahead walk %d", reads, cleanReads)
						}
					}
				})
			}
		}
	}

	// Run-based Fill against the per-row semantics it replaced: every
	// pair of range ends over leaves of ~50 rows, so ends fall mid-leaf,
	// exactly on leaf boundaries and inside runs of duplicates spanning
	// two leaves, at batch sizes below, beside and above a leaf.
	t.Run("range-ends/col", testRangeEnds)
}

// testRangeEnds sweeps both ends of a range scan over every key of a
// four-or-more-leaf tree, inclusive and exclusive, plus one ≠ exclusion
// mid-range, and compares each batch size's rows with the model
// filtered row by row. Two keys repeat 120 times — more rows than a
// 4 KB leaf holds — so each of those runs spans a leaf boundary, and
// sweeping every key puts range ends on both sides of every boundary.
func testRangeEnds(t *testing.T) {
	d := storage.NewDisk(4096)
	p := storage.NewArena(d, 64).NewPool(storage.NewMeter())
	r, err := newBTree(d, p, "ends", empSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 30
	var model []tuple.Tuple
	id := uint64(0)
	for k := int64(0); k < keys; k++ {
		reps := 1
		switch {
		case k == 9 || k == 20:
			reps = 120
		case k%4 == 1:
			reps = 5
		}
		for i := 0; i < reps; i++ {
			id++
			tp := emp(id, k*2, fmt.Sprintf("n%d", id), k)
			if err := insert(r, tp); err != nil {
				t.Fatal(err)
			}
			model = append(model, tp) // ascending (key, id): already scan order
		}
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if pages := r.Pages(); pages < 4 || len(model)/pages > 100 {
		t.Fatalf("%d rows on %d leaves: the fixture needs several leaves smaller than a duplicate run", len(model), pages)
	}
	defer p.AssertUnpinned(t)

	check := func(rg *pred.Range, size int) {
		t.Helper()
		it, err := r.IterBatches(rg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []tuple.Tuple
		for !it.Done() {
			b := &vec.Batch{}
			if err := it.Fill(b, size); err != nil {
				t.Fatal(err)
			}
			if !it.Done() && b.NumRows() != size {
				t.Fatalf("range %v size %d: a batch of %d rows before the scan ended", rg, size, b.NumRows())
			}
			got = b.AppendTuples(got, 0)
		}
		k := 0
		for _, tp := range model {
			if !rg.Contains(tp.Vals[0]) {
				continue
			}
			if k >= len(got) || got[k].ID != tp.ID || !tuple.ValsEqual(got[k], tp) {
				t.Fatalf("range %v size %d: row %d differs from the model's %v", rg, size, k, tp)
			}
			k++
		}
		if k != len(got) {
			t.Fatalf("range %v size %d: %d rows, model has %d", rg, size, len(got), k)
		}
	}
	for _, size := range []int{1, 7, 1024} {
		for lo := int64(0); lo < keys; lo++ {
			for hi := lo; hi < keys; hi++ {
				for inc := 0; inc < 4; inc++ {
					check(pred.NewRange(tuple.I(lo*2), tuple.I(hi*2), inc&1 != 0, inc&2 != 0), size)
				}
			}
			// A ≠ constant inside a duplicate run cuts the kept rows in two.
			rg := pred.NewRange(tuple.I(lo*2), tuple.I(2*keys), true, true)
			rg.Restrict(pred.Ne, tuple.I(40))
			check(rg, size)
		}
	}
}

// TestFloatKeyRangeScans runs range scans over a B+-tree clustered on a
// Float key holding NaN of two payloads, −0 beside 0, ±Inf and runs of
// duplicates, inserted in random order: every range over those values
// and NaN, at batch sizes 1, 7 and 1024, must return exactly the rows a
// full scan returns that Range.Contains keeps, in the same order. Under
// tuple.CompareFloat NaN is one value above +∞, so the leaves are sorted
// and a range holding NaN finds its rows at the end of the chain.
func TestFloatKeyRangeScans(t *testing.T) {
	d := storage.NewDisk(256)
	p := storage.NewArena(d, 64).NewPool(storage.NewMeter())
	schema := tuple.NewSchema(tuple.Col("k", tuple.Float), tuple.Col("name", tuple.String))
	r, err := newBTree(d, p, "floats", schema, 0)
	if err != nil {
		t.Fatal(err)
	}
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	keys := []float64{-inf, -2.5, -1, negZero, 0, 0.5, 1, 3, inf, nan, math.Float64frombits(0x7ff8dead0000beef)}
	var vals []float64
	for i, k := range keys {
		for range 1 + 6*(i%3) {
			vals = append(vals, k)
		}
	}
	rnd := rand.New(rand.NewSource(7))
	rnd.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	for i, v := range vals {
		if err := insert(r, tuple.New(uint64(i+1), tuple.F(v), tuple.S(fmt.Sprintf("n%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if r.Pages() < 4 {
		t.Fatalf("%d rows on %d leaves: the fixture needs several leaves", len(vals), r.Pages())
	}
	defer p.AssertUnpinned(t)
	all, err := gather(r.IterBatches(nil, nil))
	if err != nil || len(all) != len(vals) {
		t.Fatalf("full scan read %d of %d rows: %v", len(all), len(vals), err)
	}

	check := func(rg *pred.Range, size int) {
		t.Helper()
		it, err := r.IterBatches(rg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []tuple.Tuple
		for !it.Done() {
			b := &vec.Batch{}
			if err := it.Fill(b, size); err != nil {
				t.Fatal(err)
			}
			got = b.AppendTuples(got, 0)
		}
		var want []tuple.Tuple
		for _, tp := range all {
			if rg.Contains(tp.Vals[0]) {
				want = append(want, tp)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("range %v size %d: %d rows, the filtered full scan %d", rg, size, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("range %v size %d: row %d is %v, the filtered full scan's %v", rg, size, i, got[i], want[i])
			}
		}
	}
	bounds := append([]float64{nan, -3, 2}, keys...)
	for _, size := range []int{1, 7, 1024} {
		for _, lo := range bounds {
			for _, hi := range bounds {
				for inc := 0; inc < 4; inc++ {
					check(pred.NewRange(tuple.F(lo), tuple.F(hi), inc&1 != 0, inc&2 != 0), size)
				}
			}
			for _, inc := range []bool{false, true} {
				v := tuple.F(lo)
				check(&pred.Range{Lo: &v, LoInc: inc}, size)
				check(&pred.Range{Hi: &v, HiInc: inc}, size)
			}
		}
	}
}
