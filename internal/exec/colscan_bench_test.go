package exec

import (
	"fmt"
	"runtime/debug"
	"testing"

	"viewmat/internal/colpage"
	"viewmat/internal/pred"
	"viewmat/internal/relation"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// BenchmarkScanCol measures the columnar scan on the shapes that
// motivated it: a full sequential scan (vector-direct lane decode), a
// selective filter with and without zone-map pruning, a scattered filter
// with and without the encoded-lane row test, and an aggregate fold.

// flushedEnv is benchEnv flushed so the on-disk pages are current
// (zone-map pruning disables itself while dirty frames exist).
func flushedEnv(b testing.TB, name string, n int) (*relation.Relation, Options) {
	b.Helper()
	d := storage.NewDisk(4096)
	m := storage.NewMeter()
	p := storage.NewArena(d, 1<<14).NewPool(m)
	schema := tuple.NewSchema(tuple.Col("key", tuple.Int), tuple.Col("val", tuple.Int), tuple.Col("name", tuple.String))
	r, err := relation.NewBTree(d, p, name, schema, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		t := tuple.New(uint64(i+1), tuple.I(int64(i)), tuple.I(int64(i%997)), tuple.S(fmt.Sprintf("n%02d", i%64)))
		if err := insert(p, r, t); err != nil {
			b.Fatal(err)
		}
	}
	if err := p.FlushAll(); err != nil {
		b.Fatal(err)
	}
	return r, Options{Pool: p, Meter: m}
}

// scatteredEnv is flushedEnv over the bench's scan-qm shape: rows (k, a,
// p) with a = k·40503 mod n a permutation of [0, n) scattered across the
// key-ordered leaves, so zone maps on a rarely prune a page.
func scatteredEnv(b testing.TB, name string, n int) (*relation.Relation, Options) {
	b.Helper()
	d := storage.NewDisk(4096)
	m := storage.NewMeter()
	p := storage.NewArena(d, 1<<14).NewPool(m)
	schema := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("p", tuple.Int))
	r, err := relation.NewBTree(d, p, name, schema, 0)
	if err != nil {
		b.Fatal(err)
	}
	for k := int64(0); k < int64(n); k++ {
		if err := insert(p, r, tuple.New(uint64(k+1), tuple.I(k), tuple.I(k*40503%int64(n)), tuple.I((k*7919+17)%1000))); err != nil {
			b.Fatal(err)
		}
	}
	if err := p.FlushAll(); err != nil {
		b.Fatal(err)
	}
	return r, Options{Pool: p, Meter: m}
}

// The allocation guards pin what the benchmark above measures where no
// clock is trusted: a scan allocates per batch and per page arena, never
// per cell or per row, so the counts are small constants of the fixture.
// The bounds sit a margin above today's counts (533 and 12; 1 617 and 72
// under the race detector, whose instrumentation moves stack buffers to
// the heap) and far below what per-cell and per-row work cost (31 790 and
// 2 770 with four-lane columns and row-at-a-time fills): one allocation
// per row, or a handful per leaf, already trips them. A warm full scan
// reads every leaf through the lanes the first scan kept beside it and
// allocates only its batches' lanes: 247 without the test binary's check
// of each use of kept lanes against a fresh decode of the page, which
// adds a string arena a leaf (597 while every scan decoded every leaf).

// allocBound is a guard's bound: max, or raceMax under the race detector.
func allocBound(max, raceMax float64) float64 {
	if raceBuild() {
		return raceMax
	}
	return max
}

// A full columnar scan of the benchmark's 20 000-row, 354-leaf relation.
func TestFullScanAllocations(t *testing.T) {
	const n = 20000
	rel, env := flushedEnv(t, "alloc-fs", n)
	o := env
	allocs := testing.AllocsPerRun(5, func() {
		if got := drainRows(t, NewSeqScan(o, rel)); got != n {
			t.Fatalf("drained %d rows, want %d", got, n)
		}
	})
	t.Logf("%.0f allocations a warm full scan", allocs)
	if max := allocBound(700, 2300); allocs > max {
		t.Fatalf("full columnar scan allocated %.0f objects, want at most %.0f", allocs, max)
	}
}

// A cold full scan: the scan-qm relation (k, a = k·40503 mod N, p) at
// N = 100 000 on 4 000-byte pages — ~1 850 leaves — against a 256-frame
// pool evicted before every run, so every leaf read is a miss. The warm
// guards above never miss; this one pins what a miss and the readahead
// walk cost. A miss reads the leaf in place from its image into a
// recycled pool entry, and the window's eviction pass gathers into
// recycled scratch: it allocates nothing. The walk reads links and zone
// maps from the tree's leaf directory and allocates nothing either.
// Unpruned and with the atom a < 1000 (which prunes 851 leaves and, in
// the 1 002 read, gathers only the rows it keeps from the lanes the
// warm-up run kept beside each leaf, by the selection it published in
// each leaf's slot — a closed pool keeps no page, but the images keep
// their lanes): 838 / 81 allocations a scan (1 084 / 95 while a window's
// rows grew the batch's lanes leaf by leaf), 6 566 / 3 184 under the
// race detector (6 637 / 3 131 then: a window's gather fills each lane
// through one vec.Col.GrowInts, whose made slice the race build
// allocates; 9 128 / 4 204 while each leaf was decoded on every scan) —
// against
// 8 562 / 4 142 (16 422 / 8 151) when every miss copied the page into a
// frame and allocated the frame, its recency entry and its single-flight
// channel, 8 562 / 4 664 (16 420 / 8 910) when every read leaf was
// decoded whole, and 10 385 / 9 336 (18 245 / 13 582) when every miss
// allocated a fresh page and every peek a fresh zone map.
func TestColdScanAllocations(t *testing.T) {
	const n, aMul = 100000, 40503
	d := storage.NewDisk(4000)
	m := storage.NewMeter()
	p := storage.NewArena(d, 256).NewPool(m)
	schema := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("p", tuple.Int))
	rel, err := relation.NewBTree(d, p, "alloc-cold", schema, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < n; k++ {
		if err := insert(p, rel, tuple.New(uint64(k+1), tuple.I(k), tuple.I(k*aMul%n), tuple.I((k*7919+17)%1000))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	o := Options{Pool: p, Meter: m}
	for _, c := range []struct {
		name         string
		atoms        []colpage.Atom
		max, raceMax float64
	}{
		{"unpruned", nil, 1300, 9800},
		{"a<1000", []colpage.Atom{{Col: 1, Op: pred.Lt, Val: tuple.I(1000)}}, 150, 4500},
	} {
		var pruned int64
		allocs := testing.AllocsPerRun(3, func() {
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			scan := NewSeqScanPruned(o, rel, c.atoms)
			got := drainRows(t, scan)
			if pruned = scan.Stats().Pruned; c.atoms == nil && got != n || c.atoms != nil && (got >= n || pruned == 0) {
				t.Fatalf("%s: drained %d rows, %d pages pruned", c.name, got, pruned)
			}
		})
		max := allocBound(c.max, c.raceMax)
		t.Logf("%s: %.0f allocations a cold scan, %d leaves pruned (race detector: %v)", c.name, allocs, pruned, raceBuild())
		if allocs > max {
			t.Errorf("%s: cold scan allocated %.0f objects, want at most %.0f", c.name, allocs, max)
		}
	}
}

// raceBuild reports whether the test binary runs under the race
// detector, whose instrumentation moves stack buffers to the heap.
func raceBuild() bool {
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

// A 1 000-row range read of a stored view drained to batches — the
// materialized query path up to the answer's lanes: scan, charged
// screen, and no row gather. Each batch's lanes are sized once, from the
// leaf directory, and filled from the leaves' kept lanes, which the
// range cuts in place: 12 allocations (72 under the race detector),
// against 17 (106) while each leaf was decoded onto the scan's lanes
// first and 41 (127) when the batches regrew leaf by leaf. The bounds
// keep the margin they had above the count.
func TestStoredRangeReadAllocations(t *testing.T) {
	const n, lo, rows = 20000, 5000, 1000
	d := storage.NewDisk(4096)
	m := storage.NewMeter()
	p := storage.NewArena(d, 1<<14).NewPool(m)
	schema := tuple.NewSchema(tuple.Col("key", tuple.Int), tuple.Col("val", tuple.Int), tuple.Col("__dup", tuple.Int))
	rel, err := relation.NewBTree(d, p, "alloc-view", schema, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := insert(p, rel, tuple.New(uint64(i+1), tuple.I(int64(i)), tuple.I(int64(i%997)), tuple.I(1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	o := Options{Pool: p, Meter: m}
	rg := pred.NewRange(tuple.I(lo), tuple.I(lo+rows), true, false)
	split := func(cols []vec.Col) ([]vec.Col, []int64, error) { return cols[:2], cols[2].Ints, nil }
	allocs := testing.AllocsPerRun(20, func() {
		scan := NewStoredScan(o, Label{"MatScan"}, rel, rg, split, false)
		got, err := Drain(NewFilter(o, Label{"view"}, scan, Pred{}, true))
		if err != nil || len(got) == 0 {
			t.Fatalf("read %d batches, err %v", len(got), err)
		}
		n, last := 0, got[len(got)-1]
		for _, b := range got {
			n += b.LiveCount()
		}
		first := got[0].Slots[0][0].Value(got[0].LiveIndex(0))
		if n != rows || first.Int() != lo || last.DupAt(last.LiveIndex(last.LiveCount()-1)) != 1 {
			t.Fatalf("read %d rows (first key %v)", n, first)
		}
	})
	t.Logf("%.0f allocations a stored range read", allocs)
	if max := allocBound(17, 96); allocs > max {
		t.Fatalf("1000-row stored range read allocated %.0f objects, want at most %.0f", allocs, max)
	}
}

func BenchmarkScanCol(b *testing.B) {
	const n = 20000

	b.Run("full-scan", func(b *testing.B) {
		rel, env := flushedEnv(b, "fs", n)
		b.Run("col", func(b *testing.B) {
			o := env
			for i := 0; i < b.N; i++ {
				if got := drainRows(b, NewSeqScan(o, rel)); got != n {
					b.Fatalf("drained %d rows, want %d", got, n)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	})

	// Selective filter: key < 400 keeps 2% of rows, clustered at the
	// front of the key-ordered leaf chain — the shape zone maps excel
	// at. "col" pushes the interval into the scan as prune atoms;
	// "col-noprune" decodes every page.
	b.Run("filter-selective", func(b *testing.B) {
		const cut = 400
		p := pred.New(pred.Cmp{Col: 0, Op: pred.Lt, Val: tuple.I(cut)})
		atoms := []colpage.Atom{{Col: 0, Op: pred.Lt, Val: tuple.I(cut)}}
		run := func(b *testing.B, rel *relation.Relation, o Options, prune []colpage.Atom) {
			pruned := int64(0)
			for i := 0; i < b.N; i++ {
				scan := NewSeqScanPruned(o, rel, prune)
				f := NewFilter(o, Label{"key<400"}, scan, Pred{P: p}, true)
				got := drainRows(b, f)
				if got != cut {
					b.Fatalf("drained %d rows, want %d", got, cut)
				}
				pruned = scan.Stats().Pruned
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			b.ReportMetric(float64(pruned), "pruned-pages")
		}
		rel, env := flushedEnv(b, "sel", n)
		b.Run("col", func(b *testing.B) { run(b, rel, env, atoms) })
		b.Run("col-noprune", func(b *testing.B) { run(b, rel, env, nil) })
	})

	// Scattered filter: a < n/100 keeps 1 % of rows, spread over nearly
	// every leaf — the scan-qm shape, where zone maps prune little and
	// the selection does the work. "col" pushes the atom into the scan,
	// which tests it on the encoded a lane and decodes only survivors;
	// "col-noprune" decodes every row for the filter.
	b.Run("filter-scattered", func(b *testing.B) {
		const cut = n / 100
		p := pred.New(pred.Cmp{Col: 1, Op: pred.Lt, Val: tuple.I(cut)})
		atoms := []colpage.Atom{{Col: 1, Op: pred.Lt, Val: tuple.I(cut)}}
		run := func(b *testing.B, rel *relation.Relation, o Options, prune []colpage.Atom) {
			for i := 0; i < b.N; i++ {
				f := NewFilter(o, Label{"a<n/100"}, NewSeqScanPruned(o, rel, prune), Pred{P: p}, true)
				if got := drainRows(b, f); got != cut {
					b.Fatalf("drained %d rows, want %d", got, cut)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		}
		rel, env := scatteredEnv(b, "scat", n)
		b.Run("col", func(b *testing.B) { run(b, rel, env, atoms) })
		b.Run("col-noprune", func(b *testing.B) { run(b, rel, env, nil) })
	})

	b.Run("agg-fold", func(b *testing.B) {
		p := pred.New(pred.Cmp{Col: 1, Op: pred.Lt, Val: tuple.I(750)})
		rel, env := flushedEnv(b, "agg", n)
		b.Run("col", func(b *testing.B) {
			o := env
			var want float64
			for i := 0; i < b.N; i++ {
				var sum float64
				filt := NewFilter(o, Label{"val<750"}, NewSeqScan(o, rel), Pred{P: p}, true)
				fold := NewAggFold(o, Label{"sum"}, filt, Fold{Col: 1, Val: func(v float64, insert bool) {
					if insert {
						sum += v
					} else {
						sum -= v
					}
				}})
				drainRows(b, fold)
				if i == 0 {
					want = sum
				}
				if sum != want || sum == 0 {
					b.Fatalf("sum = %v, want %v", sum, want)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	})
}

// Point lookups on a 20 000-row B+-tree whose keys repeat four times,
// every key of [1000, 1100): most runs lie inside one leaf, some span a
// leaf boundary. A range scan sizes its batch's lanes from the leaf
// directory only when the range runs on past the leaf it has read, so a
// lookup allocates no more than it did before range scans reserved
// lanes (20.36 objects on average, 28.26 under the race detector); with
// the reservation it took 20.08 (28.19): a run that spans a boundary
// moves onto lanes sized once instead of regrown. A lookup reads its
// leaf through the lanes kept beside the leaf's image and cuts its run
// from them, decoding nothing: 15.00 (18.27), the bound.
func TestPointLookupAllocations(t *testing.T) {
	const n, first, keys = 20000, 1000, 100
	d := storage.NewDisk(4096)
	p := storage.NewArena(d, 1<<14).NewPool(storage.NewMeter())
	schema := tuple.NewSchema(tuple.Col("key", tuple.Int), tuple.Col("val", tuple.Int), tuple.Col("__dup", tuple.Int))
	rel, err := relation.NewBTree(d, p, "lookups", schema, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := insert(p, rel, tuple.New(uint64(i+1), tuple.I(int64(i/4)), tuple.I(int64(i%997)), tuple.I(1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		for k := int64(first); k < first+keys; k++ {
			if got, err := rel.LookupKey(p, tuple.I(k)); err != nil || len(got) != 4 {
				t.Fatalf("key %d: %d rows, err %v", k, len(got), err)
			}
		}
	}) / keys
	t.Logf("%.2f allocations a point lookup (race detector: %v)", allocs, raceBuild())
	if max := allocBound(15.00, 18.5); allocs > max {
		t.Fatalf("a point lookup allocated %.2f objects, want at most %.2f", allocs, max)
	}
}
