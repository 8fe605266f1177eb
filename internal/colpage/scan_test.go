package colpage_test

import (
	"testing"

	"viewmat/internal/btree"
	"viewmat/internal/colpage"
	"viewmat/internal/hashidx"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// TestWalkWindowAllocations: one readahead walk window — a window's
// lookups in the page directory and the zone-map tests on them —
// allocates nothing, in a test binary with the directory check on too:
// down a B+-tree's leaf chain, and over a hash index's bucket chains,
// overflow pages and all.
func TestWalkWindowAllocations(t *testing.T) {
	atoms := []colpage.Atom{{Col: 0, Op: pred.Ge, Val: tuple.I(1000)}}
	fixture := func(insert func(tuple.Tuple) error, p *storage.Pool) {
		for i := 0; i < 2000; i++ {
			if err := insert(tuple.New(uint64(i+1), tuple.I(int64(i)), tuple.S("pay"))); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.FlushAll(); err != nil {
			t.Fatal(err)
		}
		p.EvictAll()
	}
	scans := map[string]func(d *storage.Disk, p *storage.Pool) *colpage.Scan{
		"btree": func(d *storage.Disk, p *storage.Pool) *colpage.Scan {
			tr, err := btree.New(p, d.Open("t"), 0)
			if err != nil {
				t.Fatal(err)
			}
			fixture(func(tp tuple.Tuple) error {
				_, err := tr.ApplyRun([]tuple.Tuple{tp}, nil, -1, nil)
				return err
			}, p)
			s, err := tr.ScanBatches(nil, atoms)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"hash": func(d *storage.Disk, p *storage.Pool) *colpage.Scan {
			ix, err := hashidx.New(p, d.Open("h"), 0, 8)
			if err != nil {
				t.Fatal(err)
			}
			fixture(func(tp tuple.Tuple) error {
				_, err := ix.ApplyRun([]tuple.Tuple{tp}, nil, nil)
				return err
			}, p)
			if ix.Pages() < 4*ix.Buckets() {
				t.Fatalf("%d pages for %d buckets: the fixture needs overflow chains", ix.Pages(), ix.Buckets())
			}
			s, err := ix.ScanAll(atoms)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for name, open := range scans {
		t.Run(name, func(t *testing.T) {
			d := storage.NewDisk(256)
			s := open(d, storage.NewPool(d, storage.NewMeter(), 64))
			allocs := testing.AllocsPerRun(100, func() {
				if fetch, pruned, ok, err := s.WalkWindow(); err != nil || !ok || fetch == 0 && pruned == 0 {
					t.Fatalf("walk: ok %v, err %v, %d fetched, %d pruned", ok, err, fetch, pruned)
				}
			})
			t.Logf("%.0f allocations a walk window", allocs)
			if allocs != 0 {
				t.Errorf("a walk window allocated %.0f objects, want 0", allocs)
			}
		})
	}
}
