package colpage_test

import (
	"slices"
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
		p.Close()
	}
	scans := map[string]func(d *storage.Disk, p *storage.Pool) *colpage.Scan{
		"btree": func(d *storage.Disk, p *storage.Pool) *colpage.Scan {
			tr, err := btree.New(p, d.Open("t"), 0)
			if err != nil {
				t.Fatal(err)
			}
			fixture(func(tp tuple.Tuple) error {
				_, err := tr.ApplyRun(p, []tuple.Tuple{tp}, nil, -1, nil)
				return err
			}, p)
			s, err := tr.ScanBatches(p, nil, atoms)
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
				_, err := ix.ApplyRun(p, []tuple.Tuple{tp}, nil, nil)
				return err
			}, p)
			if ix.Pages() < 4*ix.Buckets() {
				t.Fatalf("%d pages for %d buckets: the fixture needs overflow chains", ix.Pages(), ix.Buckets())
			}
			s, err := ix.ScanAll(p, atoms)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for name, open := range scans {
		t.Run(name, func(t *testing.T) {
			d := storage.NewDisk(256)
			s := open(d, storage.NewArena(d, 64).NewPool(storage.NewMeter()))
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

// TestWalkSkipsEmptyChainPage: a chain page that holds no row, mid-chain,
// is skipped by the directory walk — never read, counted as pruned — and
// the scan hands out the rows the page-by-page walk of the same chain
// does, which reads every page.
func TestWalkSkipsEmptyChainPage(t *testing.T) {
	const typ colpage.PageType = 5
	d := storage.NewDisk(256)
	p := storage.NewArena(d, 64).NewPool(storage.NewMeter())
	f := d.Open("c")
	dir := colpage.NewDirectory(typ, f)
	pages := [][]tuple.Tuple{
		{tuple.New(1, tuple.I(10), tuple.S("a")), tuple.New(2, tuple.I(11), tuple.S("b"))},
		nil, // the empty page
		{tuple.New(3, tuple.I(12), tuple.S("c"))},
	}
	var frs []*storage.Frame
	for range pages {
		fr, err := p.Alloc(f)
		if err != nil {
			t.Fatal(err)
		}
		frs = append(frs, fr)
	}
	for i, fr := range frs {
		var n colpage.DataPage
		for j, tp := range pages[i] {
			n.InsertRow(j, tp)
		}
		if i+1 < len(frs) {
			n.Next, n.HasNext = frs[i+1].PageNum(), true
		}
		dir.Encode(fr.PageNum(), fr.Data, &n)
		fr.MarkDirty()
	}
	first := frs[0].PageNum()
	for _, fr := range frs {
		if err := p.Release(fr); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// scan drains the chain through a fresh pool of the given frames and
	// directory read from the images, and reports its ids, pages pruned
	// and pages read.
	scan := func(frames int) (ids []uint64, pruned, reads int64) {
		m := storage.NewMeter()
		sp := storage.NewArena(d, frames).NewPool(m)
		s, err := colpage.NewDirectory(typ, f).Scan(sp, first, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		batches, pruned, err := s.Drain(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Close(); err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			ids = append(ids, b.IDs[0][:b.NumRows()]...)
		}
		return ids, pruned, m.Snapshot().Reads
	}
	walked, pruned, reads := scan(64)
	if pruned != 1 || reads != 2 {
		t.Errorf("directory walk pruned %d pages and read %d, want 1 and 2", pruned, reads)
	}
	followed, fpruned, freads := scan(4) // too small a pool for a window
	if fpruned != 0 || freads != 3 {
		t.Errorf("page-by-page walk pruned %d pages and read %d, want 0 and 3", fpruned, freads)
	}
	if !slices.Equal(walked, followed) || !slices.Equal(walked, []uint64{1, 2, 3}) {
		t.Errorf("directory walk handed out ids %v, the page-by-page walk %v, want [1 2 3]", walked, followed)
	}
}
