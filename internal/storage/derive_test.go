package storage

import (
	"errors"
	"testing"
)

// deriveCount derives a page's first byte, boxed, and counts the derives.
type deriveCount struct{ n int }

func (c *deriveCount) derive(p *Pool, f *File, pn PageNum) (any, error) {
	return p.Derive(f, pn, func(page []byte, d any) (any, error) {
		if d != nil {
			if *d.(*byte) != page[0] {
				return nil, errors.New("kept value disagrees with the bytes")
			}
			return d, nil
		}
		c.n++
		b := page[0]
		return &b, nil
	})
}

// writePageByte dirties page pn's first byte through a writer's frame.
func writePageByte(t *testing.T, p *Pool, f *File, pn PageNum, b byte) {
	t.Helper()
	fr, err := p.Get(f, pn)
	if err != nil {
		t.Fatal(err)
	}
	fr.Data[0] = b
	fr.MarkDirty()
	if err := p.Release(fr); err != nil {
		t.Fatal(err)
	}
}

// TestDeriveKeepsValueUntilImageChanges: a value derived in place lasts
// across evictions until its image changes — a write-back, a free, a
// freed page's reuse — and one derived from a writer's frame lasts until
// the next Get or MarkDirty. A derive that fails, or makes nothing, keeps
// nothing.
func TestDeriveKeepsValueUntilImageChanges(t *testing.T) {
	d := NewDisk(64)
	p := NewArena(d, 4).NewPool(NewMeter())
	f := d.Open("f")
	fr, err := p.Alloc(f)
	if err != nil {
		t.Fatal(err)
	}
	pn := fr.PageNum()
	fr.Data[0] = 7
	if err := p.Release(fr); err != nil {
		t.Fatal(err)
	}
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	var c deriveCount
	want := func(what string, derives int, b byte) {
		t.Helper()
		v, err := c.derive(p, f, pn)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := *v.(*byte); got != b || c.n != derives {
			t.Fatalf("%s: value %d after %d derives, want %d after %d", what, got, c.n, b, derives)
		}
	}
	want("first in-place read", 1, 7)
	want("second in-place read", 1, 7)
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	want("after an eviction", 1, 7)

	// A writer's frame keeps its own value, which Get and MarkDirty drop.
	writePageByte(t, p, f, pn, 8)
	want("the dirty frame", 2, 8)
	want("the dirty frame again", 2, 8)
	writePageByte(t, p, f, pn, 9)
	want("the frame rewritten", 3, 9)
	// The write-back changes the image, which drops the image's value.
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	want("the image written back", 4, 9)
	want("the image written back, again", 4, 9)

	// A failed derive and an empty one keep nothing.
	fail := errors.New("damaged")
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	g := d.Open("g")
	gfr, err := p.Alloc(g)
	if err != nil {
		t.Fatal(err)
	}
	gpn := gfr.PageNum()
	if err := p.Release(gfr); err != nil {
		t.Fatal(err)
	}
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := p.Derive(g, gpn, func(_ []byte, d any) (any, error) {
			if d != nil {
				t.Fatal("a failed derive was kept")
			}
			return 1, fail
		}); !errors.Is(err, fail) {
			t.Fatalf("err = %v, want %v", err, fail)
		}
		if _, err := p.Derive(g, gpn, func(_ []byte, d any) (any, error) {
			if d != nil {
				t.Fatal("an empty derive was kept")
			}
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	// A freed page keeps no value, and neither does its reuse.
	p.Discard(f, pn)
	f.Free(pn)
	if slot := f.derived[pn].Load(); slot != nil {
		t.Fatal("a freed page kept its value")
	}
	fr, err = p.Alloc(f)
	if err != nil {
		t.Fatal(err)
	}
	if fr.PageNum() != pn {
		t.Fatalf("Alloc took page %d, want the freed %d", fr.PageNum(), pn)
	}
	fr.Data[0] = 5
	if err := p.Release(fr); err != nil {
		t.Fatal(err)
	}
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	want("the freed page reused", 5, 5)

	// A restored disk starts with none.
	img := &DiskImage{PageSize: d.PageSize()}
	if err := img.Apply(d.FullDelta()); err != nil {
		t.Fatal(err)
	}
	rd, err := RestoreDisk(img)
	if err != nil {
		t.Fatal(err)
	}
	rp := NewArena(rd, 4).NewPool(NewMeter())
	if _, err := c.derive(rp, rd.Open("f"), pn); err != nil || c.n != 6 {
		t.Fatalf("restored disk: %d derives, err %v; want a fresh derive", c.n, err)
	}
	p.AssertUnpinned(t)
	rp.AssertUnpinned(t)
}

// TestDeriveAllocations: reading a kept value allocates nothing.
func TestDeriveAllocations(t *testing.T) {
	d := NewDisk(64)
	p := NewArena(d, 4).NewPool(NewMeter())
	f := d.Open("f")
	fr, err := p.Alloc(f)
	if err != nil {
		t.Fatal(err)
	}
	pn := fr.PageNum()
	if err := p.Release(fr); err != nil {
		t.Fatal(err)
	}
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	var c deriveCount
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.derive(p, f, pn); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || c.n != 1 {
		t.Errorf("%.0f allocations a kept read after %d derives, want 0 after 1", allocs, c.n)
	}
}
