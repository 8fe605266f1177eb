package hashidx

import (
	"testing"

	"viewmat/internal/colpage"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// checkDirectory flushes the index's pool and compares the page directory
// its writers kept with one rebuilt from the page images.
func checkDirectory(ix *Index) error {
	if err := ix.pool.FlushAll(); err != nil {
		return err
	}
	return ix.dir.Diff(colpage.NewDirectory(chainPages, ix.file))
}

// TestRestoreRebuildsTheDirectoryWritersKept: the directory Open rebuilds
// from a restored disk is the one the writers kept — over overflow chains,
// deletes, and the pages a truncate freed and a refill reused.
func TestRestoreRebuildsTheDirectoryWritersKept(t *testing.T) {
	d := storage.NewDisk(128)
	ix, err := New(storage.NewPool(d, storage.NewMeter(), 64), d.Open("h"), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(from, to int64) {
		for i := from; i < to; i++ {
			if err := insert(ix, tuple.New(uint64(i+1), tuple.I(i%23), tuple.S(string(rune('a'+i%26))))); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill(0, 120)
	if err := ix.Truncate(); err != nil {
		t.Fatal(err)
	}
	fill(200, 260)
	for i := int64(200); i < 230; i += 3 {
		if _, _, err := deleteRow(ix, tuple.I(i%23), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkDirectory(ix); err != nil {
		t.Fatal(err)
	}
	img := &storage.DiskImage{PageSize: d.PageSize()}
	if err := img.Apply(d.FullDelta()); err != nil {
		t.Fatal(err)
	}
	d2, err := storage.RestoreDisk(img)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Open(storage.NewPool(d2, storage.NewMeter(), 64), d2.Open("h"), 0, ix.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if err := back.dir.Diff(ix.dir); err != nil {
		t.Errorf("rebuilt directory differs from the kept one: %v", err)
	}
}
