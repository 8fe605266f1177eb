package btree

import (
	"encoding/binary"
	"strings"
	"testing"
	"unsafe"

	"viewmat/internal/colpage"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// TestDescentRejectsDamagedImages damages the root's image after descents
// have kept its node: once through a frame written back over it, once in
// a snapshot restored with storage.RestoreDisk. Either way the kept node
// must go, and every descent after — each one, not just the first — must
// fail with the page's own error, since a failed decode keeps nothing.
func TestDescentRejectsDamagedImages(t *testing.T) {
	damages := []struct {
		name   string
		damage func(page []byte)
		want   string
	}{
		{"not an internal page", func(page []byte) { page[0] = 9 }, "not an internal page"},
		{"zero children", func(page []byte) { binary.BigEndian.PutUint16(page[1:], 0) }, "with 0 children"},
		{"bad value tag", func(page []byte) { page[internalHeader+4] = 0xEE }, "unknown value tag"},
	}
	build := func(t *testing.T) (*storage.Disk, *testTree) {
		t.Helper()
		d := storage.NewDisk(256)
		tr, err := newTree(storage.NewArena(d, 64).NewPool(storage.NewMeter()), d.Open("t"), 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 100; i++ {
			if err := insert(tr, mk(uint64(i+1), i)); err != nil {
				t.Fatal(err)
			}
		}
		if tr.Height() < 2 {
			t.Fatal("fixture has no internal page")
		}
		// Every page to its image, then descents that read in place keep
		// the root's node there.
		if err := tr.pool.Close(); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 100; i += 10 {
			if _, err := tr.findLeaf(&key{val: tuple.I(i), id: uint64(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		return d, tr
	}
	// The page's own error, not the test binary's check of a node kept
	// past the change (checkNode): that one would mean the node outlived
	// its image, and a server, which runs no check, would descend on it.
	own := func(err error, want string) bool {
		return err != nil && strings.Contains(err.Error(), want) && !strings.Contains(err.Error(), "kept node")
	}
	descents := func(t *testing.T, tr *testTree, want string) {
		t.Helper()
		for round := range 3 {
			for _, k := range []*key{nil, {val: tuple.I(-1)}, {val: tuple.I(50), id: 51}, {val: tuple.I(1 << 40)}} {
				if _, err := tr.findLeaf(k); !own(err, want) {
					t.Errorf("round %d, findLeaf(%v): err = %v, want the page's own, naming %q", round, k, err, want)
				}
			}
			if err := insert(tr, mk(1000, 7)); !own(err, want) {
				t.Errorf("round %d, insert: err = %v, want the page's own, naming %q", round, err, want)
			}
		}
		tr.pool.AssertUnpinned(t)
	}
	for _, c := range damages {
		t.Run("written back/"+c.name, func(t *testing.T) {
			_, tr := build(t)
			fr, err := tr.pool.Get(tr.file, tr.root)
			if err != nil {
				t.Fatal(err)
			}
			c.damage(fr.Data)
			fr.MarkDirty()
			if err := tr.pool.Release(fr); err != nil {
				t.Fatal(err)
			}
			// The write-back puts the damage on the image the node was kept
			// for; the eviction sends every descent to that image.
			if err := tr.pool.Close(); err != nil {
				t.Fatal(err)
			}
			descents(t, tr, c.want)
		})
		t.Run("restored/"+c.name, func(t *testing.T) {
			d, tr := build(t)
			img := &storage.DiskImage{PageSize: d.PageSize()}
			if err := img.Apply(d.FullDelta()); err != nil {
				t.Fatal(err)
			}
			c.damage(img.Files[0].Pages[tr.root])
			rd, err := storage.RestoreDisk(img)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := openTree(storage.NewArena(rd, 64).NewPool(storage.NewMeter()), rd.Open("t"), 0, tr.Meta())
			if err != nil {
				t.Fatal(err)
			}
			descents(t, rt, c.want)
		})
	}
}

// keptNodeBytes is what a kept node holds: the node, its slices, its
// String keys' bytes, and the pool's box around it (one interface).
func keptNodeBytes(n *internalNode) int {
	b := int(unsafe.Sizeof(*n)) + cap(n.children)*int(unsafe.Sizeof(storage.PageNum(0))) +
		cap(n.seps)*int(unsafe.Sizeof(key{})) + int(unsafe.Sizeof(any(nil)))
	for _, k := range n.seps {
		if k.val.Type() == tuple.String {
			b += len(k.val.Str())
		}
	}
	return b
}

// keptNode returns the node kept beside internal page pn's bytes, nil
// when there is none, and keeps nothing new.
func keptNode(tr *testTree, pn storage.PageNum) (*internalNode, error) {
	v, err := tr.pool.Derive(tr.file, pn, func(_ []byte, d any) (any, error) { return d, nil })
	n, _ := v.(*internalNode)
	return n, err
}

// TestKeptNodeBytes counts the bytes the kept nodes of a tree the size of
// the benchmark's R at its smaller N take: 20 000 rows of three Int
// columns on 4 000-byte pages, loaded in ascending 2 000-row runs as the
// benchmark loads them. Descents to every leaf keep every internal page's
// node, which then stays as long as its image does; the count bounds what
// keeping them adds to a server's memory per tree of that size.
func TestKeptNodeBytes(t *testing.T) {
	d := storage.NewDisk(4000)
	tr, err := newTree(storage.NewArena(d, 256).NewPool(storage.NewMeter()), d.Open("t"), 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	rows := make([]tuple.Tuple, 0, 2000)
	for lo := int64(0); lo < n; lo += 2000 {
		rows = rows[:0]
		for k := lo; k < lo+2000; k++ {
			rows = append(rows, tuple.New(uint64(k+1), tuple.I(k), tuple.I(k*40503%n), tuple.I(k%1000)))
		}
		if err := insertRun(tr, rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.pool.Close(); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < n; k += 10 {
		if _, err := tr.findLeaf(&key{val: tuple.I(k), id: uint64(k + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Walk the internal levels through the kept nodes alone.
	bytes, pages := 0, 0
	level := []storage.PageNum{tr.root}
	for h := tr.Height(); h > 1; h-- {
		var next []storage.PageNum
		for _, pn := range level {
			node, err := keptNode(tr, pn)
			if err != nil {
				t.Fatal(err)
			}
			if node == nil {
				t.Fatalf("internal page %d kept no node after descents to every leaf", pn)
			}
			bytes += keptNodeBytes(node)
			pages++
			next = append(next, node.children...)
		}
		level = next
	}
	leaves := tr.LeafPages()
	t.Logf("%d internal pages keep %d bytes (%.1f KiB) over %d leaves of %d bytes",
		pages, bytes, float64(bytes)/1024, leaves, d.PageSize())
	if tree := (leaves + pages) * d.PageSize(); bytes*20 > tree {
		t.Errorf("kept nodes take %d bytes, more than 5%% of the tree's %d", bytes, tree)
	}
	if err := tr.pool.Close(); err != nil {
		t.Fatal(err)
	}
	tr.pool.AssertUnpinned(t)
}

// keptLaneTree loads rows into a tree on 4 000-byte pages, each run one
// ApplyRun, every page written to its image.
func keptLaneTree(t *testing.T, runs [][]tuple.Tuple) (*testTree, *storage.Disk, *storage.Meter) {
	t.Helper()
	d := storage.NewDisk(4000)
	m := storage.NewMeter()
	tr, err := newTree(storage.NewArena(d, 256).NewPool(m), d.Open("t"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		if err := insertRun(tr, run); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.pool.Close(); err != nil {
		t.Fatal(err)
	}
	return tr, d, m
}

// scanQMRow is row k of scan-qm's R at n rows: (k, a = k·40503 mod n, p).
func scanQMRow(k, n int64) tuple.Tuple {
	return tuple.New(uint64(k+1), tuple.I(k), tuple.I(k*40503%n), tuple.I((k*7919+17)%1000))
}

// rowRuns makes the rows row(k) for k in [0, n), cut into runs of size.
func rowRuns(n, size int64, row func(k int64) tuple.Tuple) [][]tuple.Tuple {
	var runs [][]tuple.Tuple
	for lo := int64(0); lo < n; lo += size {
		var run []tuple.Tuple
		for k := lo; k < min(lo+size, n); k++ {
			run = append(run, row(k))
		}
		runs = append(runs, run)
	}
	return runs
}

// TestKeptLaneBytes counts the bytes the lanes reads keep beside the
// leaves of the benchmark's relations take, on 4 000-byte pages:
//
//   - scan-qm's R: 100 000 rows (k, a = k·40503 mod N, p) of three Int
//     columns loaded in ascending 2 000-row runs, the way the benchmark
//     loads them — 1 851 half-full leaves of 54 rows. A full scan pruned
//     by a < 1 000 keeps the lanes of the 1 000 leaves it reads, 2.27 MB
//     (the lanes' cells are 54 rows × 32 bytes a leaf, 1.7 MB; the rest
//     is each leaf's vec.Col headers, selection slot and boxes, and the
//     selections the scan published there, the 1 000 rows it kept: the
//     slot's 56 bytes a leaf and those rows took it from 2.20 MB), an
//     unpruned one those of every leaf, 4.18 MB (4.07 MB without slots).
//   - mixed-def's R2: 2 000 rows (jk, info) loaded in one run, after the
//     Model-2 join populate's 10 000 point lookups, one for each a of R's
//     rows with k < N/2 at N = 20 000: every leaf's lanes.
//   - wide-mat's view: 10 000 rows (k, p, __dup) applied in 1 024-row
//     runs as a populate applies them, after one 1 000-row range read.
//
// The lanes then stay as long as their images do. The counts bound what
// keeping them adds to a server's memory: the lanes of a leaf never take
// more than its page.
func TestKeptLaneBytes(t *testing.T) {
	const n, aMul = 100000, 40503
	scanQM := rowRuns(n, 2000, func(k int64) tuple.Tuple { return scanQMRow(k, n) })
	fullScan := func(atoms []colpage.Atom) func(tr *testTree, m *storage.Meter) (int, error) {
		return func(tr *testTree, _ *storage.Meter) (int, error) {
			it, err := tr.ScanAll(atoms)
			if err != nil {
				return 0, err
			}
			_, err = drain(it)
			return tr.LeafPages() - int(it.Pruned()), err
		}
	}
	const mixedN = 20000
	for _, c := range []struct {
		name string
		runs [][]tuple.Tuple
		// read reads the tree and returns how many leaves it read.
		read func(tr *testTree, m *storage.Meter) (int, error)
	}{
		{"scan-qm R, a<1000", scanQM, fullScan([]colpage.Atom{{Col: 1, Op: pred.Lt, Val: tuple.I(1000)}})},
		{"scan-qm R, unpruned", scanQM, fullScan(nil)},
		{"mixed-def R2, join populate", rowRuns(mixedN/10, mixedN/10, func(jk int64) tuple.Tuple {
			return tuple.New(uint64(jk+1), tuple.I(jk), tuple.I(jk*31%977))
		}), func(tr *testTree, _ *storage.Meter) (int, error) {
			for k := int64(0); k < mixedN/2; k++ {
				it, err := tr.ScanBatches(pred.PointRange(tuple.I(k*aMul%mixedN)), nil)
				if err == nil {
					_, err = drain(it)
				}
				if err != nil {
					return 0, err
				}
			}
			return tr.LeafPages(), nil // the probes' a values cover every key
		}},
		{"wide-mat view, 1000-row range read", rowRuns(mixedN/2, 1024, func(k int64) tuple.Tuple {
			return tuple.New(uint64(k+1), tuple.I(k), tuple.I((k*7919+17)%1000), tuple.I(1))
		}), func(tr *testTree, m *storage.Meter) (int, error) {
			before := m.Snapshot()
			it, err := tr.ScanBatches(pred.NewRange(tuple.I(4000), tuple.I(5000), true, false), nil)
			if err == nil {
				_, err = drain(it)
			}
			return int(m.Snapshot().Sub(before).Reads) - (tr.Height() - 1), err
		}},
	} {
		tr, d, m := keptLaneTree(t, c.runs)
		read, err := c.read(tr, m)
		if err == nil {
			err = tr.pool.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		bytes, pages := 0, 0
		for _, v := range keptValues(t, tr) {
			if b := colpage.KeptLaneBytes(v); b > 0 {
				bytes += b
				pages++
			}
		}
		t.Logf("%s: %d of %d leaves keep lanes of %d bytes (%.2f MB), %d bytes a leaf",
			c.name, pages, tr.LeafPages(), bytes, float64(bytes)/1e6, bytes/max(pages, 1))
		if pages != read {
			t.Errorf("%s: %d leaves keep lanes, want the %d the read read", c.name, pages, read)
		}
		if bytes > pages*d.PageSize() {
			t.Errorf("%s: the lanes of %d leaves take %d bytes, more than their pages' %d", c.name, pages, bytes, pages*d.PageSize())
		}
	}
}
