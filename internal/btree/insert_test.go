package btree

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"strings"
	"testing"

	"viewmat/internal/colpage"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// insertScript is a fixed sequence of rows for a tree clustered on
// keyCol, sized to the page.
type insertScript struct {
	name   string
	keyCol int
	rows   func(pageSize int) []tuple.Tuple
}

// widest returns the longest string a row (id, int, string) can carry
// and still fit a page of pageSize bytes alone.
func widest(pageSize int) int {
	w := pageSize
	for !colpage.FitsAlone(tuple.New(1, tuple.I(0), tuple.S(strings.Repeat("x", w))), pageSize) {
		w--
	}
	return w
}

// insertScripts are the sequences TestInsertPagesPinned pins: every
// shape of insert order, leaf split and internal split the tree has.
var insertScripts = []insertScript{
	{"ascending", 0, func(int) []tuple.Tuple {
		var out []tuple.Tuple
		for i := int64(0); i < 600; i++ {
			out = append(out, mk(uint64(i+1), i))
		}
		return out
	}},
	{"descending", 0, func(int) []tuple.Tuple {
		var out []tuple.Tuple
		for i := int64(0); i < 600; i++ {
			out = append(out, mk(uint64(i+1), 599-i))
		}
		return out
	}},
	{"shuffled", 0, func(int) []tuple.Tuple {
		var out []tuple.Tuple
		for i, k := range rand.New(rand.NewSource(44)).Perm(600) {
			out = append(out, mk(uint64(i+1), int64(k)))
		}
		return out
	}},
	// Forty keys of fifteen rows each, key by key in shuffled key order:
	// duplicate values that span leaves, told apart by id.
	{"equal keys", 0, func(int) []tuple.Tuple {
		var out []tuple.Tuple
		for _, k := range rand.New(rand.NewSource(45)).Perm(40) {
			for j := 0; j < 15; j++ {
				out = append(out, mk(uint64(len(out)+1), int64(k)))
			}
		}
		return out
	}},
	// Strings from empty to the widest a page holds, in shuffled key
	// order, led by a row too wide to sit beside either neighbour: the
	// leaf splits at its place without it and the row is inserted again.
	{"wide rows", 0, func(pageSize int) []tuple.Tuple {
		w := widest(pageSize)
		var out []tuple.Tuple
		add := func(k int64, width int) {
			out = append(out, tuple.New(uint64(len(out)+1), tuple.I(k), tuple.S(strings.Repeat("s", width))))
		}
		add(1, w/3)
		add(3, w/3)
		add(2, w)
		rng := rand.New(rand.NewSource(46))
		for _, k := range rng.Perm(200) {
			width := []int{0, 3, w / 8, w / 3, w / 2, w - 2*w/5, w}[rng.Intn(7)]
			add(int64(k+10), width)
		}
		return out
	}},
	// String keys up to almost half a page clustered on column 1, so two
	// separators can fill an internal page and its split must find a cut
	// where both halves fit.
	{"wide keys", 1, func(pageSize int) []tuple.Tuple {
		w := widest(pageSize)
		rng := rand.New(rand.NewSource(47))
		var out []tuple.Tuple
		for i := 0; i < 160; i++ {
			width := 4
			if rng.Intn(3) == 0 {
				width = w*2/5 + rng.Intn(w/20+1)
			}
			k := string(rune('a'+rng.Intn(26))) + strings.Repeat("k", width)
			out = append(out, tuple.New(uint64(i+1), tuple.I(int64(i)), tuple.S(k)))
		}
		return out
	}},
}

// insertPageSizes are the page sizes the insert tests build trees of.
var insertPageSizes = []int{256, 512, 4000}

// treeDigest flushes tr's pool and returns a SHA-256 over every page
// image of its file, its root, height, Len and extent, every leaf
// directory entry (link and zone maps) and the meter's stats.
func treeDigest(t testing.TB, tr *Tree, m *storage.Meter) string {
	t.Helper()
	if err := tr.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	writeTreeState(t, h, tr)
	fmt.Fprintf(h, "%v\n", m.Snapshot())
	return hex.EncodeToString(h.Sum(nil))
}

// writeTreeState writes what treeDigest pins of tr, the meter aside, to
// h: the pool must be flushed.
func writeTreeState(t testing.TB, h hash.Hash, tr *Tree) {
	t.Helper()
	ext := tr.file.Extent()
	fmt.Fprintf(h, "root %d height %d len %d extent %d\n", tr.root, tr.height, tr.Len(), ext)
	for pn := storage.PageNum(0); pn < ext; pn++ {
		if err := tr.file.View(pn, func(page []byte) error {
			h.Write(page)
			return nil
		}); err != nil {
			fmt.Fprintf(h, "page %d: %v\n", pn, err)
		}
		e, err := tr.dir.Lookup(pn)
		if err != nil {
			t.Fatal(err)
		}
		if e == nil {
			fmt.Fprintf(h, "entry %d: none\n", pn)
			continue
		}
		z, ok := e.Zones()
		fmt.Fprintf(h, "entry %d: next %d %v zones %v n %d", pn, e.Next, e.HasNext, ok, z.N)
		for _, c := range z.Cols {
			fmt.Fprintf(h, " [%v %v %v]", c.Present, c.Min, c.Max)
		}
		fmt.Fprintln(h)
	}
}

// TestInsertPagesPinned pins the tree one-row inserts build: every page
// byte, the root, height, Len and extent, the leaf directory and the
// charges, for each script at each page size, through a 64-frame
// write-through pool. A change to the insert path that moves any of
// them fails here.
func TestInsertPagesPinned(t *testing.T) {
	want := map[string]string{
		"ascending/256":   "f30faa8d21e5cc85e7df9c0420a2f90fa86c456b7b6dccc204370a7f54571144",
		"ascending/512":   "53cce84f899999d26d3115147131028d9520bc0f5f9432cac610c15d71ee4a38",
		"ascending/4000":  "4002b013f4d203bb45b4ed79aebf3a0bc22405d1698511fa779994de4794a56e",
		"descending/256":  "2f3287c34940aaba32877de0b52e38d9001ebefd5ecaf0382059c788752ae6e8",
		"descending/512":  "d7fa7e42411100f6b6f98b40a398eb481464c5f6a1bde2a6dfb3a5374f629631",
		"descending/4000": "37d26d477daa9e734dfc356fa69589773517b39440c9094792b52bdafec370b3",
		"shuffled/256":    "0bf6181534b065d0c889fe745150d97ae01ba4445c3accfd01ddd67d1f3bc897",
		"shuffled/512":    "1d8e0bdb6f66400eb7df405328216eb9aabf7661dee875d24ac6d8a028c13f57",
		"shuffled/4000":   "dfc2d00e398019106e5df790ecd1c0c4404ae8f77e90fb90b0504d3b95ecfa61",
		"equal keys/256":  "c6bd7bf98184d12837f65441335ccaf368d8881cb10dacd27121affd7dc89f64",
		"equal keys/512":  "76672aa3763a5c981e80248b76e7492f8b99d41aa28c5c6ff8d00deddb9b49c1",
		"equal keys/4000": "ed83357b340145d32ac12fb7ff446ed7676cfbc6f0c53a440be18e846c6f4fb1",
		"wide rows/256":   "e1b708b9ca45322ebbea4cbfdae3d49681143ba8c86cae5270de0a5298a1a9d1",
		"wide rows/512":   "436714fd63c5145e885a33d4318b752a07f3b103a31d7bad42b91a51a2629d87",
		"wide rows/4000":  "cd5d8dc6a10ac4df332c5ddd82f66bb8b36ca30752d6d44acf6dc3e2e0fbb00e",
		"wide keys/256":   "0ef06ad9620d170a00d5cfdc4f7a5c7b8c84fdd1f6700fb86c42ad1a6fb1dc9f",
		"wide keys/512":   "09df4fef426f20e563fce947f1b15eeb85b6b08995d7baf5999a2aa0800bce8a",
		"wide keys/4000":  "547e4e3d20f1d2ef22f27d2f8c776e7353fbb9699837d8552436bbd5827b9339",
	}
	for _, s := range insertScripts {
		for _, ps := range insertPageSizes {
			name := fmt.Sprintf("%s/%d", s.name, ps)
			t.Run(name, func(t *testing.T) {
				d := storage.NewDisk(ps)
				m := storage.NewMeter()
				tr, err := New(storage.NewPool(d, m, 64), d.Open("t"), s.keyCol)
				if err != nil {
					t.Fatal(err)
				}
				rows := s.rows(ps)
				for _, tp := range rows {
					if err := insert(tr, tp); err != nil {
						t.Fatal(err)
					}
				}
				if tr.Len() != len(rows) {
					t.Fatalf("Len %d after %d inserts", tr.Len(), len(rows))
				}
				if got := treeDigest(t, tr, m); got != want[name] {
					t.Errorf("digest %s, pinned %s (height %d, %d leaves, %v)", got, want[name], tr.Height(), tr.LeafPages(), m.Snapshot())
				}
				tr.pool.AssertUnpinned(t)
			})
		}
	}
}

// randomRows returns a random sequence for a tree clustered on column 0:
// stretches of ascending keys from random starts, the way a bulk load
// arrives, among scattered keys and duplicate values, with strings from
// empty to the widest a page holds.
func randomRows(rng *rand.Rand, pageSize int) []tuple.Tuple {
	w := widest(pageSize)
	var out []tuple.Tuple
	for len(out) < 400 {
		k := int64(rng.Intn(1000))
		stretch := 1 + rng.Intn(60)
		step := int64(rng.Intn(3)) // 0: a stretch of one value
		width := []int{0, 5, w / 10, w / 3, w}[rng.Intn(5)]
		for j := 0; j < stretch; j++ {
			if rng.Intn(4) == 0 {
				width = rng.Intn(w + 1)
			}
			out = append(out, tuple.New(uint64(len(out)+1), tuple.I(k), tuple.S(strings.Repeat("r", width))))
			k += step
		}
	}
	return out
}

// cutRuns cuts rows into runs at random points.
func cutRuns(rng *rand.Rand, rows []tuple.Tuple) [][]tuple.Tuple {
	var runs [][]tuple.Tuple
	for len(rows) > 0 {
		n := 1 + rng.Intn(min(len(rows), 1+rng.Intn(120)))
		runs = append(runs, rows[:n])
		rows = rows[n:]
	}
	return runs
}

// TestInsertRunMatchesInsert: inserting rows as runs cut at random points
// leaves every page byte, the root, height, Len, extent and leaf
// directory, and the meter's stats, as inserting them one row at a time
// does — for every pinned script and for random sequences, at each page
// size, through pools of 8 and 256 frames, writing through and inside
// BeginBulk/EndBulk, and through a pool of 2 frames, smaller than most
// of the trees are high, where every visit takes one row.
func TestInsertRunMatchesInsert(t *testing.T) {
	type sequence struct {
		name   string
		keyCol int
		rows   []tuple.Tuple
	}
	rng := rand.New(rand.NewSource(48))
	for _, ps := range insertPageSizes {
		seqs := []sequence{}
		for _, s := range insertScripts {
			seqs = append(seqs, sequence{s.name, s.keyCol, s.rows(ps)})
		}
		for i := 0; i < 4; i++ {
			seqs = append(seqs, sequence{fmt.Sprint("random ", i), 0, randomRows(rng, ps)})
		}
		for _, s := range seqs {
			for _, frames := range []int{2, 8, 256} {
				for _, bulk := range []bool{false, true} {
					cuts := cutRuns(rng, s.rows)
					t.Run(fmt.Sprintf("%s/%d/frames=%d/bulk=%v", s.name, ps, frames, bulk), func(t *testing.T) {
						build := func(runs [][]tuple.Tuple) (string, storage.Stats) {
							d := storage.NewDisk(ps)
							m := storage.NewMeter()
							tr, err := New(storage.NewPool(d, m, frames), d.Open("t"), s.keyCol)
							if err != nil {
								t.Fatal(err)
							}
							if bulk {
								tr.pool.BeginBulk()
							}
							for _, run := range runs {
								if err := insertRun(tr, run); err != nil {
									t.Fatal(err)
								}
							}
							if bulk {
								tr.pool.EndBulk()
							}
							before := m.Snapshot()
							tr.pool.AssertUnpinned(t)
							return treeDigest(t, tr, m), before
						}
						var one [][]tuple.Tuple
						for i := range s.rows {
							one = append(one, s.rows[i:i+1])
						}
						want, wantStats := build(one)
						got, gotStats := build(cuts)
						if gotStats != wantStats {
							t.Errorf("runs charged %v, one-row inserts %v", gotStats, wantStats)
						}
						if got != want {
							t.Errorf("runs left digest %s, one-row inserts %s", got, want)
						}
					})
				}
			}
		}
	}
}

// TestInsertRunErrors: a run stops at its first bad row — a duplicate
// key or a row too wide for any page — with the rows before it inserted
// and charged as one-row inserts would leave them, and the bad row's
// error.
func TestInsertRunErrors(t *testing.T) {
	tooWide := tuple.New(900, tuple.I(5), tuple.S(strings.Repeat("x", 300)))
	for _, c := range []struct {
		name string
		bad  tuple.Tuple
	}{
		{"duplicate", mk(3, 2)},
		{"too wide", tooWide},
	} {
		t.Run(c.name, func(t *testing.T) {
			rows := []tuple.Tuple{mk(1, 0), mk(2, 1), mk(3, 2), mk(4, 3)}
			run := append(append(append([]tuple.Tuple(nil), rows[:3]...), c.bad), mk(5, 4))
			build := func(insert func(tr *Tree) error) (string, error) {
				d := storage.NewDisk(256)
				m := storage.NewMeter()
				tr, err := New(storage.NewPool(d, m, 16), d.Open("t"), 0)
				if err != nil {
					t.Fatal(err)
				}
				err = insert(tr)
				tr.pool.AssertUnpinned(t)
				return treeDigest(t, tr, m), err
			}
			want, wantErr := build(func(tr *Tree) error {
				for _, tp := range run {
					if err := insert(tr, tp); err != nil {
						return err
					}
				}
				return nil
			})
			got, err := build(func(tr *Tree) error { return insertRun(tr, run) })
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("run failed with %v, one-row inserts with %v", err, wantErr)
			}
			if got != want {
				t.Errorf("the failed run left digest %s, one-row inserts %s", got, want)
			}
		})
	}
}

// TestInsertRunAllocations: a 2 000-row ascending run on 4 000-byte pages
// visits each leaf once, so it allocates far less than 2 000 one-row
// inserts did, 8 516 objects (18 609 under the race detector), before
// inserts ran leaf by leaf; the bounds are those counts. The visits
// route their descents on the encoded internal pages in place and
// decode only the separators of each leaf's fence.
func TestInsertRunAllocations(t *testing.T) {
	tr, _ := newTestTree(t, 4000, 256)
	const n = 2000
	rows := make([]tuple.Tuple, 11*n)
	for i := range rows {
		rows[i] = mk(uint64(i+1), int64(i))
	}
	next := 0
	allocs := testing.AllocsPerRun(10, func() {
		if err := insertRun(tr, rows[next:next+n]); err != nil {
			t.Fatal(err)
		}
		next += n
	})
	max := 8516.0
	if raceEnabled() {
		max = 18609
	}
	t.Logf("%.0f allocations a %d-row run (race detector: %v)", allocs, n, raceEnabled())
	if allocs > max {
		t.Errorf("a %d-row run allocated %.0f objects, want at most %.0f", n, allocs, max)
	}
}

// BenchmarkInsertRun loads 2 000 ascending rows into an empty tree of
// 4 000-byte pages through a 256-frame pool, as runs of the arm's
// length: rows=1 is 2 000 one-row inserts, rows=2000 one run.
func BenchmarkInsertRun(b *testing.B) {
	rows := make([]tuple.Tuple, 2000)
	for i := range rows {
		rows[i] = mk(uint64(i+1), int64(i))
	}
	for _, n := range []int{1, 2000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr, _ := newTestTree(b, 4000, 256)
				b.StartTimer()
				for lo := 0; lo < len(rows); lo += n {
					if err := insertRun(tr, rows[lo:lo+n]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
