package btree

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"slices"
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
func treeDigest(t testing.TB, tr *testTree, m *storage.Meter) string {
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
func writeTreeState(t testing.TB, h hash.Hash, tr *testTree) {
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
// charges, for each script at each page size, through a 64-frame pool,
// the whole load one write scope. A change to the insert path that moves
// any of them fails here. Every cell was pinned again, writes only, when
// the pool came to write back a page once per write scope rather than
// once per row: the pages, the directory and the reads stayed as they
// were, and the writes fell (ascending at 256, 512 and 4 000 bytes:
// 943→175, 755→80, 617→10; the 4 000-byte tree's 10 pages, each once).
func TestInsertPagesPinned(t *testing.T) {
	want := map[string]string{
		"ascending/256":   "5873c19c369e63602cedcfc2a0da8e3fef29131b6ecc1b54a4d1174fa047969b",
		"ascending/512":   "5f1fbaa09ce94007c19d1a4b03d9cf40b6775e140c7b65f61ffbf40e0ce86625",
		"ascending/4000":  "9527d7b21e433a94b1698d454874bd1b9ec2d73bcbffb9c42da18536c3e879bb",
		"descending/256":  "4d83ac169b4a8c9920c43d800e016d16ad11e20e17bb0836df949ede06282acf",
		"descending/512":  "c3bbf11dea54b41acd0920787552af1822efe76f6d4cb205ed75d4e5ce73b87c",
		"descending/4000": "a2ef23943aa187a802a31a5e194412c02d3bc76ab4f1fb8ef237ea99f0628c25",
		"shuffled/256":    "3c6f9518152bde83ea421313bfc2f631a271be6577f913b3a04ba9840f8df487",
		"shuffled/512":    "2f363e5983519f2cc9b1f5bf5cb6fedd9f9e57078416f8999daa870e499fd4aa",
		"shuffled/4000":   "3dc1892b18dadfc952e0e212428577a20e2085dd7386b23a4679f541f40c018e",
		"equal keys/256":  "e3a51ff706f50e81ab216f93ca46772d405d4b62f352e52cea85c6be1ad0ae28",
		"equal keys/512":  "0f3a565c24bf132209793cba5b964155bc183993e7c427841a5e622e39799ee2",
		"equal keys/4000": "83b8eb9a40ab1da589c5de8779d91cb552cfcd65c08d2d55f1bb76b53b107f79",
		"wide rows/256":   "724aca5c8de06fefb1f15314886c4b5d6e6d837c4a45befba6f885323f096bbd",
		"wide rows/512":   "1313ce73b97132081895f62e1e8eec49120fb214f027732fbdff018add40de38",
		"wide rows/4000":  "5b9f7c9533aeb698c8dd599c43269f55ea959c0c4f26307d68047c22f89fc2d5",
		"wide keys/256":   "85e97dc34b04ff8f96befd32196433388c83b516e660df46351a883d60ccf4ec",
		"wide keys/512":   "58a8d1a48578380bae7e0759ed649bccfdd438d29b37b746655a819119f56596",
		"wide keys/4000":  "07066d04f1c279048c45e4e354234c41a0c8dde3f70e537234ac4d7bff451688",
	}
	for _, s := range insertScripts {
		for _, ps := range insertPageSizes {
			name := fmt.Sprintf("%s/%d", s.name, ps)
			t.Run(name, func(t *testing.T) {
				d := storage.NewDisk(ps)
				m := storage.NewMeter()
				tr, err := newTree(storage.NewArena(d, 64).NewPool(m), d.Open("t"), s.keyCol)
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
// directory as inserting them one row at a time does — for every pinned
// script and for random sequences, at each page size, through pools of 8
// and 256 frames, and through a pool of 2 frames, smaller than most of
// the trees are high, where every visit takes one row. Each run, and the
// same rows one at a time, is one write scope, flushed at its end; with
// bulk the whole load is one. Where the tree fits the pool, so no scope
// evicts, both charge the same stats scope by scope, and a bulk load
// writes as many pages as the tree has: each, born in the scope, once.
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
						// build inserts each run as one ApplyRun, or its rows
						// one at a time, and returns the tree's digest, the
						// stats of each scope and the tree's pages.
						build := func(oneRow bool) (string, []storage.Stats, int) {
							d := storage.NewDisk(ps)
							m := storage.NewMeter()
							tr, err := newTree(storage.NewArena(d, frames).NewPool(m), d.Open("t"), s.keyCol)
							if err != nil {
								t.Fatal(err)
							}
							var scopes []storage.Stats
							before := m.Snapshot()
							for i, run := range cuts {
								for _, r := range runOrRows(run, oneRow) {
									if err := insertRun(tr, r); err != nil {
										t.Fatal(err)
									}
								}
								if bulk && i < len(cuts)-1 {
									continue
								}
								if err := tr.pool.FlushAll(); err != nil {
									t.Fatal(err)
								}
								after := m.Snapshot()
								scopes, before = append(scopes, after.Sub(before)), after
							}
							tr.pool.AssertUnpinned(t)
							h := sha256.New()
							writeTreeState(t, h, tr)
							return hex.EncodeToString(h.Sum(nil)), scopes, int(tr.file.Extent())
						}
						want, wantScopes, pages := build(true)
						got, gotScopes, _ := build(false)
						if got != want {
							t.Errorf("runs left digest %s, one-row inserts %s", got, want)
						}
						if pages > frames {
							return
						}
						if !slices.Equal(gotScopes, wantScopes) {
							t.Errorf("runs charged %v, one-row inserts %v", gotScopes, wantScopes)
						}
						if bulk && gotScopes[0].Writes != int64(pages) {
							t.Errorf("%d writes for a tree of %d pages", gotScopes[0].Writes, pages)
						}
					})
				}
			}
		}
	}
}

// runOrRows returns run as one run, or with oneRow as runs of one row.
func runOrRows(run []tuple.Tuple, oneRow bool) [][]tuple.Tuple {
	if !oneRow {
		return [][]tuple.Tuple{run}
	}
	out := make([][]tuple.Tuple, len(run))
	for i := range run {
		out[i] = run[i : i+1]
	}
	return out
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
			build := func(insert func(tr *testTree) error) (string, error) {
				d := storage.NewDisk(256)
				m := storage.NewMeter()
				tr, err := newTree(storage.NewArena(d, 16).NewPool(m), d.Open("t"), 0)
				if err != nil {
					t.Fatal(err)
				}
				err = insert(tr)
				tr.pool.AssertUnpinned(t)
				return treeDigest(t, tr, m), err
			}
			want, wantErr := build(func(tr *testTree) error {
				for _, tp := range run {
					if err := insert(tr, tp); err != nil {
						return err
					}
				}
				return nil
			})
			got, err := build(func(tr *testTree) error { return insertRun(tr, run) })
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
// inserts ran leaf by leaf; the bounds are those counts. The visits'
// descents binary-search the nodes kept beside the internal pages'
// images and the nodes a split keeps on the frames it encodes, so no
// internal page is decoded twice: 2 807 objects while the next descent
// decoded a split's parent again, 2 743 since.
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
