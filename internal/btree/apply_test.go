package btree

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/yao"
)

// signedBatch is a batch of rows for ApplyRun and their signs.
type signedBatch struct {
	rows  []tuple.Tuple
	signs []int8
}

// plainStream returns random batches of plain rows (k Int, s String) for
// a tree clustered on k: inserts of fresh ids, keys from a range narrow
// enough that their values repeat and span leaves, and strings up to the
// widest a page holds (so inserts split leaves); deletes of live rows,
// some inserted earlier in the same batch; and now and then a delete of
// an absent row or an insert of a live (value, id), which fail.
func plainStream(rng *rand.Rand, pageSize int) []signedBatch {
	w := widest(pageSize)
	var live []tuple.Tuple
	var out []signedBatch
	id := uint64(0)
	for ops := 0; ops < 500; {
		var b signedBatch
		for n := 1 + rng.Intn(1+rng.Intn(40)); n > 0; n-- {
			switch r := rng.Intn(20); {
			case r == 0:
				b.rows = append(b.rows, tuple.New(999999, tuple.I(int64(rng.Intn(200))), tuple.S("")))
				b.signs = append(b.signs, -1)
			case r == 1 && len(live) > 0:
				b.rows = append(b.rows, live[rng.Intn(len(live))])
				b.signs = append(b.signs, 1)
			case r < 10 && len(live) > 0:
				i := rng.Intn(len(live))
				b.rows = append(b.rows, live[i])
				b.signs = append(b.signs, -1)
				live = append(live[:i], live[i+1:]...)
			default:
				id++
				width := []int{0, 5, w / 10, w / 3, w}[rng.Intn(5)]
				tp := tuple.New(id, tuple.I(int64(rng.Intn(200))), tuple.S(strings.Repeat("p", width)))
				b.rows = append(b.rows, tp)
				b.signs = append(b.signs, 1)
				live = append(live, tp)
			}
		}
		ops += len(b.rows)
		out = append(out, b)
	}
	return out
}

// countedStream returns random batches of counted rows (k Int, s String,
// n Int = 1): a few keys of many rows each, so equal rows repeat and raise
// counts, a key's rows span leaves, and strings are long enough to split
// leaves; deletes of rows inserted before (possibly in the same batch),
// and now and then of a row never inserted, an underflow.
func countedStream(rng *rand.Rand, pageSize int) []signedBatch {
	w := widest(pageSize) - 12
	var inserted []tuple.Tuple
	var out []signedBatch
	id := uint64(0)
	for ops := 0; ops < 500; {
		var b signedBatch
		for n := 1 + rng.Intn(1+rng.Intn(40)); n > 0; n-- {
			id++
			switch r := rng.Intn(20); {
			case r == 0:
				b.rows = append(b.rows, tuple.New(id, tuple.I(int64(rng.Intn(30))), tuple.S("never"), tuple.I(1)))
				b.signs = append(b.signs, -1)
			case r < 8 && len(inserted) > 0:
				i := rng.Intn(len(inserted))
				tp := inserted[i]
				b.rows = append(b.rows, tuple.New(id, tp.Vals...))
				b.signs = append(b.signs, -1)
				inserted = append(inserted[:i], inserted[i+1:]...)
			default:
				width := []int{0, 3, w / 8, w / 3}[rng.Intn(4)]
				tp := tuple.New(id, tuple.I(int64(rng.Intn(30))), tuple.S(strings.Repeat("c", width)), tuple.I(1))
				b.rows = append(b.rows, tp)
				b.signs = append(b.signs, 1)
				inserted = append(inserted, tp)
			}
		}
		ops += len(b.rows)
		out = append(out, b)
	}
	return out
}

// applyPlainAlone applies one plain row alone, as Insert or deleteRow,
// appending the row a delete cuts to *cut.
func applyPlainAlone(tr *testTree, tp tuple.Tuple, sign int8, cut *[]tuple.Tuple) error {
	if sign > 0 {
		return insert(tr, tp)
	}
	old, ok, err := deleteRow(tr, tp.Vals[tr.keyCol], tp.ID)
	if err == nil && !ok {
		err = ErrAbsent
	}
	if ok {
		*cut = append(*cut, old)
	}
	return err
}

// errUnderflow is applyCountedAlone's delete of a row not stored.
var errUnderflow = errors.New("underflow")

// applyCountedAlone applies one counted row, its count in column
// countCol, as a view maintains it row by row: a point lookup of its key
// value, then a rewrite of the count of the first row equal to it on
// every other column (the pair of its delete and its insert, same key and
// id), its deleteRow at a count of zero, or its Insert. The row deleteRow
// cuts is appended to *cut.
func applyCountedAlone(t testing.TB, tr *testTree, tp tuple.Tuple, sign int8, countCol int, cut *[]tuple.Tuple) error {
	it, err := tr.ScanBatches(pred.PointRange(tp.Vals[tr.keyCol]), nil)
	if err != nil {
		return err
	}
	for _, row := range collect(t, it) {
		match := true
		for c := range row.Vals {
			if c != countCol && !tuple.Equal(row.Vals[c], tp.Vals[c]) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		cnt := row.Vals[countCol].Int() + int64(sign)*tp.Vals[countCol].Int()
		if cnt <= 0 {
			old, _, err := deleteRow(tr, row.Vals[tr.keyCol], row.ID)
			*cut = append(*cut, old)
			return err
		}
		vals := append([]tuple.Value(nil), row.Vals...)
		vals[countCol] = tuple.I(cnt)
		_, err := tr.ApplyRun([]tuple.Tuple{row, {ID: row.ID, Vals: vals}}, []int8{-1, 1}, -1, nil)
		return err
	}
	if sign < 0 {
		return errUnderflow
	}
	return insert(tr, tp)
}

// TestApplyRunMatchesRowByRow: applying random signed batches with
// ApplyRun — plain rows, and counted rows whose leavers the test applies
// alone as a view does — leaves every page byte, the root, height, Len,
// extent and leaf directory, each batch's error and the rows its deletes
// cut as applying the rows one at a time does: at pages of 256 and
// 4 000 bytes, through pools of 2 (smaller than most trees are high), 8,
// 16 and 256 frames, each batch one write scope and (bulk) the whole
// stream one. Where no scope evicts, both charge the same reads and
// writes, scope by scope (matchesRowByRow).
func TestApplyRunMatchesRowByRow(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, ps := range []int{256, 4000} {
		for _, counted := range []bool{false, true} {
			for i := 0; i < 3; i++ {
				stream, countCol := plainStream(rng, ps), -1
				if counted {
					stream, countCol = countedStream(rng, ps), 2
				}
				for _, frames := range []int{2, 8, 16, 256} {
					for _, bulk := range []bool{false, true} {
						t.Run(fmt.Sprintf("%d/counted=%v/%d/frames=%d/bulk=%v", ps, counted, i, frames, bulk), func(t *testing.T) {
							matchesRowByRow(t, ps, frames, bulk, nil, stream, countCol)
						})
					}
				}
			}
		}
	}
}

// TestUpdateChargesDeleteThenInsert: an update is the pair of its old
// row's delete and its new row's insert, one ApplyRun batch, and is
// charged and leaves the bytes deleteRow then Insert do — when the
// replacement keeps the key and takes a new id, keeps the key and id,
// belongs in another leaf or below the old row's leaf, no longer fits and
// splits the leaf, and when the old row is absent. Each runs from a cold
// pool of 256 frames, and of 2 frames through a tree of height ≥ 3, where
// every visit takes one row.
func TestUpdateChargesDeleteThenInsert(t *testing.T) {
	wide := func(id uint64, k int64) tuple.Tuple {
		return tuple.New(id, tuple.I(k), tuple.S(strings.Repeat("w", 120)))
	}
	var load []tuple.Tuple
	for i := int64(0); i < 200; i++ {
		load = append(load, mk(uint64(i+1), i))
	}
	cases := []struct {
		name    string
		k       int64
		id      uint64
		replace tuple.Tuple
		split   bool
	}{
		{"same key, new id", 40, 41, mk(5000, 40), false},
		{"same key and id", 40, 41, tuple.New(41, tuple.I(40), tuple.S("rewritten")), false},
		{"another leaf", 40, 41, mk(5000, 190), false},
		{"a key below the leaf", 120, 121, mk(5000, 3), false},
		{"no room: the leaf splits", 40, 41, wide(5000, 40), true},
		{"absent", 40, 999, mk(5000, 40), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pair := []signedBatch{{rows: []tuple.Tuple{tuple.New(c.id, tuple.I(c.k)), c.replace}, signs: []int8{-1, 1}}}
			for _, frames := range []int{256, 2} {
				t.Run(fmt.Sprintf("frames=%d", frames), func(t *testing.T) {
					tr, leaves := matchesRowByRow(t, 200, frames, false, load, pair, -1)
					if frames < 256 && tr.Height() < 3 {
						t.Fatalf("height %d, want ≥ 3", tr.Height())
					}
					if split := tr.LeafPages() > leaves; split != c.split {
						t.Errorf("leaves %d → %d: split = %v, want %v", leaves, tr.LeafPages(), split, c.split)
					}
				})
			}
		})
	}
}

// matchesRowByRow applies stream to a tree of ps-byte pages in a pool of
// frames, after loading it with load, twice: with ApplyRun, handing the
// rows it leaves to the row-by-row steps, and one row at a time with
// Insert, deleteRow and the counted rewrite. Each batch with its three
// point reads is one write scope, from a cold pool to a flush; with bulk,
// the whole stream is one. It fails t unless both leave the same pages and directory
// (writeTreeState), errors and cut rows; and, when neither tree outgrew
// the pool (so no scope evicted), the same reads and writes in every
// scope, and no more writes than the pages the scope loaded (each a
// read, the pool being cold) or allocated, nor fewer than the pages it
// changed: a page its rows edited back to its old bytes is dirtied, and
// written, all the same. It returns the ApplyRun tree and its leaf count
// after the load.
func matchesRowByRow(t *testing.T, ps, frames int, bulk bool, load []tuple.Tuple, stream []signedBatch, countCol int) (*testTree, int) {
	t.Helper()
	type result struct {
		tr      *testTree
		leaves  int
		digest  string
		errs    []string
		cut     []tuple.Tuple
		scopes  []storage.Stats
		changed []int // pages each scope changed
		born    []int // pages each scope allocated
	}
	run := func(batch func(tr *testTree, b signedBatch, cut *[]tuple.Tuple) error) result {
		d := storage.NewDisk(ps)
		m := storage.NewMeter()
		tr, err := newTree(storage.NewArena(d, frames).NewPool(m), d.Open("t"), 0)
		if err == nil && load != nil {
			err = insertRun(tr, load)
		}
		if err != nil {
			t.Fatal(err)
		}
		res := result{tr: tr, leaves: tr.LeafPages()}
		var before storage.Stats
		var extent storage.PageNum
		for i, b := range stream {
			if i == 0 || !bulk {
				if err := tr.pool.Close(); err != nil {
					t.Fatal(err)
				}
				d.ResetChanges()
				before, extent = m.Snapshot(), tr.file.Extent()
			}
			res.errs = append(res.errs, fmt.Sprint(batch(tr, b, &res.cut)))
			// Point reads inside the scope, over the pages it dirtied.
			for j := 0; j < 3; j++ {
				if _, _, err := tr.Get(tuple.I(int64((i*7+j*61)%200)), 1); err != nil {
					t.Fatal(err)
				}
			}
			if bulk && i < len(stream)-1 {
				continue
			}
			if err := tr.pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
			res.scopes = append(res.scopes, m.Snapshot().Sub(before))
			changed := 0
			for _, f := range d.Delta().Files {
				changed += len(f.Pages)
			}
			res.changed = append(res.changed, changed)
			res.born = append(res.born, int(tr.file.Extent()-extent))
		}
		tr.pool.AssertUnpinned(t)
		h := sha256.New()
		writeTreeState(t, h, tr)
		res.digest = hex.EncodeToString(h.Sum(nil))
		return res
	}
	alone := func(tr *testTree, tp tuple.Tuple, sign int8, cut *[]tuple.Tuple) error {
		if countCol >= 0 {
			return applyCountedAlone(t, tr, tp, sign, countCol, cut)
		}
		return applyPlainAlone(tr, tp, sign, cut)
	}
	want := run(func(tr *testTree, b signedBatch, cut *[]tuple.Tuple) error {
		for i, tp := range b.rows {
			if err := alone(tr, tp, b.signs[i], cut); err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
		}
		return nil
	})
	got := run(func(tr *testTree, b signedBatch, cut *[]tuple.Tuple) error {
		for done := 0; done < len(b.rows); {
			n, err := tr.ApplyRun(b.rows[done:], b.signs[done:], countCol, cut)
			if done += n; errors.Is(err, ErrAbsent) {
				err = ErrAbsent // its message names the row; the lone delete's does not
			}
			if err != nil {
				return fmt.Errorf("row %d: %w", done, err)
			}
			if done < len(b.rows) {
				if err := alone(tr, b.rows[done], b.signs[done], cut); err != nil {
					return fmt.Errorf("row %d: %w", done, err)
				}
				done++
			}
		}
		return nil
	})
	if got.digest != want.digest {
		t.Errorf("ApplyRun left digest %s, rows one at a time %s", got.digest, want.digest)
	}
	if fmt.Sprint(got.errs) != fmt.Sprint(want.errs) {
		t.Errorf("ApplyRun errors %v, rows one at a time %v", got.errs, want.errs)
	}
	if fmt.Sprint(got.cut) != fmt.Sprint(want.cut) {
		t.Errorf("ApplyRun cut rows %v, rows one at a time %v", got.cut, want.cut)
	}
	if int(got.tr.file.Extent()) > frames || int(want.tr.file.Extent()) > frames {
		return got.tr, got.leaves
	}
	for i := range got.scopes {
		if got.scopes[i] != want.scopes[i] {
			t.Errorf("scope %d: ApplyRun charged %v, rows one at a time %v", i, got.scopes[i], want.scopes[i])
		}
		sc := got.scopes[i]
		if sc.Writes < int64(got.changed[i]) || sc.Writes > sc.Reads+int64(got.born[i]) {
			t.Errorf("scope %d: %d writes for %d changed pages, %d loaded and %d allocated", i, sc.Writes, got.changed[i], sc.Reads, got.born[i])
		}
	}
	return got.tr, got.leaves
}

// TestApplyRunWritesMatchYao: one ApplyRun of k deletes drawn uniformly
// without replacement from the n rows of a tree on m leaves, in key
// order and inside one write scope, writes each leaf it edits once, so
// its writes are the number of distinct leaves k draws touch — what
// Yao's y(n, m, k) prices a batch's block accesses at. y is an
// expectation and one batch is one draw (DESIGN §6), so the test
// averages the writes of 200 draws per k and holds the mean within 2 %
// of yao.Y. An ascending load leaves every leaf but the last half full,
// the even blocking Yao assumes. The pool holds the whole tree, so
// nothing is written at an eviction.
func TestApplyRunWritesMatchYao(t *testing.T) {
	const n, draws, tolerance = 10000, 200, 0.02
	tr, m := newTestTree(t, 4000, 1024)
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = mk(uint64(i+1), int64(i))
	}
	if err := insertRun(tr, rows); err != nil {
		t.Fatal(err)
	}
	leaves := tr.LeafPages()
	if tr.file.Extent() > 1024 {
		t.Fatalf("the tree of %d pages outgrows the pool", tr.file.Extent())
	}
	rng := rand.New(rand.NewSource(54))
	for _, k := range []int{5, 50, 500} {
		total := int64(0)
		for range draws {
			batch := make([]tuple.Tuple, k)
			signs := make([]int8, k)
			for i, r := range rng.Perm(n)[:k] {
				batch[i], signs[i] = rows[r], -1
			}
			slices.SortFunc(batch, func(a, b tuple.Tuple) int { return cmp.Compare(a.ID, b.ID) })
			if err := tr.pool.Close(); err != nil {
				t.Fatal(err)
			}
			before := m.Snapshot()
			if got, err := tr.ApplyRun(batch, signs, -1, nil); err != nil || got != k {
				t.Fatalf("applied %d of %d deletes: %v", got, k, err)
			}
			if err := tr.pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
			total += m.Snapshot().Sub(before).Writes
			// Put the rows back, outside the measured scope.
			if err := insertRun(tr, batch); err != nil {
				t.Fatal(err)
			}
		}
		mean, want := float64(total)/draws, yao.Y(n, float64(leaves), float64(k))
		t.Logf("k=%d: %.2f leaf writes a batch, y(%d, %d, %d) = %.2f", k, mean, n, leaves, k, want)
		if math.Abs(mean-want) > tolerance*want {
			t.Errorf("k=%d: %.2f leaf writes a batch, y(%d, %d, %d) = %.2f, off by more than %.0f %%", k, mean, n, leaves, k, want, 100*tolerance)
		}
	}
	if tr.LeafPages() != leaves {
		t.Fatalf("the reinserts moved the leaf count from %d to %d", leaves, tr.LeafPages())
	}
}
