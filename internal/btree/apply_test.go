package btree

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
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
func applyPlainAlone(tr *Tree, tp tuple.Tuple, sign int8, cut *[]tuple.Tuple) error {
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
func applyCountedAlone(t testing.TB, tr *Tree, tp tuple.Tuple, sign int8, countCol int, cut *[]tuple.Tuple) error {
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
// extent and leaf directory, the meter's stats, each batch's error and
// the rows its deletes cut as applying the rows one at a time does: at
// pages of 256 and 4 000 bytes, through pools of 2 (smaller than most
// trees are high), 8 and 256 frames, writing through and inside
// BeginBulk/EndBulk.
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
// frames, after loading it with load and emptying the pool, twice: with
// ApplyRun, handing the rows it leaves to the row-by-row steps, and one
// row at a time with Insert, deleteRow and the counted rewrite. It fails t
// unless both leave the same digest (treeDigest), errors and cut rows,
// and returns the ApplyRun tree and its leaf count after the load.
func matchesRowByRow(t *testing.T, ps, frames int, bulk bool, load []tuple.Tuple, stream []signedBatch, countCol int) (*Tree, int) {
	t.Helper()
	run := func(batch func(tr *Tree, b signedBatch, cut *[]tuple.Tuple) error) (*Tree, int, string, []string, []tuple.Tuple) {
		d := storage.NewDisk(ps)
		m := storage.NewMeter()
		tr, err := New(storage.NewPool(d, m, frames), d.Open("t"), 0)
		if err == nil && load != nil {
			if err = insertRun(tr, load); err == nil {
				err = tr.pool.EvictAll()
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		leaves := tr.LeafPages()
		if bulk {
			tr.pool.BeginBulk()
		}
		var errs []string
		var cut []tuple.Tuple
		for i, b := range stream {
			errs = append(errs, fmt.Sprint(batch(tr, b, &cut)))
			// Point reads after each batch: what they miss depends
			// on the recency order the batch left.
			for j := 0; j < 3; j++ {
				if _, _, err := tr.Get(tuple.I(int64((i*7+j*61)%200)), 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		if bulk {
			tr.pool.EndBulk()
		}
		tr.pool.AssertUnpinned(t)
		return tr, leaves, treeDigest(t, tr, m), errs, cut
	}
	alone := func(tr *Tree, tp tuple.Tuple, sign int8, cut *[]tuple.Tuple) error {
		if countCol >= 0 {
			return applyCountedAlone(t, tr, tp, sign, countCol, cut)
		}
		return applyPlainAlone(tr, tp, sign, cut)
	}
	_, _, want, wantErrs, wantCut := run(func(tr *Tree, b signedBatch, cut *[]tuple.Tuple) error {
		for i, tp := range b.rows {
			if err := alone(tr, tp, b.signs[i], cut); err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
		}
		return nil
	})
	tr, leaves, got, gotErrs, gotCut := run(func(tr *Tree, b signedBatch, cut *[]tuple.Tuple) error {
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
	if got != want {
		t.Errorf("ApplyRun left digest %s, rows one at a time %s", got, want)
	}
	if fmt.Sprint(gotErrs) != fmt.Sprint(wantErrs) {
		t.Errorf("ApplyRun errors %v, rows one at a time %v", gotErrs, wantErrs)
	}
	if fmt.Sprint(gotCut) != fmt.Sprint(wantCut) {
		t.Errorf("ApplyRun cut rows %v, rows one at a time %v", gotCut, wantCut)
	}
	return tr, leaves
}

// TestApplyRunKeepsRecencyOrder: a batch whose rows visit leaf A, then B
// twice, then A again leaves the pool's recency order as its rows one at
// a time do — A last — so the pages later reads evict, and then miss,
// are theirs. Each case reads a different number of other leaves after
// the batch before reading A and B again.
func TestApplyRunKeepsRecencyOrder(t *testing.T) {
	const frames = 16
	rows := []tuple.Tuple{mk(3001, 10), mk(3002, 1000), mk(3003, 1001), mk(3004, 11)}
	signs := []int8{1, 1, 1, 1}
	for reads := 0; reads < 24; reads++ {
		run := func(apply func(tr *Tree)) storage.Stats {
			tr, m := newTestTree(t, 1024, frames)
			for i := int64(0); i < 2000; i++ {
				if err := insert(tr, mk(uint64(i+1), i)); err != nil {
					t.Fatal(err)
				}
			}
			if len(rows)*(tr.Height()+1) > frames {
				t.Fatalf("height %d: the batch would not group", tr.Height())
			}
			if err := tr.pool.EvictAll(); err != nil {
				t.Fatal(err)
			}
			m.Reset()
			apply(tr)
			for i := 0; i < reads; i++ {
				if _, _, err := tr.Get(tuple.I(int64(1200+40*i)), uint64(1201+40*i)); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range []int64{10, 1000} {
				if _, _, err := tr.Get(tuple.I(k), uint64(k+1)); err != nil {
					t.Fatal(err)
				}
			}
			return m.Snapshot()
		}
		want := run(func(tr *Tree) {
			for _, tp := range rows {
				if err := insert(tr, tp); err != nil {
					t.Fatal(err)
				}
			}
		})
		got := run(func(tr *Tree) {
			if n, err := tr.ApplyRun(rows, signs, -1, nil); err != nil || n != len(rows) {
				t.Fatalf("applied %d of %d: %v", n, len(rows), err)
			}
		})
		if got != want {
			t.Errorf("%d reads after the batch: ApplyRun then reads charged %v, rows one at a time %v", reads, got, want)
		}
	}
}
