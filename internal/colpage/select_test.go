package colpage

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"viewmat/internal/pred"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// The selected decode is held to the full decode: for every atom list,
// DecodeWhere (and Take) must return exactly the rows of the full decode
// for which every atom holds under pred.Op.Holds, count the rest as
// dropped, and fail on a corrupt chunk with the error the full decode
// gives.

// edgeValues are the constants every column is compared against: each
// type's extremes, NaN and both zeros (which tuple.Compare orders equal
// to everything and to each other), and strings around the seeds' cells.
var edgeValues = []tuple.Value{
	tuple.I(0), tuple.I(-1), tuple.I(7), tuple.I(math.MinInt64), tuple.I(math.MaxInt64),
	tuple.F(math.NaN()), tuple.F(0), tuple.F(math.Copysign(0, -1)), tuple.F(math.Inf(-1)), tuple.F(2.5),
	tuple.S(""), tuple.S("m"), tuple.S("x"),
}

var allOps = []pred.Op{pred.Eq, pred.Ne, pred.Lt, pred.Le, pred.Gt, pred.Ge}

// atomSets draws the atom lists a differential runs: every op against
// every edge value and against the first, middle and last cell, on each
// of the first four columns; an atom on a column the rows do not have
// and one with an op no comparison has; and conjunctions of pairs of
// those. Rows with many cells get a sample of them.
func atomSets(rows []tuple.Tuple, ncols int) [][]Atom {
	var singles []Atom
	for c := 0; c < min(ncols, 4); c++ {
		var vals []tuple.Value
		if len(rows) > 0 {
			for _, tp := range []tuple.Tuple{rows[0], rows[len(rows)/2], rows[len(rows)-1]} {
				vals = append(vals, tp.Vals[c])
			}
		}
		vals = append(vals, edgeValues...)
		for _, v := range vals {
			for _, op := range allOps {
				singles = append(singles, Atom{Col: c, Op: op, Val: v})
			}
		}
	}
	singles = append(singles, Atom{Col: ncols, Op: pred.Eq, Val: tuple.I(0)}, Atom{Col: 0, Op: pred.Op(200), Val: tuple.I(0)})
	sets := make([][]Atom, 0, len(singles)*6/5)
	for i, a := range singles {
		sets = append(sets, []Atom{a})
		if i%5 == 0 {
			sets = append(sets, []Atom{a, singles[(i*31+7)%len(singles)]})
		}
	}
	if len(rows) > 1024 { // a cheap lane can stand for 65 535 rows
		sets = sets[:min(len(sets), 16)]
	}
	return sets
}

// keepWhere is the oracle: the rows for which every atom on a column
// they have holds.
func keepWhere(rows []tuple.Tuple, atoms []Atom) []tuple.Tuple {
	var out []tuple.Tuple
	for _, tp := range rows {
		keep := true
		for _, a := range atoms {
			if a.Col >= 0 && a.Col < len(tp.Vals) && !a.Op.Holds(tp.Vals[a.Col], a.Val) {
				keep = false
			}
		}
		if keep {
			out = append(out, tp)
		}
	}
	return out
}

// checkSelected runs the chunk differential.
func checkSelected(chunk []byte) error {
	ids, cols, err := DecodeInto(chunk, nil, nil)
	var rows []tuple.Tuple
	ncols := 0
	if err == nil {
		rows, ncols = lanesTuples(ids, cols), len(cols)
	} else if _, c, _, herr := header(chunk); herr == nil {
		ncols = c
	}
	for _, atoms := range atomSets(rows, ncols) {
		sids, scols, dropped, serr := DecodeWhere(chunk, atoms, nil, nil)
		if fmt.Sprint(serr) != fmt.Sprint(err) {
			return fmt.Errorf("atoms %v: error %v; without atoms %v", atoms, serr, err)
		}
		if err != nil {
			continue
		}
		for c := range scols {
			if scols[c].Len() != len(sids) {
				return fmt.Errorf("atoms %v: column %d holds %d cells for %d rows", atoms, c, scols[c].Len(), len(sids))
			}
		}
		want := keepWhere(rows, atoms)
		if got := lanesTuples(sids, scols); !bytes.Equal(refBytes(got), refBytes(want)) {
			return fmt.Errorf("atoms %v: selected decode\n %v\nwant\n %v", atoms, got, want)
		}
		if dropped != len(rows)-len(want) {
			return fmt.Errorf("atoms %v: %d dropped of %d rows, %d kept", atoms, dropped, len(rows), len(want))
		}
		if err := sameAsKept(&kept{Lanes: Lanes{ids, cols}}, atoms, sids, scols, dropped); err != nil {
			return err
		}
	}
	return nil
}

// checkSelectedPage runs the page differential: Take with atoms, staged
// and direct, against the page decode filtered.
func checkSelectedPage(pt PageType, page []byte) error {
	n, derr := decodePage(pt, page)
	_, _, err := pt.Take(page, nil, nil, 0, &Lanes{})
	var rows []tuple.Tuple
	ncols := 0
	if derr == nil && len(n.IDs) > 0 {
		rows, ncols = lanesTuples(n.IDs, n.Cols), len(n.Cols)
	}
	for _, atoms := range atomSets(rows, ncols) {
		var staged Lanes
		_, dropped, serr := pt.Take(page, atoms, nil, 0, &staged)
		b := &vec.Batch{}
		direct, bdropped, berr := pt.Take(page, atoms, b, math.MaxUint16, &Lanes{})
		if fmt.Sprint(serr) != fmt.Sprint(err) || fmt.Sprint(berr) != fmt.Sprint(err) {
			return fmt.Errorf("atoms %v: staged error %v, direct %v; without atoms %v", atoms, serr, berr, err)
		}
		if err != nil {
			continue
		}
		want := refBytes(keepWhere(rows, atoms))
		if got := refBytes(lanesTuples(staged.IDs, staged.Cols)); !bytes.Equal(got, want) {
			return fmt.Errorf("atoms %v: staged rows differ from the page decode filtered", atoms)
		}
		if got := refBytes(lanesTuples(b.IDs[0], b.Slots[0])); !direct || !bytes.Equal(got, want) {
			return fmt.Errorf("atoms %v: direct (%v) rows differ from the page decode filtered", atoms, direct)
		}
		if kept := len(keepWhere(rows, atoms)); dropped != len(rows)-kept || bdropped != dropped {
			return fmt.Errorf("atoms %v: dropped %d staged, %d direct; %d of %d rows kept", atoms, dropped, bdropped, kept, len(rows))
		}
		if err := keptTakes(pt, page, atoms, want, dropped); err != nil {
			return err
		}
	}
	return nil
}

// Every lane encoding, with the FOR widths that have their own loops and
// one that has none, through the differential.
func TestDecodeWhereEveryEncoding(t *testing.T) {
	ints := func(vals ...int64) []tuple.Tuple {
		out := make([]tuple.Tuple, len(vals))
		for i, v := range vals {
			out[i] = tuple.New(uint64(3*i+1), tuple.I(v), tuple.I(int64(i)))
		}
		return out
	}
	spread := func(step int64) []tuple.Tuple { // 20 values over ~6·step: a FOR lane as wide as that needs
		var vals []int64
		for i := int64(0); i < 20; i++ {
			vals = append(vals, -3*step+(i*7%20)*step/3)
		}
		return ints(vals...)
	}
	const anyWidth = -1
	for _, c := range []struct {
		name   string
		tuples []tuple.Tuple
		enc    byte // column 0's lane encoding, and its FOR width
		w      int
	}{
		{"FOR-w0", ints(5, 5, 5), encIntFOR, 0},
		{"FOR-w1", spread(40), encIntFOR, 1},
		{"FOR-w2", spread(10_000), encIntFOR, 2},
		{"FOR-w3", spread(1_000_000), encIntFOR, 3},
		{"FOR-w4", spread(100_000_000), encIntFOR, 4},
		{"FOR-w5", spread(10_000_000_000), encIntFOR, 5},
		{"FOR-w8", ints(math.MinInt64, math.MaxInt64, -1, 0, 1, math.MinInt64+1), encIntFOR, 8},
		{"RLE", ints(-1<<40, -1<<40, -1<<40, -1<<40, 7, 7, 7, 7, 7, 7, 1<<40, 1<<40, 1<<40, 1<<40, 1<<40, 7), encIntRLE, anyWidth},
		{"floats", []tuple.Tuple{tuple.New(1, tuple.F(math.NaN())), tuple.New(2, tuple.F(math.Copysign(0, -1))),
			tuple.New(3, tuple.F(0)), tuple.New(4, tuple.F(2.5)), tuple.New(5, tuple.F(math.Inf(-1)))}, encFloatRaw, anyWidth},
		{"strings-raw", []tuple.Tuple{tuple.New(1, tuple.S("x")), tuple.New(2, tuple.S("")),
			tuple.New(3, tuple.S(strings.Repeat("m", 300))), tuple.New(4, tuple.S("a"))}, encBytesRaw, anyWidth},
		{"strings-dict", repeatStrings(40, "m", "x", "", "b"), encBytesDict, anyWidth},
		{"mixed", []tuple.Tuple{tuple.New(1, tuple.I(7)), tuple.New(2, tuple.S("m")), tuple.New(3, tuple.F(math.NaN())),
			tuple.New(4, tuple.I(-1)), tuple.New(5, tuple.F(0))}, encMixed, anyWidth},
		{"four-columns", []tuple.Tuple{tuple.New(1, tuple.I(1), tuple.F(1), tuple.S("m"), tuple.I(9)),
			tuple.New(math.MaxUint64, tuple.I(2), tuple.F(-1), tuple.S("x"), tuple.I(9))}, encIntFOR, 1},
		{"zero-columns", []tuple.Tuple{tuple.New(1), tuple.New(2)}, 0, anyWidth},
		{"no-rows", nil, 0, anyWidth},
	} {
		t.Run(c.name, func(t *testing.T) {
			chunk := mustEncode(t, c.tuples)
			if rows, cols, _, err := header(chunk); err == nil && cols > 0 {
				off, _ := (&lane{}).locateFOR(chunk, chunkHeader, rows)
				var l lane
				if _, err := l.locate(chunk, off, rows); err != nil || l.enc != c.enc || c.w != anyWidth && l.w != c.w {
					t.Fatalf("column 0 is lane encoding %d of width %d (%v), want %d of width %d", l.enc, l.w, err, c.enc, c.w)
				}
			}
			if err := checkSelected(chunk); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A selected decode appends onto whatever the lanes hold, like the full
// one: chunk after chunk, the result reads as each chunk's survivors
// concatenated.
func TestDecodeWhereAppends(t *testing.T) {
	chunks := [][]tuple.Tuple{
		{tuple.New(1, tuple.I(100), tuple.S("raw-a")), tuple.New(2, tuple.I(-3), tuple.S("raw-bb"))},
		repeatStrings(12, "m", "x"),
		{tuple.New(9, tuple.F(math.NaN()), tuple.S("")), tuple.New(10, tuple.F(-0.5), tuple.S("x"))},
		{tuple.New(11, tuple.I(1), tuple.I(2)), tuple.New(12, tuple.S("s"), tuple.I(3))},
		{tuple.New(13, tuple.I(-1), tuple.S("tail"))},
	}
	for _, atoms := range [][]Atom{
		{{Col: 0, Op: pred.Lt, Val: tuple.I(50)}},
		{{Col: 1, Op: pred.Ge, Val: tuple.S("m")}},
		{{Col: 0, Op: pred.Ne, Val: tuple.S("x")}, {Col: 1, Op: pred.Gt, Val: tuple.I(2)}},
	} {
		var ids []uint64
		var cols []vec.Col
		var want []tuple.Tuple
		for k, tuples := range chunks {
			var err error
			var dropped int
			if ids, cols, dropped, err = DecodeWhere(mustEncode(t, tuples), atoms, ids, cols); err != nil {
				t.Fatalf("atoms %v, chunk %d: %v", atoms, k, err)
			}
			kept := keepWhere(tuples, atoms)
			want = append(want, kept...)
			if got := lanesTuples(ids, cols); !bytes.Equal(refBytes(got), refBytes(want)) || dropped != len(tuples)-len(kept) {
				t.Fatalf("atoms %v after chunk %d (dropped %d):\n got %v\nwant %v", atoms, k, dropped, got, want)
			}
		}
	}
}
