package colpage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// rowsOf strips the ids off tuples.
func rowsOf(tuples []tuple.Tuple) [][]tuple.Value {
	out := make([][]tuple.Value, len(tuples))
	for i, tp := range tuples {
		out[i] = tp.Vals
	}
	return out
}

// rowBytes is the row-codec form of rows: the bit-exact equality oracle.
func rowBytes(rows [][]tuple.Value) []byte {
	var out []byte
	for _, r := range rows {
		out = tuple.New(0, r...).Encode(out)
	}
	return out
}

// laneBytes cuts the value lanes out of a page chunk.
func laneBytes(t testing.TB, chunk []byte) []byte {
	t.Helper()
	rows, _, footOff, err := header(chunk)
	if err != nil {
		t.Fatal(err)
	}
	off, err := (&lane{}).locateFOR(chunk[:footOff], chunkHeader, rows)
	if err != nil {
		t.Fatal(err)
	}
	return chunk[off:footOff]
}

// TestRowSetMatchesChunk: a row set's lanes are byte for byte the page
// chunk's lanes for the same rows, and the two lane decoders read them
// to the same values.
func TestRowSetMatchesChunk(t *testing.T) {
	cases := map[string][]tuple.Tuple{
		"one-int":       {tuple.New(1, tuple.I(42))},
		"for-and-rle":   {tuple.New(1, tuple.I(100), tuple.I(7)), tuple.New(2, tuple.I(101), tuple.I(7)), tuple.New(3, tuple.I(355), tuple.I(7))},
		"int-extremes":  {tuple.New(1, tuple.I(math.MinInt64)), tuple.New(2, tuple.I(math.MaxInt64))},
		"floats":        {tuple.New(1, tuple.F(math.NaN())), tuple.New(2, tuple.F(math.Inf(-1))), tuple.New(3, tuple.F(math.Copysign(0, -1)))},
		"strings-raw":   {tuple.New(1, tuple.S("alpha")), tuple.New(2, tuple.S("")), tuple.New(3, tuple.S(strings.Repeat("z", 500)))},
		"strings-dict":  repeatStrings(64, "red", "green", "blue"),
		"mixed":         {tuple.New(1, tuple.I(1)), tuple.New(2, tuple.S("two")), tuple.New(3, tuple.F(3.0))},
		"zero-columns":  {tuple.New(7), tuple.New(8)},
		"several-lanes": repeatStrings(300, "a", "b", "c", "d", "e"),
	}
	for name, tuples := range cases {
		t.Run(name, func(t *testing.T) {
			rows := rowsOf(tuples)
			set, err := AppendRows(nil, rows)
			if err != nil {
				t.Fatal(err)
			}
			if lanes := laneBytes(t, mustEncode(t, tuples)); !bytes.Equal(set[rowSetHeader:], lanes) {
				t.Fatalf("row-set lanes differ from the chunk's:\n set   %x\n chunk %x", set[rowSetHeader:], lanes)
			}
			got, err := DecodeRows(set, len(rows)*max(len(rows[0]), 1))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rowBytes(got), rowBytes(rows)) {
				t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, rows)
			}
		})
	}
}

func TestAppendRowsRejectsMixedArity(t *testing.T) {
	_, err := AppendRows(nil, [][]tuple.Value{{tuple.I(1)}, {tuple.I(1), tuple.I(2)}})
	if err == nil {
		t.Fatal("mixed arity accepted")
	}
}

// TestDecodeRowsChecksBeforeAllocating: a constant column's lane claims
// 65 535 cells in ten bytes; the cell cap refuses it by the header
// alone, and the same bytes decode under a cap that admits them.
func TestDecodeRowsChecksBeforeAllocating(t *testing.T) {
	rows := make([][]tuple.Value, MaxChunkRows)
	for i := range rows {
		rows[i] = []tuple.Value{tuple.I(9)}
	}
	set, err := AppendRows(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != rowSetHeader+10 {
		t.Fatalf("constant column took %d bytes, want a 10-byte zero-width lane", len(set))
	}
	if _, err := DecodeRows(set, MaxChunkRows-1); err == nil {
		t.Fatal("row set over the cell cap accepted")
	}
	if got, err := DecodeRows(set, MaxChunkRows); err != nil || len(got) != MaxChunkRows {
		t.Fatalf("DecodeRows = %d rows, %v", len(got), err)
	}
	// Zero columns: the rows themselves count against the cap.
	binary.BigEndian.PutUint32(set, math.MaxUint32)
	binary.BigEndian.PutUint16(set[4:], 0)
	if _, err := DecodeRows(set[:rowSetHeader], 1<<20); err == nil {
		t.Fatal("four billion empty rows accepted")
	}
}

// FuzzRowSetLanes is the differential for the one lane encoder: an answer
// built the way a read builds it — the live rows of several batches
// (vec.Batch.AppendLive), through a selection vector and, for a stored
// view, expanded by Dup counts of 0, 1 and more — must encode
// (AppendLanes) to exactly the bytes of AppendRows over the same rows
// gathered to tuple.Values, and DecodeRows must read them back. kinds
// picks one column per byte: small-range ints, wide ints, floats with
// NaN, ±0 and infinities, strings on either side of the 256-entry
// dictionary bound, and mixed types (a widened column).
func FuzzRowSetLanes(f *testing.F) {
	f.Add(int64(1), []byte{0, 1})
	f.Add(int64(2), []byte{2, 3, 4})
	f.Add(int64(3), []byte{3, 3})
	f.Add(int64(4), []byte{4})
	f.Add(int64(5), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, kinds []byte) {
		if len(kinds) > 6 {
			kinds = kinds[:6]
		}
		rng := rand.New(rand.NewSource(seed))
		cards := make([]int, len(kinds)) // distinct strings per string column
		for c := range cards {
			cards[c] = 1 + rng.Intn(12)
			if rng.Intn(2) == 0 {
				cards[c] = maxDict - 6 + rng.Intn(12)
			}
		}
		cell := func(c int) tuple.Value {
			switch kinds[c] % 5 {
			case 0:
				return tuple.I(int64(rng.Intn(4)))
			case 1:
				return tuple.I([]int64{math.MinInt64, math.MaxInt64, 0, -1}[rng.Intn(4)] + rng.Int63n(1000))
			case 2:
				return tuple.F([]float64{math.NaN(), math.Float64frombits(0x7ff8dead0000beef), 0, math.Copysign(0, -1),
					math.Inf(1), math.Inf(-1), rng.NormFloat64()}[rng.Intn(7)])
			case 3:
				return tuple.S(fmt.Sprintf("s%d", rng.Intn(cards[c])))
			default:
				return []tuple.Value{tuple.I(rng.Int63()), tuple.F(rng.Float64()), tuple.S(strings.Repeat("m", rng.Intn(4)))}[rng.Intn(3)]
			}
		}
		byDup := rng.Intn(2) == 0
		lanes := make([]vec.Col, len(kinds))
		var want [][]tuple.Value
		var idx []int
		n := 0
		for batches := 1 + rng.Intn(3); batches > 0; batches-- {
			b := &vec.Batch{}
			dupMode := rng.Intn(3) // no Dup lane (all 0), all 1, or 0..3
			for rows := rng.Intn(400); rows > 0; rows-- {
				vals := make([]tuple.Value, len(kinds))
				for c := range vals {
					vals[c] = cell(c)
				}
				dup := int64(dupMode)
				if dupMode == 2 {
					dup = int64(rng.Intn(4))
				}
				b.TryAppend(&tuple.Tuple{ID: 1, Vals: vals}, nil, nil, false, dup, 1<<20)
			}
			if rng.Intn(2) == 0 {
				b.Sel = []int{}
				for i := 0; i < b.NumRows(); i++ {
					if rng.Intn(3) > 0 {
						b.Sel = append(b.Sel, i)
					}
				}
			}
			src := b.Slots[0]
			if src == nil {
				src = make([]vec.Col, len(kinds)) // a batch of no rows
			}
			var got int
			got, idx = b.AppendLive(lanes, src, byDup, idx)
			n += got
			for k := 0; k < b.LiveCount(); k++ {
				i := b.LiveIndex(k)
				reps := int64(1)
				if byDup {
					reps = b.DupAt(i)
				}
				for ; reps > 0; reps-- {
					want = append(want, b.TupleAt(0, i).Vals)
				}
			}
		}
		if n != len(want) {
			t.Fatalf("AppendLive counted %d rows, the gather %d", n, len(want))
		}
		set, err := AppendLanes(nil, n, lanes)
		if err != nil {
			t.Fatal(err)
		}
		rowSet, err := AppendRows(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(set, rowSet) {
			t.Fatalf("lane encoder and AppendRows disagree on %d rows:\n lanes %x\n rows  %x", n, set, rowSet)
		}
		got, err := DecodeRows(set, n*max(len(kinds), 1))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || !bytes.Equal(rowBytes(got), rowBytes(want)) {
			t.Fatalf("round trip of %d rows changed them", n)
		}
	})
}

func TestDecodeRowsRejectsDamage(t *testing.T) {
	set, err := AppendRows(nil, rowsOf(repeatStrings(40, "x", "y")))
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), set...)) }
	cases := map[string][]byte{
		"empty":              {},
		"short header":       set[:rowSetHeader-1],
		"truncated":          set[:len(set)-1],
		"trailing byte":      append(append([]byte(nil), set...), 0),
		"unknown lane":       mutate(func(b []byte) []byte { b[rowSetHeader] = 99; return b }),
		"rows overstate":     mutate(func(b []byte) []byte { binary.BigEndian.PutUint32(b, 41); return b }),
		"cols overstate":     mutate(func(b []byte) []byte { binary.BigEndian.PutUint16(b[4:], 3); return b }),
		"empty with columns": {0, 0, 0, 0, 0, 1, encMixed},
	}
	for name, b := range cases {
		if _, err := DecodeRows(b, 1<<20); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
