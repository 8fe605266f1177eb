package colpage

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"viewmat/internal/tuple"
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
	_, off, err := decodeUintFOR(chunk[:footOff], chunkHeader, rows)
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
