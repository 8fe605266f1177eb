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
// chunk's lanes for the same rows, and DecodeLanes reads them back to
// the same values.
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
			set, err := AppendLanes(nil, len(rows), colsOf(rows))
			if err != nil {
				t.Fatal(err)
			}
			if lanes := laneBytes(t, mustEncode(t, tuples)); !bytes.Equal(set[rowSetHeader:], lanes) {
				t.Fatalf("row-set lanes differ from the chunk's:\n set   %x\n chunk %x", set[rowSetHeader:], lanes)
			}
			got, err := decodeSet(set, len(rows)*max(len(rows[0]), 1))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rowBytes(got), rowBytes(rows)) {
				t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, rows)
			}
		})
	}
}

// TestAppendLanesRejectsRaggedAnswer: every column of an answer holds
// one cell per row, or the answer does not encode.
func TestAppendLanesRejectsRaggedAnswer(t *testing.T) {
	cols := colsOf([][]tuple.Value{{tuple.I(1), tuple.I(2)}, {tuple.I(3), tuple.I(4)}})
	cols[1].Truncate(1)
	if _, err := AppendLanes(nil, 2, cols); err == nil {
		t.Fatal("a column of 1 cell encoded for 2 rows")
	}
	if _, err := AppendLanes(nil, 1, cols); err == nil {
		t.Fatal("a column of 2 cells encoded for 1 row")
	}
}

// TestDecodeLanesChecksBeforeAllocating: a constant column's lane claims
// 65 535 cells in ten bytes; the cell cap refuses it by the header
// alone, and the same bytes decode under a cap that admits them.
func TestDecodeLanesChecksBeforeAllocating(t *testing.T) {
	rows := make([][]tuple.Value, MaxChunkRows)
	for i := range rows {
		rows[i] = []tuple.Value{tuple.I(9)}
	}
	set, err := AppendLanes(nil, len(rows), colsOf(rows))
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != rowSetHeader+10 {
		t.Fatalf("constant column took %d bytes, want a 10-byte zero-width lane", len(set))
	}
	if _, _, err := DecodeLanes(set, MaxChunkRows-1); err == nil {
		t.Fatal("row set over the cell cap accepted")
	}
	if n, _, err := DecodeLanes(set, MaxChunkRows); err != nil || n != MaxChunkRows {
		t.Fatalf("DecodeLanes = %d rows, %v", n, err)
	}
	// Zero columns: the rows themselves count against the cap.
	binary.BigEndian.PutUint32(set, math.MaxUint32)
	binary.BigEndian.PutUint16(set[4:], 0)
	if _, _, err := DecodeLanes(set[:rowSetHeader], 1<<20); err == nil {
		t.Fatal("four billion empty rows accepted")
	}
}

// FuzzRowSetLanes is the differential for the one lane encoder: an answer
// built the way a read builds it — the live rows of several batches
// (vec.Batch.AppendLive), through a selection vector and, for a stored
// view, expanded by Dup counts of 0, 1 and more — must encode
// (AppendLanes) to exactly the bytes of the same rows' lanes built cell
// by cell (vec.Col.Append), and DecodeLanes must read them back. kinds
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
			n += b.LiveLen(byDup)
			idx = b.AppendLive(lanes, src, byDup, idx)
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
			t.Fatalf("LiveLen counted %d rows, the gather %d", n, len(want))
		}
		set, err := AppendLanes(nil, n, lanes)
		if err != nil {
			t.Fatal(err)
		}
		rowSet, err := AppendLanes(nil, n, colsOf(want))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(set, rowSet) {
			t.Fatalf("AppendLive's lanes and cell-by-cell lanes encode apart on %d rows:\n lanes %x\n cells %x", n, set, rowSet)
		}
		got, err := decodeSet(set, n*max(len(kinds), 1))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || !bytes.Equal(rowBytes(got), rowBytes(want)) {
			t.Fatalf("round trip of %d rows changed them", n)
		}
	})
}

// decodeSet decodes a row set to rows of values under the cell cap.
func decodeSet(set []byte, maxCells int) ([][]tuple.Value, error) {
	n, cols, err := DecodeLanes(set, maxCells)
	if err != nil {
		return nil, err
	}
	rows := make([][]tuple.Value, n)
	for i := range rows {
		rows[i] = make([]tuple.Value, len(cols))
		for c := range cols {
			if cols[c].Len() != n {
				return nil, fmt.Errorf("column %d holds %d cells for %d rows", c, cols[c].Len(), n)
			}
			rows[i][c] = cols[c].Value(i)
		}
	}
	return rows, nil
}

// colsOf builds an answer's lanes cell by cell.
func colsOf(rows [][]tuple.Value) []vec.Col {
	if len(rows) == 0 {
		return nil
	}
	cols := make([]vec.Col, len(rows[0]))
	for _, r := range rows {
		for c, v := range r {
			cols[c].Append(v)
		}
	}
	return cols
}

// handSet lays out a row set of rows rows by hand, one lane per column.
func handSet(rows int, lanes ...[]byte) []byte {
	set := binary.BigEndian.AppendUint32(nil, uint32(rows))
	set = binary.BigEndian.AppendUint16(set, uint16(len(lanes)))
	for _, l := range lanes {
		set = append(set, l...)
	}
	return set
}

func TestDecodeLanesRejectsDamage(t *testing.T) {
	rows := rowsOf(repeatStrings(40, "x", "y"))
	set, err := AppendLanes(nil, len(rows), colsOf(rows))
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), set...)) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	u16 := func(n int) []byte { return binary.BigEndian.AppendUint16(nil, uint16(n)) }
	u32 := func(n int) []byte { return binary.BigEndian.AppendUint32(nil, uint32(n)) }
	i64 := func(n int64) []byte { return binary.BigEndian.AppendUint64(nil, uint64(n)) }
	run := func(v int64, n int) []byte { return cat(i64(v), u16(n)) }
	str := func(s string) []byte { return cat(u32(len(s)), []byte(s)) }
	bigDict := cat([]byte{encBytesDict}, u16(maxDict+1), bytes.Repeat(str(""), maxDict+1), []byte{0})
	cases := map[string][]byte{
		"empty":              {},
		"short header":       set[:rowSetHeader-1],
		"truncated":          set[:len(set)-1],
		"trailing byte":      append(append([]byte(nil), set...), 0),
		"unknown lane":       mutate(func(b []byte) []byte { b[rowSetHeader] = 99; return b }),
		"rows overstate":     mutate(func(b []byte) []byte { binary.BigEndian.PutUint32(b, 41); return b }),
		"cols overstate":     mutate(func(b []byte) []byte { binary.BigEndian.PutUint16(b[4:], 3); return b }),
		"empty with columns": {0, 0, 0, 0, 0, 1, encMixed},
		"FOR width 9":        handSet(2, cat([]byte{encIntFOR}, i64(0), []byte{9}, make([]byte, 18))),
		"truncated FOR":      handSet(2, cat([]byte{encIntFOR}, i64(0), []byte{2}, make([]byte, 3))),
		"RLE runs short":     handSet(3, cat([]byte{encIntRLE}, u16(1), run(7, 2))),
		"RLE runs past":      handSet(3, cat([]byte{encIntRLE}, u16(2), run(7, 2), run(8, 2))),
		"dict index past":    handSet(2, cat([]byte{encBytesDict}, u16(1), str("a"), []byte{0, 1})),
		"dict of 257":        handSet(1, bigDict),
		"truncated str len":  handSet(2, cat([]byte{encBytesRaw}, str("a"), []byte{0, 0})),
		"mixed bad tag":      handSet(1, cat([]byte{encMixed, 99}, i64(0))),
	}
	for name, b := range cases {
		if _, err := decodeSet(b, 1<<20); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Each hand-made lane is damaged in one place only: repaired, it
	// decodes.
	for name, b := range map[string][]byte{
		"FOR width 8": handSet(2, cat([]byte{encIntFOR}, i64(0), []byte{8}, make([]byte, 16))),
		"RLE runs":    handSet(3, cat([]byte{encIntRLE}, u16(2), run(7, 2), run(8, 1))),
		"dict":        handSet(2, cat([]byte{encBytesDict}, u16(1), str("a"), []byte{0, 0})),
		"dict of 256": handSet(1, cat([]byte{encBytesDict}, u16(maxDict), bytes.Repeat(str(""), maxDict), []byte{0})),
		"strings":     handSet(2, cat([]byte{encBytesRaw}, str("a"), str(""))),
		"mixed":       handSet(1, cat([]byte{encMixed, byte(tuple.Int)}, i64(0))),
	} {
		if _, err := decodeSet(b, 1<<20); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestRowSetRoundTrip pins the decode of every lane encoding over two
// runs of lanes, value for value and bit for bit: FOR and run-length
// ints, floats at NaN (two payloads), −0, ±Inf, raw and dictionary
// strings, and a mixed column.
func TestRowSetRoundTrip(t *testing.T) {
	const n = MaxChunkRows + 5
	floats := []float64{math.NaN(), math.Float64frombits(0x7ff8dead0000beef), math.Copysign(0, -1), 0,
		math.Inf(1), math.Inf(-1), 1.5}
	rows := make([][]tuple.Value, n)
	for i := range rows {
		rows[i] = []tuple.Value{
			tuple.I(int64(3*i) - 1000),
			tuple.I(int64(i / 1000)),
			tuple.F(floats[i%len(floats)]),
			tuple.S(fmt.Sprintf("s%d", i)),
			tuple.S([]string{"red", "green", "blue"}[i%3]),
			[]tuple.Value{tuple.I(int64(i)), tuple.S("m"), tuple.F(float64(i) / 2)}[i%3],
		}
	}
	set, err := AppendLanes(nil, n, colsOf(rows))
	if err != nil {
		t.Fatal(err)
	}
	off := rowSetHeader
	for c, want := range []byte{encIntFOR, encIntRLE, encFloatRaw, encBytesRaw, encBytesDict, encMixed} {
		var l lane
		if off, err = l.locate(set, off, MaxChunkRows); err != nil || l.enc != want {
			t.Fatalf("column %d of the first run: encoding %d, %v; want %d", c, l.enc, err, want)
		}
	}
	got, err := decodeSet(set, n*len(rows[0]))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n || !bytes.Equal(rowBytes(got), rowBytes(rows)) {
		t.Fatalf("round trip of %d rows changed them", n)
	}
}
