package colpage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"viewmat/internal/pred"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// refBytes is the canonical row-codec form of a tuple slice — the
// equality oracle (bit-exact for NaN floats, unlike tuple.Compare).
func refBytes(tuples []tuple.Tuple) []byte {
	var out []byte
	for _, tp := range tuples {
		out = tp.Encode(out)
	}
	return out
}

// lanesOf is tuples, which share an arity, as the lanes a page's rows
// are encoded from.
func lanesOf(tuples []tuple.Tuple) Lanes {
	var l Lanes
	for i, tp := range tuples {
		l.InsertRow(i, tp)
	}
	return l
}

// encodeChunk encodes tuples as a chunk in dst, zone maps and all.
func encodeChunk(dst []byte, tuples []tuple.Tuple) (int, error) {
	l := lanesOf(tuples)
	return encode(dst, &l, nil, true)
}

func mustEncode(t *testing.T, tuples []tuple.Tuple) []byte {
	t.Helper()
	buf := make([]byte, 64*1024)
	n, err := encodeChunk(buf, tuples)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf[:n]
}

// roundTrip encodes, decodes, and checks the result matches the input
// under the reference codec.
func roundTrip(t *testing.T, tuples []tuple.Tuple) []byte {
	t.Helper()
	chunk := mustEncode(t, tuples)
	ids, cols, err := DecodeInto(chunk, nil, nil)
	if err != nil {
		t.Fatalf("DecodeInto: %v", err)
	}
	if got := lanesTuples(ids, cols); !bytes.Equal(refBytes(got), refBytes(tuples)) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, tuples)
	}
	for c := range cols {
		if cols[c].Len() != len(tuples) {
			t.Fatalf("column %d holds %d cells for %d rows", c, cols[c].Len(), len(tuples))
		}
	}
	return chunk
}

func TestRoundTripShapes(t *testing.T) {
	cases := map[string][]tuple.Tuple{
		"empty": nil,
		"one-int": {
			tuple.New(1, tuple.I(42)),
		},
		"sequential-ints-FOR": {
			tuple.New(10, tuple.I(100), tuple.I(7)),
			tuple.New(11, tuple.I(101), tuple.I(7)),
			tuple.New(12, tuple.I(102), tuple.I(7)),
			tuple.New(13, tuple.I(103), tuple.I(7)),
		},
		"int-extremes": {
			tuple.New(1, tuple.I(math.MinInt64)),
			tuple.New(math.MaxUint64, tuple.I(math.MaxInt64)),
		},
		"floats-nan-inf": {
			tuple.New(1, tuple.F(math.NaN())),
			tuple.New(2, tuple.F(math.Inf(1))),
			tuple.New(3, tuple.F(math.Copysign(0, -1))),
			tuple.New(4, tuple.F(1.5)),
		},
		"strings-raw": {
			tuple.New(1, tuple.S("alpha")),
			tuple.New(2, tuple.S("")),
			tuple.New(3, tuple.S(strings.Repeat("z", 500))),
		},
		"strings-dict": repeatStrings(64, "red", "green", "blue"),
		"mixed-type-column": {
			tuple.New(1, tuple.I(1)),
			tuple.New(2, tuple.S("two")),
			tuple.New(3, tuple.F(3.0)),
		},
		"zero-columns": {
			tuple.New(7),
			tuple.New(8),
		},
	}
	for name, tuples := range cases {
		t.Run(name, func(t *testing.T) { roundTrip(t, tuples) })
	}
}

// lanesTuples gathers decoded lanes back to tuples.
func lanesTuples(ids []uint64, cols []vec.Col) []tuple.Tuple {
	out := make([]tuple.Tuple, len(ids))
	for i, id := range ids {
		out[i].ID = id
		for c := range cols {
			out[i].Vals = append(out[i].Vals, cols[c].Value(i))
		}
	}
	return out
}

// DecodeInto appends onto whatever the lanes hold: every lane encoding
// after every other, including a chunk whose cells have another type
// than the lanes' (the column widens) — the result must read as the
// chunks' rows concatenated.
func TestDecodeIntoAppends(t *testing.T) {
	chunks := [][]tuple.Tuple{
		{tuple.New(1, tuple.I(100), tuple.S("raw-a")), tuple.New(2, tuple.I(101), tuple.S("raw-bb"))}, // FOR, raw
		{tuple.New(3, tuple.I(7), tuple.S("d")), tuple.New(4, tuple.I(7), tuple.S("d")), tuple.New(5, tuple.I(7), tuple.S("d")),
			tuple.New(6, tuple.I(7), tuple.S("d")), tuple.New(7, tuple.I(7), tuple.S("d")), tuple.New(8, tuple.I(7), tuple.S("d"))}, // RLE, dict
		{tuple.New(9, tuple.F(math.NaN()), tuple.S("")), tuple.New(10, tuple.F(-0.5), tuple.S("x"))}, // float onto an int lane
		{tuple.New(11, tuple.I(1), tuple.I(2)), tuple.New(12, tuple.S("s"), tuple.I(3))},             // mixed lane; ints onto strings
		nil, // an empty chunk (no columns) adds nothing
		{tuple.New(13, tuple.I(-1), tuple.S("tail"))},
	}
	for first := range chunks {
		var ids []uint64
		var cols []vec.Col
		var want []tuple.Tuple
		for k := range chunks {
			tuples := chunks[(first+k)%len(chunks)]
			var err error
			if ids, cols, err = DecodeInto(mustEncode(t, tuples), ids, cols); err != nil {
				t.Fatalf("start %d chunk %d: %v", first, k, err)
			}
			want = append(want, tuples...)
			if got := lanesTuples(ids, cols); !bytes.Equal(refBytes(got), refBytes(want)) {
				t.Fatalf("start %d after chunk %d:\n got %v\nwant %v", first, k, got, want)
			}
		}
	}

	// Rows of another arity are refused once the lanes hold rows, and
	// re-shape lanes that hold none.
	ids, cols, err := DecodeInto(mustEncode(t, chunks[0]), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	one := mustEncode(t, []tuple.Tuple{tuple.New(20, tuple.I(5))})
	if _, _, err := DecodeInto(one, ids, cols); err == nil {
		t.Fatal("a one-column chunk appended to two-column rows")
	}
	for c := range cols {
		cols[c].Reset()
	}
	if ids, cols, err = DecodeInto(one, ids[:0], cols); err != nil || len(ids) != 1 || len(cols) != 1 {
		t.Fatalf("empty lanes did not take the chunk's arity: %d ids, %d cols, %v", len(ids), len(cols), err)
	}
}

func repeatStrings(n int, vals ...string) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	for i := range out {
		out[i] = tuple.New(uint64(i+1), tuple.S(vals[i%len(vals)]), tuple.I(int64(i)))
	}
	return out
}

// TestEncodeDeterministic: re-encoding a decoded chunk's lanes
// reproduces the original bytes — the property the fuzz target leans on.
func TestEncodeDeterministic(t *testing.T) {
	chunk := roundTrip(t, repeatStrings(100, "a", "b", "c"))
	ids, cols, err := DecodeInto(chunk, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	again := make([]byte, len(chunk))
	if n, err := encode(again, &Lanes{IDs: ids, Cols: cols}, nil, true); err != nil || !bytes.Equal(chunk, again[:n]) {
		t.Fatalf("re-encode not byte-identical: %d vs %d bytes (%v)", len(chunk), n, err)
	}
}

func TestEncodeErrors(t *testing.T) {
	ragged := lanesOf([]tuple.Tuple{tuple.New(1, tuple.I(1)), tuple.New(2, tuple.I(2))})
	ragged.Cols[0].Truncate(1)
	if _, err := encode(make([]byte, 4096), &ragged, nil, true); err == nil {
		t.Fatal("a column shorter than the id lane accepted")
	}
	big := lanesOf(repeatStrings(200, strings.Repeat("x", 100)))
	// A failed encode must not have grown past the region (the caller
	// retries the region without zone maps).
	if n, err := encode(make([]byte, 64), &big, nil, true); err == nil || n != 0 {
		t.Fatalf("overflow encode = (%d, %v)", n, err)
	}
}

func TestZones(t *testing.T) {
	tuples := []tuple.Tuple{
		tuple.New(1, tuple.I(30), tuple.S("m"), tuple.S(strings.Repeat("w", 100))),
		tuple.New(2, tuple.I(10), tuple.S("a"), tuple.S("tiny")),
		tuple.New(3, tuple.I(20), tuple.S("z"), tuple.S("small")),
	}
	z, err := readZones(mustEncode(t, tuples))
	if err != nil {
		t.Fatal(err)
	}
	if z.N != 3 || len(z.Cols) != 3 {
		t.Fatalf("zones %d rows %d cols", z.N, len(z.Cols))
	}
	if !z.Cols[0].Present || z.Cols[0].Min.Int() != 10 || z.Cols[0].Max.Int() != 30 {
		t.Fatalf("int zone = %+v", z.Cols[0])
	}
	if !z.Cols[1].Present || z.Cols[1].Min.Str() != "a" || z.Cols[1].Max.Str() != "z" {
		t.Fatalf("string zone = %+v", z.Cols[1])
	}
	// Column 2's max exceeds the zone budget: bound absent, never prunes.
	if z.Cols[2].Present {
		t.Fatalf("oversized zone stored: %+v", z.Cols[2])
	}
	if z.Prunable([]Atom{{Col: 2, Op: pred.Eq, Val: tuple.S("nope")}}) {
		t.Fatal("absent zone pruned")
	}
}

// TestIntZoneOfMatchesCellZoneOf holds the int lane's zone kernel to the
// cell-by-cell loop every other lane takes: the same bound cells, the
// first of each among ties.
func TestIntZoneOfMatchesCellZoneOf(t *testing.T) {
	for _, vals := range [][]int64{
		{7},
		{-3},
		{5, 5, 5, 5},
		{2, 9, 2, 9, 1, 1, 9},
		{-1, -8, 0, -8, 4, 4},
		{math.MinInt64, math.MaxInt64, 0, math.MinInt64, math.MaxInt64},
		{3, 2, 1, 0, -1, -2},
		{-2, -1, 0, 1, 2, 3},
	} {
		var col vec.Col
		for _, v := range vals {
			col.Append(tuple.I(v))
		}
		if typ, ok := col.Uniform(); !ok || typ != tuple.Int {
			t.Fatalf("%v: not a uniform int lane", vals)
		}
		lo, hi := zoneOf(&col)
		wlo, whi := cellZoneOf(&col)
		if lo != wlo || hi != whi {
			t.Errorf("%v: zone cells (%d, %d), the cell loop finds (%d, %d)", vals, lo, hi, wlo, whi)
		}
	}
}

func TestPrunable(t *testing.T) {
	z := &Zones{N: 5, Cols: []ColZone{{Present: true, Min: tuple.I(10), Max: tuple.I(20)}}}
	cases := []struct {
		op   pred.Op
		val  int64
		want bool
	}{
		{pred.Eq, 5, true}, {pred.Eq, 10, false}, {pred.Eq, 15, false}, {pred.Eq, 25, true},
		{pred.Ne, 15, false}, {pred.Lt, 10, true}, {pred.Lt, 11, false},
		{pred.Le, 9, true}, {pred.Le, 10, false},
		{pred.Gt, 20, true}, {pred.Gt, 19, false},
		{pred.Ge, 21, true}, {pred.Ge, 20, false},
	}
	for _, c := range cases {
		got := z.Prunable([]Atom{{Col: 0, Op: c.op, Val: tuple.I(c.val)}})
		if got != c.want {
			t.Errorf("op=%v val=%d: prunable=%v, want %v", c.op, c.val, got, c.want)
		}
	}
	// Single-value zone disproves Ne.
	point := &Zones{N: 5, Cols: []ColZone{{Present: true, Min: tuple.I(7), Max: tuple.I(7)}}}
	if !point.Prunable([]Atom{{Col: 0, Op: pred.Ne, Val: tuple.I(7)}}) {
		t.Error("point zone did not disprove Ne")
	}
	// Conjunction: any disproved atom prunes the page.
	if !z.Prunable([]Atom{{Col: 0, Op: pred.Ge, Val: tuple.I(0)}, {Col: 0, Op: pred.Eq, Val: tuple.I(99)}}) {
		t.Error("conjunction with one disproved atom did not prune")
	}
	// Empty pages and out-of-range columns never prune.
	empty := &Zones{N: 0, Cols: []ColZone{{Present: true, Min: tuple.I(0), Max: tuple.I(0)}}}
	if empty.Prunable([]Atom{{Col: 0, Op: pred.Eq, Val: tuple.I(9)}}) {
		t.Error("empty page pruned")
	}
	if z.Prunable([]Atom{{Col: 5, Op: pred.Eq, Val: tuple.I(9)}}) {
		t.Error("out-of-range column pruned")
	}
}

// TestZonesMatchScan cross-checks Prunable against brute-force
// evaluation on the rows: a prunable page must contain no matching row.
func TestZonesMatchScan(t *testing.T) {
	tuples := []tuple.Tuple{
		tuple.New(1, tuple.I(12), tuple.S("b")),
		tuple.New(2, tuple.I(18), tuple.S("d")),
		tuple.New(3, tuple.I(15), tuple.S("c")),
	}
	chunk := mustEncode(t, tuples)
	z, err := readZones(chunk)
	if err != nil {
		t.Fatal(err)
	}
	ops := []pred.Op{pred.Eq, pred.Ne, pred.Lt, pred.Le, pred.Gt, pred.Ge}
	vals := []tuple.Value{tuple.I(0), tuple.I(12), tuple.I(15), tuple.I(18), tuple.I(30), tuple.S("a"), tuple.S("c"), tuple.S("z")}
	for col := 0; col < 2; col++ {
		for _, op := range ops {
			for _, v := range vals {
				atom := Atom{Col: col, Op: op, Val: v}
				if !z.Prunable([]Atom{atom}) {
					continue
				}
				for _, tp := range tuples {
					if op.Holds(tp.Vals[col], v) {
						t.Fatalf("pruned page has matching row: %v %v %v", tp.Vals[col], op, v)
					}
				}
			}
		}
	}
}

// readZones is ReadZones into a fresh struct.
func readZones(chunk []byte) (*Zones, error) {
	z := &Zones{}
	return z, ReadZones(chunk, z)
}

// wideChunk is wider than every seed of the fuzzers and stores every
// zone: the page a reused Zones last held before the page under test.
var wideChunk = func() []byte {
	tuples := make([]tuple.Tuple, 3)
	for i := range tuples {
		vals := make([]tuple.Value, 12)
		for c := range vals {
			vals[c] = tuple.I(int64(100*c + i))
		}
		tuples[i] = tuple.New(uint64(i+1), vals...)
	}
	buf := make([]byte, 4096)
	n, err := encodeChunk(buf, tuples)
	if err != nil {
		panic(err)
	}
	return buf[:n]
}()

// zoneReuse decodes chunk's zones into a struct last filled from
// wideChunk and into a fresh one, and reports any difference: a stale
// Present flag or column of the previous page must not reach the next
// page's prune decision.
func zoneReuse(chunk []byte) error {
	reused := &Zones{}
	if err := ReadZones(wideChunk, reused); err != nil || len(reused.Cols) != 12 || !reused.Cols[11].Present {
		return fmt.Errorf("wide chunk's zones: %+v, %v", reused, err)
	}
	fresh, ferr := readZones(chunk)
	rerr := ReadZones(chunk, reused)
	if (ferr == nil) != (rerr == nil) {
		return fmt.Errorf("fresh zone decode: %v; reused: %v", ferr, rerr)
	}
	if ferr == nil && !bytes.Equal(zoneBytes(fresh), zoneBytes(reused)) {
		return fmt.Errorf("reused zones differ from a fresh decode:\n fresh  %+v\n reused %+v", fresh, reused)
	}
	return nil
}

// zoneBytes is the equality form of zones (bit-exact for NaN bounds).
func zoneBytes(z *Zones) []byte {
	out := binary.BigEndian.AppendUint64(nil, uint64(z.N))
	out = binary.BigEndian.AppendUint64(out, uint64(len(z.Cols)))
	for _, cz := range z.Cols {
		if cz.Present {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		out = tuple.AppendValue(tuple.AppendValue(out, cz.Min), cz.Max)
	}
	return out
}

// The string cells DecodeInto hands out, raw and dictionary lanes
// alike, slice arenas of their own: a chunk read in place from a page
// that is then overwritten — a pool slot recycled and poisoned, an
// on-disk image rewritten — leaves every decoded cell as it was.
func TestDecodedStringsOwnTheirBytes(t *testing.T) {
	var tuples []tuple.Tuple
	for i := 0; i < 40; i++ {
		tuples = append(tuples, tuple.New(uint64(i+1), tuple.S(fmt.Sprintf("raw-%03d", i)), tuple.S([]string{"red", "green"}[i%2])))
	}
	chunk := mustEncode(t, tuples)
	ids, cols, err := DecodeInto(chunk, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	off := chunkHeader + 9 + len(ids) // ids 1..40: one-byte deltas
	for c, enc := range []byte{encBytesRaw, encBytesDict} {
		if chunk[off] != enc {
			t.Fatalf("column %d has lane encoding %d, want %d", c, chunk[off], enc)
		}
		var l lane
		if off, err = l.locate(chunk, off, len(ids)); err != nil {
			t.Fatal(err)
		}
	}
	want := refBytes(lanesTuples(ids, cols))
	for i := range chunk {
		chunk[i] = 0xA5
	}
	if got := refBytes(lanesTuples(ids, cols)); !bytes.Equal(got, want) {
		t.Fatal("decoded string cells changed with the chunk they were read from")
	}
	if !bytes.Equal(want, refBytes(tuples)) {
		t.Fatal("decode does not match the encoded rows")
	}
}

// FuzzColPageCodec feeds arbitrary bytes to the chunk decoder: corrupt
// chunks must error (never panic), and anything that decodes must
// re-encode byte-identically through the deterministic encoder, whose
// zone maps bound the rows and prune only atoms no row satisfies. Every
// chunk also runs the selected-decode differential (checkSelected).
func FuzzColPageCodec(f *testing.F) {
	seed := func(tuples []tuple.Tuple) {
		buf := make([]byte, 8192)
		if n, err := encodeChunk(buf, tuples); err == nil {
			f.Add(buf[:n])
		}
	}
	seed(nil)
	seed([]tuple.Tuple{tuple.New(1, tuple.I(42))})
	seed(repeatStrings(50, "x", "y"))
	seed([]tuple.Tuple{
		tuple.New(1, tuple.F(math.NaN()), tuple.S("")),
		tuple.New(2, tuple.F(math.Inf(-1)), tuple.S(strings.Repeat("k", 300))),
	})
	seed([]tuple.Tuple{ // a NaN past the first row
		tuple.New(3, tuple.F(5)),
		tuple.New(4, tuple.F(math.NaN())),
		tuple.New(5, tuple.F(-3)),
	})
	seed([]tuple.Tuple{
		tuple.New(5, tuple.I(7), tuple.I(7)),
		tuple.New(6, tuple.I(7), tuple.I(8)),
		tuple.New(7, tuple.I(7), tuple.I(9)),
	})
	// A column that turns mixed mid-chunk (the encMixed lane, decoded
	// onto a column that starts uniform and widens).
	seed([]tuple.Tuple{
		tuple.New(8, tuple.I(1), tuple.S("a")),
		tuple.New(9, tuple.I(2), tuple.S("b")),
		tuple.New(10, tuple.F(2.5), tuple.S("c")),
		tuple.New(11, tuple.I(4), tuple.I(9)),
	})
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 0, 0, 0, 8, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Neither decoder may panic on arbitrary input. (ReadZones may
		// accept chunks whose value lanes are corrupt — it never reads
		// them — so acceptance is checked one-way, below.)
		ids, cols, terr := DecodeInto(data, nil, nil)
		tuples := lanesTuples(ids, cols)
		if err := zoneReuse(data); err != nil {
			t.Fatal(err)
		}
		if err := checkSelected(data); err != nil {
			t.Fatal(err)
		}
		// The row-set decode (DecodeLanes) accepts exactly the lanes the
		// chunk decode (DecodeInto) accepts, and reads them to the same
		// values. (A row set has no way to say "no rows, some columns".)
		if rows, cols, footOff, err := header(data); err == nil && rows*cols <= 1<<20 && (rows > 0 || cols == 0) {
			if off, err := (&lane{}).locateFOR(data[:footOff], chunkHeader, rows); err == nil {
				set := binary.BigEndian.AppendUint32(nil, uint32(rows))
				set = binary.BigEndian.AppendUint16(set, uint16(cols))
				vals, verr := decodeSet(append(set, data[off:footOff]...), 1<<20)
				if (verr == nil) != (terr == nil) {
					t.Fatalf("chunk decoder: %v; row-set decoder on the same lanes: %v", terr, verr)
				}
				if verr == nil && !bytes.Equal(rowBytes(vals), rowBytes(rowsOf(tuples))) {
					t.Fatalf("decoders disagree:\n rows  %v\n chunk %v", vals, tuples)
				}
			}
		}
		if terr != nil {
			return
		}
		// Accepted: re-encoding the decoded lanes must round-trip to the
		// same rows, and re-encoding *those* lanes must be byte-identical
		// (the encoder is deterministic, so decode∘encode is a fixpoint).
		buf := make([]byte, len(data)+8192)
		n, err := encode(buf, &Lanes{IDs: ids, Cols: cols}, nil, true)
		if err != nil {
			t.Fatalf("re-encode of decoded chunk failed: %v", err)
		}
		ids2, cols2, err := DecodeInto(buf[:n], nil, nil)
		if err != nil {
			t.Fatalf("decode of re-encode failed: %v", err)
		}
		if !bytes.Equal(refBytes(lanesTuples(ids2, cols2)), refBytes(tuples)) {
			t.Fatalf("re-encode changed rows")
		}
		buf2 := make([]byte, len(data)+8192)
		n2, err := encode(buf2, &Lanes{IDs: ids2, Cols: cols2}, nil, true)
		if err != nil || n2 != n || !bytes.Equal(buf[:n], buf2[:n2]) {
			t.Fatalf("encoder not deterministic: n=%d n2=%d err=%v", n, n2, err)
		}
		// Zone maps of an accepted chunk must decode and must be sound:
		// stored bounds actually bound the rows.
		z, err := readZones(buf[:n])
		if err != nil {
			t.Fatalf("ReadZones on valid chunk: %v", err)
		}
		if err := zoneReuse(buf[:n]); err != nil {
			t.Fatal(err)
		}
		for c, cz := range z.Cols {
			if !cz.Present {
				continue
			}
			for _, tp := range tuples {
				if tuple.Compare(tp.Vals[c], cz.Min) < 0 || tuple.Compare(tp.Vals[c], cz.Max) > 0 {
					t.Fatalf("zone bounds violated in column %d", c)
				}
			}
		}
		for _, atoms := range atomSets(tuples, len(z.Cols)) {
			if z.Prunable(atoms) && len(keepWhere(tuples, atoms)) > 0 {
				t.Fatalf("zones prune %v from a chunk with rows it keeps", atoms)
			}
		}
	})
}
