package vec

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"viewmat/internal/tuple"
)

func tp(id uint64, vals ...tuple.Value) tuple.Tuple {
	return tuple.Tuple{ID: id, Vals: vals}
}

func TestTryAppendEstablishesShapeAndSplits(t *testing.T) {
	b := &Batch{}
	t1 := tp(1, tuple.I(10), tuple.S("a"))
	t2 := tp(2, tuple.I(20), tuple.S("b"))
	if !b.TryAppend(&t1, nil, nil, true, 3, 4) {
		t.Fatal("first append rejected")
	}
	if !b.TryAppend(&t2, nil, nil, false, 0, 4) {
		t.Fatal("same-shape append rejected")
	}
	// Arity change must split, not corrupt the lanes.
	t3 := tp(3, tuple.I(30))
	if b.TryAppend(&t3, nil, nil, true, 0, 4) {
		t.Fatal("arity-changing append accepted")
	}
	// Adding an out row to a slot-only batch must split too.
	if b.TryAppend(&t2, nil, []tuple.Value{tuple.I(1)}, true, 0, 4) {
		t.Fatal("out-adding append accepted")
	}
	if b.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", b.NumRows())
	}
	got := b.TupleAt(0, 0)
	if got.ID != 1 || !tuple.Equal(got.Vals[1], tuple.S("a")) {
		t.Fatalf("TupleAt(0,0) = %+v", got)
	}
	if !b.InsertAt(0) || b.InsertAt(1) {
		t.Fatal("polarity lanes wrong")
	}
	if b.DupAt(0) != 3 {
		t.Fatalf("DupAt(0) = %d", b.DupAt(0))
	}
	// Capacity cap.
	full := &Batch{}
	if !full.TryAppend(&t1, nil, nil, true, 0, 1) {
		t.Fatal("append under cap rejected")
	}
	if full.TryAppend(&t2, nil, nil, true, 0, 1) {
		t.Fatal("append past cap accepted")
	}
}

func TestTupleAtAbsentSlotIsZero(t *testing.T) {
	b := &Batch{}
	t1 := tp(7, tuple.I(1))
	b.TryAppend(&t1, nil, nil, true, 0, 4)
	z := b.TupleAt(1, 0)
	if z.ID != 0 || z.Vals != nil {
		t.Fatalf("absent slot gave %+v, want zero tuple", z)
	}
}

func TestGatherAndCompact(t *testing.T) {
	b := &Batch{}
	for i := 0; i < 5; i++ {
		ti := tp(uint64(i+1), tuple.I(int64(i)), tuple.F(float64(i)/2))
		b.TryAppend(&ti, nil, []tuple.Value{tuple.I(int64(i * 10))}, i%2 == 0, int64(i), 8)
	}
	b.Sel = []int{1, 3}
	if b.LiveCount() != 2 || b.LiveIndex(1) != 3 {
		t.Fatalf("selection views wrong: count=%d", b.LiveCount())
	}
	c := b.Compact()
	if c.NumRows() != 2 || c.Sel != nil {
		t.Fatalf("Compact gave %d rows, sel=%v", c.NumRows(), c.Sel)
	}
	for k, src := range []int{1, 3} {
		want := b.TupleAt(0, src)
		got := c.TupleAt(0, k)
		if got.ID != want.ID || !tuple.Equal(got.Vals[0], want.Vals[0]) {
			t.Fatalf("row %d: got %+v want %+v", k, got, want)
		}
		if c.InsertAt(k) != b.InsertAt(src) || c.DupAt(k) != b.DupAt(src) {
			t.Fatalf("row %d: polarity/dup lanes diverged", k)
		}
		if !tuple.Equal(c.OutAt(k)[0], b.OutAt(src)[0]) {
			t.Fatalf("row %d: out lane diverged", k)
		}
	}
	// Compact with no selection returns the batch itself.
	if c2 := c.Compact(); c2 != c {
		t.Fatal("Compact without selection copied")
	}
}

func TestColFloat64MirrorsAsFloat(t *testing.T) {
	var c Col
	c.Append(tuple.I(3))
	c.Append(tuple.F(1.5))
	c.Append(tuple.S("x"))
	if c.Float64(0) != 3 || c.Float64(1) != 1.5 {
		t.Fatalf("numeric Float64 wrong: %v %v", c.Float64(0), c.Float64(1))
	}
	if !math.IsNaN(c.Float64(2)) {
		t.Fatalf("string Float64 = %v, want NaN", c.Float64(2))
	}
	if _, ok := c.Uniform(); ok {
		t.Fatal("mixed column reported uniform")
	}
}

func encodeRef(tuples []tuple.Tuple) []byte {
	var dst []byte
	for _, t := range tuples {
		dst = t.Encode(dst)
	}
	return dst
}

func TestEncodeSlotMatchesTupleEncode(t *testing.T) {
	tuples := []tuple.Tuple{
		tp(1, tuple.I(42), tuple.S(""), tuple.F(math.NaN())),
		tp(math.MaxUint64, tuple.I(math.MaxInt64), tuple.S(strings.Repeat("z", 3000)), tuple.F(math.Inf(-1))),
		tp(3, tuple.I(-1), tuple.S("mid"), tuple.F(0)),
	}
	b := &Batch{}
	for i := range tuples {
		if !b.TryAppend(&tuples[i], nil, nil, true, 0, 8) {
			t.Fatalf("append %d rejected", i)
		}
	}
	got, err := b.EncodeSlot(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := encodeRef(tuples); !bytes.Equal(got, want) {
		t.Fatalf("EncodeSlot diverged from tuple.Encode\ngot  %x\nwant %x", got, want)
	}
	// Selection restricts the encoding to live rows.
	b.Sel = []int{2}
	got, err = b.EncodeSlot(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := encodeRef(tuples[2:]); !bytes.Equal(got, want) {
		t.Fatal("selected EncodeSlot diverged")
	}
	if _, err := b.EncodeSlot(1, nil); err == nil {
		t.Fatal("EncodeSlot of absent slot succeeded")
	}
}

func TestDecodeSlotRoundTrip(t *testing.T) {
	tuples := []tuple.Tuple{
		tp(9, tuple.S("a"), tuple.I(1)),
		tp(10, tuple.S(""), tuple.I(-7)),
	}
	b, err := DecodeSlot(encodeRef(tuples))
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 2 {
		t.Fatalf("NumRows = %d", b.NumRows())
	}
	for i, want := range tuples {
		got := b.TupleAt(0, i)
		if got.ID != want.ID || len(got.Vals) != len(want.Vals) {
			t.Fatalf("row %d: %+v", i, got)
		}
		for c := range want.Vals {
			if !tuple.Equal(got.Vals[c], want.Vals[c]) {
				t.Fatalf("row %d col %d: %v != %v", i, c, got.Vals[c], want.Vals[c])
			}
		}
	}
	// Truncations and junk must error, not panic.
	enc := encodeRef(tuples)
	for cut := 1; cut < len(enc); cut += 7 {
		if _, err := DecodeSlot(enc[:cut]); err == nil {
			// A cut can land exactly on a tuple boundary; that's a
			// valid shorter stream.
			if cut != len(encodeRef(tuples[:1])) {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	}
	if _, err := DecodeSlot([]byte{0xff, 0xff, 0xff}); err == nil {
		t.Fatal("junk accepted")
	}
}

// FuzzBatchCodec cross-checks the column-direct batch codec against the
// reference tuple codec on arbitrary byte streams: whatever the
// reference decoder accepts, the batch codec must round-trip to the
// same bytes and the same values, and the batch decoder must never
// accept a stream the reference rejects (or vice versa, modulo the
// batch codec's same-arity requirement).
func FuzzBatchCodec(f *testing.F) {
	f.Add(encodeRef([]tuple.Tuple{tp(1, tuple.I(42))}))
	f.Add(encodeRef([]tuple.Tuple{
		tp(2, tuple.F(math.NaN()), tuple.S("")),
		tp(3, tuple.F(math.Inf(1)), tuple.S(strings.Repeat("k", 2048))),
	}))
	f.Add(encodeRef([]tuple.Tuple{tp(math.MaxUint64, tuple.I(math.MaxInt64), tuple.I(math.MinInt64))}))
	// A column that turns mixed mid-stream: uniform lanes, then widened.
	f.Add(encodeRef([]tuple.Tuple{
		tp(4, tuple.I(1), tuple.S("a")),
		tp(5, tuple.I(2), tuple.S("b")),
		tp(6, tuple.F(2.5), tuple.S("c")),
		tp(7, tuple.I(4), tuple.I(9)),
	}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 99})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Reference parse: a stream of tuples, all bytes consumed, all
		// rows the same arity (the batch codec's contract).
		var ref []tuple.Tuple
		off, refOK := 0, true
		for off < len(data) {
			tup, n, err := tuple.Decode(data[off:])
			if err != nil {
				refOK = false
				break
			}
			ref = append(ref, tup)
			off += n
		}
		sameArity := true
		for _, r := range ref {
			if len(r.Vals) != len(ref[0].Vals) {
				sameArity = false
			}
		}

		b, err := DecodeSlot(data)
		if refOK && sameArity {
			if err != nil {
				t.Fatalf("reference accepts, DecodeSlot rejects: %v", err)
			}
			if b.NumRows() != len(ref) {
				t.Fatalf("rows %d != %d", b.NumRows(), len(ref))
			}
			for i, want := range ref {
				got := b.TupleAt(0, i)
				if got.ID != want.ID {
					t.Fatalf("row %d id %d != %d", i, got.ID, want.ID)
				}
				for c := range want.Vals {
					gv, wv := got.Vals[c], want.Vals[c]
					if gv.Type() != wv.Type() {
						t.Fatalf("row %d col %d type %v != %v", i, c, gv.Type(), wv.Type())
					}
					// NaN-safe value comparison: compare re-encodings.
					if !bytes.Equal(tuple.AppendValue(nil, gv), tuple.AppendValue(nil, wv)) {
						t.Fatalf("row %d col %d value %v != %v", i, c, gv, wv)
					}
				}
			}
			re, err := b.EncodeSlot(0, nil)
			if len(ref) == 0 {
				// An empty stream decodes to a slot-less batch.
				if err == nil {
					t.Fatal("EncodeSlot of empty batch found a slot")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("round trip diverged\nin  %x\nout %x", data, re)
			}
		} else if err == nil {
			t.Fatalf("DecodeSlot accepted a stream the reference rejects (refOK=%v sameArity=%v)", refOK, sameArity)
		}
	})
}

func TestBatchCodecArityMismatch(t *testing.T) {
	enc := encodeRef([]tuple.Tuple{tp(1, tuple.I(1)), tp(2, tuple.I(1), tuple.I(2))})
	if _, err := DecodeSlot(enc); err == nil || !strings.Contains(err.Error(), "columns") {
		t.Fatalf("arity change err = %v", err)
	}
}

func TestSetOutReplacesProjection(t *testing.T) {
	b := &Batch{}
	t1 := tp(1, tuple.I(5))
	b.TryAppend(&t1, nil, nil, true, 0, 4)
	if b.HasOut() || b.OutAt(0) != nil {
		t.Fatal("fresh batch has an out projection")
	}
	var c Col
	c.Append(tuple.S("proj"))
	b.SetOut([]Col{c})
	if !b.HasOut() || !tuple.Equal(b.OutAt(0)[0], tuple.S("proj")) {
		t.Fatalf("OutAt = %v", b.OutAt(0))
	}
}
