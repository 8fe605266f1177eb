package tuple

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueCodecRoundTrip(t *testing.T) {
	vals := []Value{I(0), I(-1), I(math.MaxInt64), F(0), F(-2.75), S(""), S("hello")}
	for _, v := range vals {
		buf := AppendValue(nil, v)
		if len(buf) != ValueSize(v) {
			t.Errorf("%v: ValueSize %d != encoded %d", v, ValueSize(v), len(buf))
		}
		got, n, err := DecodeValue(buf)
		if err != nil || n != len(buf) || !Equal(got, v) {
			t.Errorf("%v: round trip got %v n=%d err=%v", v, got, n, err)
		}
	}
}

func TestValueCodecTruncation(t *testing.T) {
	buf := AppendValue(nil, S("abcdef"))
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeValue(buf[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, _, err := DecodeValue([]byte{0xEE, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("unknown tag accepted")
	}
}

func TestPropertyValueCodec(t *testing.T) {
	f := func(i int64, fl float64, s string, pick uint8) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		var v Value
		switch pick % 3 {
		case 0:
			v = I(i)
		case 1:
			v = F(fl)
		default:
			v = S(s)
		}
		got, n, err := DecodeValue(AppendValue(nil, v))
		return err == nil && n == ValueSize(v) && Equal(got, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCompareEncoded: an encoded value orders against a value exactly as
// its decoding would, across types and at the float edges, and comparing
// allocates nothing — a string is compared where it lies.
func TestCompareEncoded(t *testing.T) {
	vals := []Value{I(math.MinInt64), I(-1), I(0), I(3), F(math.Inf(-1)), F(-0.0), F(0), F(2.5), F(math.NaN()),
		S(""), S("a"), S("ab"), S("b")}
	for _, a := range vals {
		enc := AppendValue(nil, a)
		for _, b := range vals {
			c, n, err := CompareEncoded(enc, b)
			if err != nil || n != len(enc) || c != Compare(a, b) {
				t.Errorf("CompareEncoded(%v, %v) = %d, %d, %v; want %d, %d", a, b, c, n, err, Compare(a, b), len(enc))
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { _, _, _ = CompareEncoded(enc, S("ab")) }); allocs != 0 {
			t.Errorf("CompareEncoded of %v allocated %.0f times", a, allocs)
		}
	}
	buf := AppendValue(nil, S("abcdef"))
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := CompareEncoded(buf[:cut], S("x")); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, _, err := CompareEncoded([]byte{0xEE, 0, 0, 0, 0, 0, 0, 0, 0}, I(0)); err == nil {
		t.Error("unknown tag accepted")
	}
}
