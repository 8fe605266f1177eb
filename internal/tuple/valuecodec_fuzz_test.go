package tuple

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzValueCodec drives DecodeValue with arbitrary bytes and checks the
// codec's two invariants: anything it accepts re-encodes to exactly the
// bytes it consumed (with ValueSize agreeing on the count), and
// anything it rejects leaves no partial consumption. Seeds cover the
// values the simulator actually produces plus the encoding's edges:
// non-finite floats, empty and multi-KiB strings, extreme ints.
func FuzzValueCodec(f *testing.F) {
	for _, v := range []Value{
		I(0), I(1), I(-1), I(math.MaxInt64), I(math.MinInt64),
		F(0), F(-0.0), F(1.5), F(math.NaN()), F(math.Inf(1)), F(math.Inf(-1)),
		S(""), S("a"), S("héllo"), S(strings.Repeat("x", 4096)),
	} {
		f.Add(AppendValue(nil, v))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(String), 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{99, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := DecodeValue(data)
		checkCompareEncoded(t, data, v, n, err)
		if err != nil {
			if n != 0 {
				t.Fatalf("rejected with n=%d", n)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if got := ValueSize(v); got != n {
			t.Fatalf("ValueSize = %d, decoder consumed %d", got, n)
		}
		re := AppendValue(nil, v)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode diverged\nin  %x\nout %x", data[:n], re)
		}
		// The decoded value must survive a second round trip untouched
		// (NaN payloads included — compare bits, not ==).
		v2, n2, err := DecodeValue(re)
		if err != nil || n2 != n {
			t.Fatalf("re-decode: n=%d err=%v", n2, err)
		}
		if !bytes.Equal(AppendValue(nil, v2), re) {
			t.Fatalf("second round trip diverged for %v", v)
		}
	})
}

// compareProbes are values of every type, and a NaN, that an encoded
// value is compared with.
var compareProbes = []Value{I(0), I(-7), F(0.5), F(math.Copysign(0, -1)), F(math.NaN()), S(""), S("m"), S("héllo")}

// checkCompareEncoded holds CompareEncoded to what decoding and then
// comparing gives: the same failures, the same span, the same order.
func checkCompareEncoded(t *testing.T, data []byte, v Value, n int, decErr error) {
	t.Helper()
	probes := compareProbes
	if decErr == nil {
		probes = append(probes[:len(probes):len(probes)], v)
	}
	for _, p := range probes {
		c, m, err := CompareEncoded(data, p)
		switch {
		case (err == nil) != (decErr == nil):
			t.Fatalf("CompareEncoded(%x, %v) err = %v, DecodeValue err = %v", data, p, err, decErr)
		case err != nil:
			if err.Error() != decErr.Error() {
				t.Fatalf("CompareEncoded fails with %q, DecodeValue with %q", err, decErr)
			}
		case m != n || c != Compare(v, p):
			t.Fatalf("CompareEncoded(%v, %v) = %d over %d bytes, want %d over %d", v, p, c, m, Compare(v, p), n)
		}
	}
}
