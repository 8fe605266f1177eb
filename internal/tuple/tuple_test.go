package tuple

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(Col("id", Int), Col("name", String), Col("salary", Float))
	if got := s.String(); got != "(id INT, name STRING, salary FLOAT)" {
		t.Errorf("String() = %q", got)
	}
	p := s.Project([]int{2, 0})
	if len(p.Cols) != 2 || p.Cols[0].Name != "salary" || p.Cols[1].Name != "id" {
		t.Errorf("Project gave %v", p)
	}
}

func TestSchemaValidate(t *testing.T) {
	s := NewSchema(Col("a", Int), Col("b", String))
	if err := s.Validate([]Value{I(1), S("x")}); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	if err := s.Validate([]Value{I(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := s.Validate([]Value{S("x"), S("y")}); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		a, b Value
		want int
	}{
		{I(1), I(2), -1},
		{I(2), I(2), 0},
		{I(3), I(2), 1},
		{F(1.5), F(2.5), -1},
		{F(2.5), F(2.5), 0},
		{S("abc"), S("abd"), -1},
		{S("b"), S("a"), 1},
		{I(0), F(0), -1}, // cross-type: order by tag
	}
	for _, tc := range tests {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestValueAsFloat(t *testing.T) {
	if got := I(7).AsFloat(); got != 7 {
		t.Errorf("I(7).AsFloat() = %v", got)
	}
	if got := F(2.5).AsFloat(); got != 2.5 {
		t.Errorf("F(2.5).AsFloat() = %v", got)
	}
	if got := S("x").AsFloat(); !math.IsNaN(got) {
		t.Errorf("S.AsFloat() = %v, want NaN", got)
	}
}

func TestTupleProjectPreservesID(t *testing.T) {
	tp := New(42, I(1), S("x"), F(3.5))
	p := tp.Project([]int{2, 0})
	if p.ID != 42 {
		t.Errorf("projection lost id: %d", p.ID)
	}
	if !Equal(p.Vals[0], F(3.5)) || !Equal(p.Vals[1], I(1)) {
		t.Errorf("projection values wrong: %v", p)
	}
}

func TestTupleJoin(t *testing.T) {
	a := New(1, I(10), S("alice"))
	b := New(2, I(10), S("eng"))
	j := Join(a, b)
	if j.ID != 1 || len(j.Vals) != 4 {
		t.Fatalf("join = %v", j)
	}
	if !Equal(j.Vals[3], S("eng")) {
		t.Errorf("join values wrong: %v", j)
	}
}

func TestValsEqualIgnoresID(t *testing.T) {
	a := New(1, I(5), S("x"))
	b := New(99, I(5), S("x"))
	c := New(1, I(6), S("x"))
	if !ValsEqual(a, b) {
		t.Error("equal-valued tuples with different ids should be ValsEqual")
	}
	if ValsEqual(a, c) {
		t.Error("different-valued tuples should not be ValsEqual")
	}
	if ValsEqual(a, New(1, I(5))) {
		t.Error("different arities should not be ValsEqual")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tp := New(123456789, I(-42), F(3.14159), S("hello, world"), S(""))
	buf := tp.Encode(nil)
	if len(buf) != tp.EncodedSize() {
		t.Errorf("EncodedSize %d != actual %d", tp.EncodedSize(), len(buf))
	}
	got, n, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if n != len(buf) {
		t.Errorf("Decode consumed %d of %d bytes", n, len(buf))
	}
	if got.ID != tp.ID || !ValsEqual(got, tp) {
		t.Errorf("round trip: got %v want %v", got, tp)
	}
}

func TestDecodeErrors(t *testing.T) {
	tp := New(7, I(1), S("abc"))
	buf := tp.Encode(nil)
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := Decode(buf[:cut]); err == nil {
			t.Errorf("truncation at %d bytes accepted", cut)
		}
	}
	bad := append([]byte(nil), buf...)
	bad[10] = 0xFF // corrupt type tag
	if _, _, err := Decode(bad); err == nil {
		t.Error("unknown type tag accepted")
	}
}

func TestPropertyEncodeDecode(t *testing.T) {
	f := func(id uint64, i int64, fl float64, s string) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		tp := New(id, I(i), F(fl), S(s))
		got, n, err := Decode(tp.Encode(nil))
		return err == nil && n == tp.EncodedSize() && got.ID == id && ValsEqual(got, tp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(I(a), I(b)) == -Compare(I(b), I(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyCompareTransitiveStrings(t *testing.T) {
	f := func(a, b, c string) bool {
		x, y, z := S(a), S(b), S(c)
		if Compare(x, y) <= 0 && Compare(y, z) <= 0 {
			return Compare(x, z) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// floatPalette holds every class CompareFloat tells apart at its edges:
// NaNs of several payloads and both signs, both zeros, both infinities,
// and finite values between them.
var floatPalette = []float64{
	math.NaN(), math.Float64frombits(0x7ff8dead0000beef), math.Float64frombits(0xfff0000000000001), math.Float64frombits(0x7ff0000000000001),
	math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0,
	-math.MaxFloat64, -1.5, -math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, 1, 2.5, math.MaxFloat64,
}

// TestPropertyCompareNaNAndSignedZero: over random triples from
// floatPalette, Compare is antisymmetric and transitive, two values
// compare equal exactly when their canonical encodings are equal, NaN
// sorts above +Inf, and −0 equals +0.
func TestPropertyCompareNaNAndSignedZero(t *testing.T) {
	enc := func(f float64) string { return string(AppendValue(nil, Canonical(F(f)))) }
	f := func(i, j, k uint8) bool {
		a, b, c := F(floatPalette[int(i)%len(floatPalette)]), F(floatPalette[int(j)%len(floatPalette)]), F(floatPalette[int(k)%len(floatPalette)])
		if Compare(a, b) != -Compare(b, a) {
			return false
		}
		if (Compare(a, b) == 0) != (enc(a.Float()) == enc(b.Float())) {
			return false
		}
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	for _, tc := range []struct {
		a, b float64
		want int
	}{
		{math.NaN(), math.Inf(1), 1},
		{math.Inf(1), math.Float64frombits(0xfff0000000000001), -1},
		{math.NaN(), math.Float64frombits(0x7ff8dead0000beef), 0},
		{math.Copysign(0, -1), 0, 0},
		{math.Inf(-1), -math.MaxFloat64, -1},
	} {
		if got := CompareFloat(tc.a, tc.b); got != tc.want {
			t.Errorf("CompareFloat(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	tp := New(1, I(42), F(3.14), S("some string value"))
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = tp.Encode(buf[:0])
	}
}

func BenchmarkDecode(b *testing.B) {
	tp := New(1, I(42), F(3.14), S("some string value"))
	buf := tp.Encode(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if I(7).Int() != 7 || F(2.5).Float() != 2.5 || S("x").Str() != "x" {
		t.Error("typed accessors wrong")
	}
	if I(7).Type() != Int || F(0).Type() != Float || S("").Type() != String {
		t.Error("Type() wrong")
	}
	want := map[string]string{Int.String(): "INT", Float.String(): "FLOAT", String.String(): "STRING", Type(9).String(): "TYPE(9)"}
	for got, w := range want {
		if got != w {
			t.Errorf("Type.String() = %q, want %q", got, w)
		}
	}
}

func TestTupleGetCloneString(t *testing.T) {
	tp := New(3, I(1), S("x"), F(2.5))
	if !Equal(tp.Get(1), S("x")) {
		t.Errorf("Get(1) = %v", tp.Get(1))
	}
	c := tp.Clone()
	c.Vals[0] = I(99)
	if tp.Vals[0].Int() != 1 {
		t.Error("Clone aliases the original")
	}
	if got := tp.String(); got != `#3[1, "x", 2.5]` {
		t.Errorf("Tuple.String() = %q", got)
	}
	if got := F(2.5).String(); got != "2.5" {
		t.Errorf("Value.String() = %q", got)
	}
}
