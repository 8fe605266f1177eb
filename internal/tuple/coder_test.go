package tuple

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
)

// sample is one value of everything a Coder walks.
type sample struct {
	B    uint8
	U    uint64
	I    int64
	N    int
	F    float64
	OK   bool
	S    string
	Raw  []byte
	V    Value
	Vs   []Value
	L    []string
	M    map[string]int64
	Sch  Schema
	Tail []byte
}

func (s *sample) code(c *Coder) {
	c.U8(&s.B)
	c.U64(&s.U)
	c.I64(&s.I)
	c.Int(&s.N)
	c.Float(&s.F)
	c.Bool(&s.OK)
	c.Str(&s.S)
	c.Bytes(&s.Raw)
	c.Value(&s.V)
	c.Values(&s.Vs)
	List(c, &s.L, 4, (*Coder).Str)
	Map(c, &s.M, 4+8, (*Coder).Str, (*Coder).I64)
	s.Sch.Code(c)
	c.Rest(&s.Tail)
}

func samples() []sample {
	return []sample{
		{},
		{B: 7, U: math.MaxUint64, I: math.MinInt64, N: -1, F: math.Inf(-1), OK: true, S: "héllo", Raw: []byte{0, 1},
			V: S(""), Vs: []Value{I(math.MaxInt64), I(-64), F(math.NaN()), S("x")}, L: []string{"", "b"},
			M: map[string]int64{"b": 2, "a": -1, "": 0}, Sch: Schema{Cols: []Column{{"k", Int}, {"s", String}}}, Tail: []byte("end")},
		{U: 127, I: 63, N: 64, V: F(-0.0), Vs: []Value{I(0)}},
		{U: 128, I: -65, N: 1 << 40, V: I(300)},
	}
}

// TestCoderRoundTrip walks every primitive both ways in both widths.
func TestCoderRoundTrip(t *testing.T) {
	for _, compact := range []bool{false, true} {
		for i, want := range samples() {
			enc, dec := NewEncoder(nil), NewDecoder(nil)
			if compact {
				enc = enc.Compact()
			}
			want.code(&enc)
			b, err := enc.Done()
			if err != nil {
				t.Fatalf("compact=%v sample %d: encode: %v", compact, i, err)
			}
			if dec = NewDecoder(b); compact {
				dec = dec.Compact()
			}
			var got sample
			got.code(&dec)
			if _, err := dec.Done(); err != nil {
				t.Fatalf("compact=%v sample %d: decode: %v", compact, i, err)
			}
			// Printed forms and the re-encoding are the judges: NaN is not
			// DeepEqual to itself, nor an empty slice to a nil one.
			again := NewEncoder(nil)
			if compact {
				again = again.Compact()
			}
			got.code(&again)
			if b2, _ := again.Done(); !bytes.Equal(b, b2) {
				t.Errorf("compact=%v sample %d: re-encoding differs\n got %+v\nwant %+v", compact, i, got, want)
			}
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
				t.Errorf("compact=%v sample %d:\n got %+v\nwant %+v", compact, i, got, want)
			}
			// Every proper prefix runs out of bytes — or, when the cut only
			// shortens the open-ended tail, still decodes.
			for cut := 0; cut < len(b)-len(want.Tail); cut++ {
				d := NewDecoder(b[:cut])
				if compact {
					d = d.Compact()
				}
				var s sample
				s.code(&d)
				if _, err := d.Done(); !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("compact=%v sample %d cut at %d of %d: err = %v, want it to wrap io.ErrUnexpectedEOF", compact, i, cut, len(b), err)
				}
			}
		}
	}
}

// TestCoderCompactIsSmall pins why the second width exists: small
// integers take a byte or two at rest, not eight.
func TestCoderCompactIsSmall(t *testing.T) {
	row := []Value{I(17), I(40503), I(1017)}
	fixed, compact := NewEncoder(nil), NewEncoder(nil).Compact()
	fixed.Values(&row)
	compact.Values(&row)
	f, _ := fixed.Done()
	c, _ := compact.Done()
	if len(f) != 4+3*9 || len(c) != 1+2+4+3 {
		t.Errorf("a three-int row is %d bytes fixed and %d compact, want 31 and 10", len(f), len(c))
	}
}

// TestCoderRejects: what is malformed fails without io.ErrUnexpectedEOF,
// what ran out of bytes fails with it, and nothing is accepted twice.
func TestCoderRejects(t *testing.T) {
	one := func(c *Coder) { var v uint64; c.U64(&v) }
	list := func(c *Coder) { var l []string; List(c, &l, 4, (*Coder).Str) }
	cases := []struct {
		name    string
		compact bool
		in      []byte
		walk    func(*Coder)
		short   bool
	}{
		{"trailing byte", false, []byte{0, 0, 0, 0, 0, 0, 0, 1, 9}, one, false},
		{"fixed int cut short", false, []byte{0, 0, 0}, one, true},
		{"flag byte 2", false, []byte{2}, func(c *Coder) { var b bool; c.Bool(&b) }, false},
		{"unknown value tag", false, []byte{3, 0, 0, 0, 0, 0, 0, 0, 0}, func(c *Coder) { var v Value; c.Value(&v) }, false},
		{"unknown value tag, compact", true, []byte{3, 0}, func(c *Coder) { var v Value; c.Value(&v) }, false},
		{"count beyond the bytes", false, []byte{0, 0, 1, 0, 0, 0, 0, 0}, list, true},
		{"count beyond the bytes, compact", true, []byte{200, 1, 0}, list, true},
		{"varint cut short", true, []byte{0x80}, one, true},
		{"varint overlong", true, []byte{0x80, 0x00}, one, false},
		{"varint over 64 bits", true, bytes.Repeat([]byte{0xff}, 11), one, false},
		{"map keys descending", true, []byte{2, 1, 'b', 0, 1, 'a', 0}, func(c *Coder) {
			var m map[string]int64
			Map(c, &m, 4+8, (*Coder).Str, (*Coder).I64)
		}, false},
		{"map key twice", true, []byte{2, 1, 'a', 0, 1, 'a', 0}, func(c *Coder) {
			var m map[string]int64
			Map(c, &m, 4+8, (*Coder).Str, (*Coder).I64)
		}, false},
		{"unknown column type", false, []byte{0, 0, 0, 1, 0, 0, 0, 1, 'k', 9}, func(c *Coder) { new(Schema).Code(c) }, false},
	}
	for _, tc := range cases {
		d := NewDecoder(tc.in)
		if tc.compact {
			d = d.Compact()
		}
		tc.walk(&d)
		_, err := d.Done()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if errors.Is(err, io.ErrUnexpectedEOF) != tc.short {
			t.Errorf("%s: err = %v, ran-out-of-bytes = %v, want %v", tc.name, err, !tc.short, tc.short)
		}
	}
	// An encoder refuses what a decoder would.
	enc := NewEncoder(nil)
	(&Schema{Cols: []Column{{"k", 9}}}).Code(&enc)
	if _, err := enc.Done(); err == nil {
		t.Error("a schema with column type 9 encoded")
	}
}
