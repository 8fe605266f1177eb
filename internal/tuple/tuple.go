// Package tuple defines schemas, typed values, and tuples for the
// viewmat storage engine, together with a compact binary encoding used
// to lay tuples out on simulated disk pages.
//
// Tuples carry a unique, monotonically increasing identifier (the "id"
// field of the hypothetical-relation scheme in Hanson §2.2.1); the
// identifier is assigned by the engine from a logical clock and is what
// lets a deletion in the differential file name exactly the base tuple
// it removes.
package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Type enumerates the column types supported by the engine.
type Type uint8

const (
	// Int is a 64-bit signed integer column.
	Int Type = iota
	// Float is a 64-bit IEEE-754 column.
	Float
	// String is a variable-length byte-string column.
	String
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case String:
		return "STRING"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type Type
}

// Schema describes the attributes of a relation or view. The zero value
// is an empty schema.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from (name, type) pairs.
func NewSchema(cols ...Column) *Schema {
	return &Schema{Cols: cols}
}

// Col is a convenience constructor for a Column.
func Col(name string, t Type) Column {
	return Column{Name: name, Type: t}
}

// ColIndex returns the position of the named column, or -1 if absent.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustColIndex is ColIndex that panics on an unknown column; it is used
// when schemas are constructed programmatically and a miss is a bug.
func (s *Schema) MustColIndex(name string) int {
	i := s.ColIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("tuple: schema has no column %q", name))
	}
	return i
}

// Project returns the schema consisting of the given column positions.
func (s *Schema) Project(idx []int) *Schema {
	out := &Schema{Cols: make([]Column, len(idx))}
	for i, j := range idx {
		out.Cols[i] = s.Cols[j]
	}
	return out
}

// Concat returns the schema of s followed by t, prefixing duplicate
// names the way a natural-join result does.
func (s *Schema) Concat(t *Schema, leftPrefix, rightPrefix string) *Schema {
	seen := map[string]bool{}
	for _, c := range s.Cols {
		seen[c.Name] = true
	}
	out := &Schema{Cols: make([]Column, 0, len(s.Cols)+len(t.Cols))}
	for _, c := range s.Cols {
		out.Cols = append(out.Cols, c)
	}
	for _, c := range t.Cols {
		name := c.Name
		if seen[name] {
			name = rightPrefix + "." + name
		}
		out.Cols = append(out.Cols, Column{Name: name, Type: c.Type})
	}
	_ = leftPrefix
	return out
}

// String renders the schema as "(name TYPE, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
	}
	b.WriteByte(')')
	return b.String()
}

// Validate reports whether vals conforms to the schema.
func (s *Schema) Validate(vals []Value) error {
	if len(vals) != len(s.Cols) {
		return fmt.Errorf("tuple: arity %d does not match schema arity %d", len(vals), len(s.Cols))
	}
	for i, v := range vals {
		if v.Type() != s.Cols[i].Type {
			return fmt.Errorf("tuple: column %q expects %s, got %s", s.Cols[i].Name, s.Cols[i].Type, v.Type())
		}
	}
	return nil
}

// Value is a typed scalar. The zero Value is the integer 0.
type Value struct {
	typ Type
	i   int64
	f   float64
	s   string
}

// I constructs an Int value.
func I(v int64) Value { return Value{typ: Int, i: v} }

// F constructs a Float value.
func F(v float64) Value { return Value{typ: Float, f: v} }

// S constructs a String value.
func S(v string) Value { return Value{typ: String, s: v} }

// Type returns the value's type tag.
func (v Value) Type() Type { return v.typ }

// Int returns the integer payload; callers must know the type.
func (v Value) Int() int64 { return v.i }

// Float returns the float payload.
func (v Value) Float() float64 { return v.f }

// Str returns the string payload.
func (v Value) Str() string { return v.s }

// AsFloat converts numeric values to float64 (used by aggregates).
func (v Value) AsFloat() float64 {
	switch v.typ {
	case Int:
		return float64(v.i)
	case Float:
		return v.f
	default:
		return math.NaN()
	}
}

// Compare orders two values of the same type: -1, 0, or +1. Values of
// different types order by type tag, so heterogenous keys still sort
// deterministically rather than panicking mid-scan.
func Compare(a, b Value) int {
	if a.typ != b.typ {
		if a.typ < b.typ {
			return -1
		}
		return 1
	}
	switch a.typ {
	case Int:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		}
		return 0
	case Float:
		return CompareFloat(a.f, b.f)
	default:
		return strings.Compare(a.s, b.s)
	}
}

// CompareFloat is the engine's one order on floats: -1, 0, or +1. It is
// total. −0 equals +0, and every NaN, whatever its payload, is one value
// greater than every other float, +∞ included — where PostgreSQL puts
// it, and unlike Go's cmp.Compare, which puts NaN below −∞ and so would
// have f < 0 keep NaN rows.
func CompareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	case math.IsNaN(a) && math.IsNaN(b):
		return 0
	case math.IsNaN(a):
		return 1
	}
	return -1
}

// Canonical is the one member of v's class under Compare: −0 becomes +0
// and every NaN math.NaN(); any other value is v itself. Two values
// compare equal exactly when their canonical encodings (AppendValue) are
// equal, so a hash or a map key of the canonical encoding agrees with
// Compare. (A Value's == does not: NaN is never == NaN.)
func Canonical(v Value) Value {
	if v.typ == Float {
		switch {
		case v.f == 0:
			return F(0)
		case math.IsNaN(v.f):
			return F(math.NaN())
		}
	}
	return v
}

// Equal reports whether two values compare equal: the same type and,
// for a float, the same class under CompareFloat.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.typ {
	case Int:
		return fmt.Sprintf("%d", v.i)
	case Float:
		return fmt.Sprintf("%g", v.f)
	default:
		return fmt.Sprintf("%q", v.s)
	}
}

// Tuple is a row: a unique identifier plus one value per schema column.
// The identifier plays the role of the HR scheme's "id" field — it is
// assigned once at insert time from a monotonic source and never reused,
// so (id, value) uniquely names a version of a row.
type Tuple struct {
	ID   uint64
	Vals []Value
}

// New builds a tuple with the given id and values.
func New(id uint64, vals ...Value) Tuple {
	return Tuple{ID: id, Vals: vals}
}

// Get returns the value at column i.
func (t Tuple) Get(i int) Value { return t.Vals[i] }

// Project returns a new tuple keeping only the given column positions.
// The id is preserved: projection in the differential-update algorithm
// must keep track of which base tuple contributed the row.
func (t Tuple) Project(idx []int) Tuple {
	out := Tuple{ID: t.ID, Vals: make([]Value, len(idx))}
	for i, j := range idx {
		out.Vals[i] = t.Vals[j]
	}
	return out
}

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := Tuple{ID: t.ID, Vals: make([]Value, len(t.Vals))}
	copy(out.Vals, t.Vals)
	return out
}

// Join concatenates two tuples into one (natural-join result row). The
// id of the left tuple is kept; join provenance beyond that is the
// responsibility of the view layer.
func Join(a, b Tuple) Tuple {
	out := Tuple{ID: a.ID, Vals: make([]Value, 0, len(a.Vals)+len(b.Vals))}
	out.Vals = append(out.Vals, a.Vals...)
	out.Vals = append(out.Vals, b.Vals...)
	return out
}

// ValsEqual reports whether two tuples have identical values (ignoring
// ids). This is "duplicate" in the duplicate-count sense of §2.1.
func ValsEqual(a, b Tuple) bool {
	if len(a.Vals) != len(b.Vals) {
		return false
	}
	for i := range a.Vals {
		if !Equal(a.Vals[i], b.Vals[i]) {
			return false
		}
	}
	return true
}

// ValueKey renders the tuple's values as a canonical string key, used
// for duplicate-count bookkeeping and for hashing into Bloom filters.
func (t Tuple) ValueKey() string {
	var b strings.Builder
	for i, v := range t.Vals {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(v.String())
	}
	return b.String()
}

// String renders the tuple for diagnostics.
func (t Tuple) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d[", t.ID)
	for i, v := range t.Vals {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(']')
	return b.String()
}

// --- binary encoding ---------------------------------------------------

// EncodedSize returns the number of bytes Encode will produce.
func (t Tuple) EncodedSize() int {
	n := 8 + 2 // id + column count
	for _, v := range t.Vals {
		n++ // type tag
		switch v.typ {
		case Int, Float:
			n += 8
		case String:
			n += 4 + len(v.s)
		}
	}
	return n
}

// Encode appends the binary form of the tuple to dst and returns the
// extended slice. The layout is: id (8 bytes), column count (2 bytes),
// then per value a 1-byte type tag followed by the payload.
func (t Tuple) Encode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, t.ID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(t.Vals)))
	for _, v := range t.Vals {
		dst = append(dst, byte(v.typ))
		switch v.typ {
		case Int:
			dst = binary.BigEndian.AppendUint64(dst, uint64(v.i))
		case Float:
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.f))
		case String:
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(v.s)))
			dst = append(dst, v.s...)
		}
	}
	return dst
}

// Decode parses one tuple from the front of src, returning the tuple
// and the number of bytes consumed.
func Decode(src []byte) (Tuple, int, error) {
	if len(src) < 10 {
		return Tuple{}, 0, fmt.Errorf("tuple: short buffer (%d bytes)", len(src))
	}
	t := Tuple{ID: binary.BigEndian.Uint64(src)}
	n := int(binary.BigEndian.Uint16(src[8:]))
	off := 10
	t.Vals = make([]Value, n)
	for i := 0; i < n; i++ {
		if off >= len(src) {
			return Tuple{}, 0, fmt.Errorf("tuple: truncated value %d", i)
		}
		typ := Type(src[off])
		off++
		switch typ {
		case Int:
			if off+8 > len(src) {
				return Tuple{}, 0, fmt.Errorf("tuple: truncated int value %d", i)
			}
			t.Vals[i] = I(int64(binary.BigEndian.Uint64(src[off:])))
			off += 8
		case Float:
			if off+8 > len(src) {
				return Tuple{}, 0, fmt.Errorf("tuple: truncated float value %d", i)
			}
			t.Vals[i] = F(math.Float64frombits(binary.BigEndian.Uint64(src[off:])))
			off += 8
		case String:
			if off+4 > len(src) {
				return Tuple{}, 0, fmt.Errorf("tuple: truncated string length %d", i)
			}
			l := int(binary.BigEndian.Uint32(src[off:]))
			off += 4
			if off+l > len(src) {
				return Tuple{}, 0, fmt.Errorf("tuple: truncated string value %d", i)
			}
			t.Vals[i] = S(string(src[off : off+l]))
			off += l
		default:
			return Tuple{}, 0, fmt.Errorf("tuple: unknown type tag %d", typ)
		}
	}
	return t, off, nil
}
