package tuple

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Coder walks a byte layout front to back, in one of two directions: an
// encoder appends every field it is shown, a decoder fills every field
// from the bytes. A function written against a Coder is therefore both
// the encoder and the decoder of its type — the wire messages, the WAL
// records and the checkpoint headers are all such functions — and the
// two directions cannot drift apart. DESIGN.md "Byte formats" lists the
// layouts.
//
// A Coder writes integers in one of two widths, chosen by the medium and
// not by the type. Fixed (the default, the wire's): big-endian, counts
// and lengths 4 bytes, ids and Go ints 8, values AppendValue's form —
// every message has one length whatever its numbers are. Compact (at
// rest: WAL records, checkpoint headers): unsigned LEB128 varints,
// signed ones zig-zagged first, each in its shortest form only — a
// bulk-load record of small integers is a third the size. Bytes, flags,
// floats (8 bytes) and the structure of every layout are the same in
// both.
//
// The first failure sticks: later calls do nothing and Done reports it.
// Decoding is strict. A count the remaining bytes cannot hold and a
// field cut short fail wrapping io.ErrUnexpectedEOF (the input ran
// out); a flag byte that is not 0 or 1, an unknown value tag, whatever
// the caller refuses through Fail, and bytes left over at Done fail
// without it (the input is malformed). Nothing panics and no count
// sizes an allocation beyond the bytes behind it.
type Coder struct {
	b       []byte // encoder: the bytes so far; decoder: the bytes not yet read
	dec     bool
	compact bool
	err     error
}

// NewEncoder returns a Coder that appends to dst.
func NewEncoder(dst []byte) Coder { return Coder{b: dst} }

// NewDecoder returns a Coder that reads src. Decoded byte slices alias
// src; strings and values do not.
func NewDecoder(src []byte) Coder { return Coder{b: src, dec: true} }

// Compact returns the Coder switched to compact integers. Call it
// before walking anything.
func (c Coder) Compact() Coder {
	c.compact = true
	return c
}

// Decoding reports the direction: true when fields are being filled.
func (c *Coder) Decoding() bool { return c.dec }

// Fail records a failure, unless one is recorded already.
func (c *Coder) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// Done ends the walk. An encoder returns its bytes; a decoder fails if
// bytes are left over.
func (c *Coder) Done() ([]byte, error) {
	if c.dec && c.err == nil && len(c.b) != 0 {
		c.Fail("%d trailing bytes", len(c.b))
	}
	if c.err != nil {
		return nil, c.err
	}
	return c.b, nil
}

// take returns the next n bytes of a decoder, or nil after a failure.
func (c *Coder) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.b) {
		c.Fail("%d bytes wanted, %d left: %w", n, len(c.b), io.ErrUnexpectedEOF)
		return nil
	}
	out := c.b[:n:n]
	c.b = c.b[n:]
	return out
}

// U8 walks one byte.
func (c *Coder) U8(p *uint8) {
	if !c.dec {
		c.b = append(c.b, *p)
	} else if b := c.take(1); b != nil {
		*p = b[0]
	}
}

// fixed64 walks 8 big-endian bytes.
func (c *Coder) fixed64(p *uint64) {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint64(c.b, *p)
	} else if b := c.take(8); b != nil {
		*p = binary.BigEndian.Uint64(b)
	}
}

// U64 walks an unsigned integer: 8 bytes, or a varint when compact. A
// compact decoder accepts a varint in its shortest form only, so that a
// number has one encoding.
func (c *Coder) U64(p *uint64) {
	switch {
	case !c.compact:
		c.fixed64(p)
	case !c.dec:
		c.b = binary.AppendUvarint(c.b, *p)
	case c.err == nil:
		v, n := binary.Uvarint(c.b)
		switch {
		case n == 0:
			c.Fail("varint cut short: %w", io.ErrUnexpectedEOF)
		case n < 0 || n > 1 && c.b[n-1] == 0:
			c.Fail("varint overlong or out of range")
		default:
			*p, c.b = v, c.b[n:]
		}
	}
}

// I64 walks a signed integer: 8 bytes, or a zig-zag varint when compact.
func (c *Coder) I64(p *int64) {
	u := uint64(*p)
	if c.compact {
		u = uint64(*p<<1) ^ uint64(*p>>63)
	}
	if c.U64(&u); c.dec {
		if *p = int64(u); c.compact {
			*p = int64(u>>1) ^ -int64(u&1)
		}
	}
}

// Int walks a Go int like I64.
func (c *Coder) Int(p *int) {
	v := int64(*p)
	if c.I64(&v); c.dec {
		*p = int(v)
	}
}

// Float walks a float64 as its 8 IEEE-754 bytes, NaN payloads included.
func (c *Coder) Float(p *float64) {
	u := math.Float64bits(*p)
	if c.fixed64(&u); c.dec {
		*p = math.Float64frombits(u)
	}
}

// Bool walks a flag byte, which must be 0 or 1.
func (c *Coder) Bool(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	if c.U8(&v); v > 1 {
		c.Fail("flag byte %d", v)
	} else if c.dec {
		*p = v == 1
	}
}

// count walks an element count (4 bytes, or a varint when compact): an
// encoder writes n and returns it; a decoder returns the count it read,
// after checking that the bytes left can hold that many elements.
// elemSize is the least size of one element in fixed widths; a compact
// element is at least an eighth of that, a byte per field.
func (c *Coder) count(n, elemSize int) int {
	u := uint64(n)
	switch {
	case c.compact:
		elemSize = max(1, elemSize/8)
		c.U64(&u)
	case !c.dec:
		c.b = binary.BigEndian.AppendUint32(c.b, uint32(n))
	default:
		if b := c.take(4); b != nil {
			u = uint64(binary.BigEndian.Uint32(b))
		}
	}
	if !c.dec {
		return n
	}
	if c.err != nil {
		return 0
	}
	if u > uint64(len(c.b)/elemSize) {
		c.Fail("count %d exceeds the %d bytes left: %w", u, len(c.b), io.ErrUnexpectedEOF)
		return 0
	}
	return int(u)
}

// Bytes walks a length-prefixed byte string.
func (c *Coder) Bytes(p *[]byte) {
	if n := c.count(len(*p), 1); !c.dec {
		c.b = append(c.b, *p...)
	} else {
		*p = c.take(n)
	}
}

// Str walks a length-prefixed string.
func (c *Coder) Str(p *string) {
	if n := c.count(len(*p), 1); !c.dec {
		c.b = append(c.b, *p...)
	} else {
		*p = string(c.take(n))
	}
}

// Rest walks everything up to the end of the input: an encoder appends
// *p, a decoder takes all the bytes left.
func (c *Coder) Rest(p *[]byte) {
	if !c.dec {
		c.b = append(c.b, *p...)
	} else {
		*p = c.take(len(c.b))
	}
}

// Append lets an encoder's caller lay out bytes of its own: f receives
// the bytes so far and returns them extended. A decoder's counterpart
// is Rest or Bytes.
func (c *Coder) Append(f func(dst []byte) ([]byte, error)) {
	if c.dec || c.err != nil {
		return
	}
	if b, err := f(c.b); err != nil {
		c.err = err
	} else {
		c.b = b
	}
}

// Sized lets an encoder's caller lay out a length-prefixed byte string
// of its own in place: n is its length, and f appends exactly n bytes to
// the bytes so far, for which room is made first — so a large encoding is
// built once, in the buffer it ends up in. A decoder's counterpart is
// Bytes.
func (c *Coder) Sized(n int, f func(dst []byte) ([]byte, error)) {
	if c.dec || c.err != nil {
		return
	}
	c.count(n, 1)
	c.b = slices.Grow(c.b, n)
	start := len(c.b)
	if c.Append(f); c.err == nil && len(c.b)-start != n {
		c.Fail("%d bytes laid out, %d announced", len(c.b)-start, n)
	}
}

// Value walks one value: AppendValue's form, or when compact [1 tag] and
// the payload as I64, Float or Str walk it.
func (c *Coder) Value(p *Value) {
	switch {
	case c.compact:
		if c.dec {
			*p = Value{}
		}
		c.U8((*uint8)(&p.typ))
		switch p.typ {
		case Int:
			c.I64(&p.i)
		case Float:
			c.Float(&p.f)
		case String:
			c.Str(&p.s)
		default:
			c.Fail("tuple: unknown value tag %d", p.typ)
		}
	case !c.dec:
		c.b = AppendValue(c.b, *p)
	case c.err == nil:
		v, n, err := DecodeValue(c.b)
		if err != nil {
			c.err = err
			return
		}
		*p, c.b = v, c.b[n:]
	}
}

// minValueSize is the least encoded size of a value: a tag and an empty
// string's length.
const minValueSize = 5

// Values walks a counted value list.
func (c *Coder) Values(p *[]Value) { List(c, p, minValueSize, (*Coder).Value) }

// List walks a counted list: the count, then every element through
// elem — a Coder method ((*Coder).Str) or any function of that shape.
// minSize is the least encoded size of one element, which bounds the
// count a decoder accepts. An empty list decodes as nil.
func List[T any](c *Coder, s *[]T, minSize int, elem func(*Coder, *T)) {
	n := c.count(len(*s), minSize)
	if c.dec {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// Map walks a map as a counted list of (key, value) pairs in ascending
// key order, so equal maps have equal bytes; a decoder refuses keys
// that are not strictly ascending. minSize is the least encoded size of
// one pair. An empty map decodes as nil.
func Map[K cmp.Ordered, V any](c *Coder, m *map[K]V, minSize int, key func(*Coder, *K), val func(*Coder, *V)) {
	keys := make([]K, 0, len(*m))
	for k := range *m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	n := c.count(len(keys), minSize)
	if c.dec {
		*m = nil
		if n > 0 {
			*m = make(map[K]V, n)
		}
		keys = make([]K, n)
	}
	for i := range keys {
		k, v := keys[i], (*m)[keys[i]]
		key(c, &k)
		val(c, &v)
		if c.dec && c.err == nil {
			if i > 0 && k <= keys[i-1] {
				c.Fail("map keys out of order")
				return
			}
			keys[i], (*m)[k] = k, v
		}
	}
}

// Code walks the schema's layout: [4 columns] then [name][1 type] per
// column.
func (s *Schema) Code(c *Coder) {
	List(c, &s.Cols, 4+1, func(c *Coder, col *Column) {
		c.Str(&col.Name)
		c.U8((*uint8)(&col.Type))
		if col.Type > String {
			c.Fail("column %q has unknown type tag %d", col.Name, col.Type)
		}
	})
}
