package tuple

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// AppendValue appends the binary form of a single value to dst: a
// 1-byte type tag followed by the payload (8 bytes for Int/Float,
// 4-byte length + bytes for String). Index structures use this to store
// separator keys.
func AppendValue(dst []byte, v Value) []byte {
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
	return dst
}

// ValueSize returns the number of bytes AppendValue produces for v.
func ValueSize(v Value) int {
	switch v.typ {
	case String:
		return 1 + 4 + len(v.s)
	default:
		return 1 + 8
	}
}

// DecodeValue parses one value from the front of src, returning the
// value and bytes consumed. A src that ends early fails wrapping
// io.ErrUnexpectedEOF; an unknown tag does not.
func DecodeValue(src []byte) (Value, int, error) {
	if len(src) < 1 {
		return Value{}, 0, fmt.Errorf("tuple: empty value buffer: %w", io.ErrUnexpectedEOF)
	}
	typ := Type(src[0])
	switch typ {
	case Int:
		if len(src) < 9 {
			return Value{}, 0, fmt.Errorf("tuple: truncated int value: %w", io.ErrUnexpectedEOF)
		}
		return I(int64(binary.BigEndian.Uint64(src[1:]))), 9, nil
	case Float:
		if len(src) < 9 {
			return Value{}, 0, fmt.Errorf("tuple: truncated float value: %w", io.ErrUnexpectedEOF)
		}
		return F(math.Float64frombits(binary.BigEndian.Uint64(src[1:]))), 9, nil
	case String:
		if len(src) < 5 {
			return Value{}, 0, fmt.Errorf("tuple: truncated string header: %w", io.ErrUnexpectedEOF)
		}
		l := int(binary.BigEndian.Uint32(src[1:]))
		if len(src) < 5+l {
			return Value{}, 0, fmt.Errorf("tuple: truncated string payload: %w", io.ErrUnexpectedEOF)
		}
		return S(string(src[5 : 5+l])), 5 + l, nil
	default:
		return Value{}, 0, fmt.Errorf("tuple: unknown value tag %d", typ)
	}
}
