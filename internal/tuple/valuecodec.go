package tuple

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
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

// encodedSize returns the size of the value AppendValue encoded at the
// front of src. A src that ends early fails wrapping io.ErrUnexpectedEOF;
// an unknown tag does not.
func encodedSize(src []byte) (int, error) {
	if len(src) < 1 {
		return 0, fmt.Errorf("tuple: empty value buffer: %w", io.ErrUnexpectedEOF)
	}
	switch typ := Type(src[0]); typ {
	case Int, Float:
		if len(src) < 9 {
			return 0, fmt.Errorf("tuple: truncated %s value: %w", strings.ToLower(typ.String()), io.ErrUnexpectedEOF)
		}
		return 9, nil
	case String:
		if len(src) < 5 {
			return 0, fmt.Errorf("tuple: truncated string header: %w", io.ErrUnexpectedEOF)
		}
		l := int(binary.BigEndian.Uint32(src[1:]))
		if len(src)-5 < l {
			return 0, fmt.Errorf("tuple: truncated string payload: %w", io.ErrUnexpectedEOF)
		}
		return 5 + l, nil
	default:
		return 0, fmt.Errorf("tuple: unknown value tag %d", typ)
	}
}

// CompareEncoded compares the value AppendValue encoded at the front of
// src with v, as Compare(DecodeValue(src), v) would, and returns the
// bytes it spans — without decoding it: a string is compared where it
// lies, so nothing is allocated. src fails as DecodeValue fails.
func CompareEncoded(src []byte, v Value) (cmp, n int, err error) {
	if n, err = encodedSize(src); err != nil {
		return 0, 0, err
	}
	if t := Type(src[0]); t != v.typ {
		if t < v.typ {
			return -1, n, nil
		}
		return 1, n, nil
	}
	switch v.typ {
	case Int:
		a := int64(binary.BigEndian.Uint64(src[1:]))
		switch {
		case a < v.i:
			return -1, n, nil
		case a > v.i:
			return 1, n, nil
		}
	case Float:
		return CompareFloat(math.Float64frombits(binary.BigEndian.Uint64(src[1:])), v.f), n, nil
	default:
		switch s := src[5:n]; {
		case string(s) < v.s:
			return -1, n, nil
		case string(s) > v.s:
			return 1, n, nil
		}
	}
	return 0, n, nil
}

// DecodeValue parses one value from the front of src, returning the
// value and bytes consumed. A src that ends early fails wrapping
// io.ErrUnexpectedEOF; an unknown tag does not.
func DecodeValue(src []byte) (Value, int, error) {
	n, err := encodedSize(src)
	if err != nil {
		return Value{}, 0, err
	}
	switch Type(src[0]) {
	case Int:
		return I(int64(binary.BigEndian.Uint64(src[1:]))), n, nil
	case Float:
		return F(math.Float64frombits(binary.BigEndian.Uint64(src[1:]))), n, nil
	default:
		return S(string(src[5:n])), n, nil
	}
}
