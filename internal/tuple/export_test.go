package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
)

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
