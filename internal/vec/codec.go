package vec

import (
	"encoding/binary"
	"fmt"
	"math"

	"viewmat/internal/tuple"
)

// EncodeSlot appends the tuple page encoding of slot s's live rows to
// dst, byte-identical to calling tuple.Encode on each gathered tuple:
// id (8 bytes BE), column count (2 bytes), then per value a 1-byte type
// tag and its payload (8-byte int/float, 4-byte-length-prefixed string
// bytes). It writes straight from the column lanes, so serializing a
// batch never materializes intermediate tuples.
func (b *Batch) EncodeSlot(s int, dst []byte) ([]byte, error) {
	if !b.slotSet[s] {
		return nil, fmt.Errorf("vec: batch has no slot %d", s)
	}
	cols := b.Slots[s]
	for k := 0; k < b.LiveCount(); k++ {
		i := b.LiveIndex(k)
		dst = binary.BigEndian.AppendUint64(dst, b.IDs[s][i])
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(cols)))
		for c := range cols {
			col := &cols[c]
			t := col.Tag(i)
			dst = append(dst, byte(t))
			switch t {
			case tuple.Int:
				dst = binary.BigEndian.AppendUint64(dst, uint64(col.Ints[i]))
			case tuple.Float:
				dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(col.Floats[i]))
			default:
				dst = binary.BigEndian.AppendUint32(dst, uint32(len(col.Bytes[i])))
				dst = append(dst, col.Bytes[i]...)
			}
		}
	}
	return dst, nil
}

// DecodeSlot parses a run of consecutively encoded tuples (the page
// layout EncodeSlot writes) into a fresh dense batch binding slot 0,
// without materializing intermediate tuples.
func DecodeSlot(src []byte) (*Batch, error) {
	b := &Batch{}
	off := 0
	for off < len(src) {
		if off+10 > len(src) {
			return nil, fmt.Errorf("vec: truncated tuple header at %d", off)
		}
		id := binary.BigEndian.Uint64(src[off:])
		ncols := int(binary.BigEndian.Uint16(src[off+8:]))
		off += 10
		if b.n == 0 {
			b.slotSet[0] = true
			b.Slots[0] = make([]Col, ncols)
		} else if ncols != len(b.Slots[0]) {
			return nil, fmt.Errorf("vec: row %d has %d columns, batch has %d", b.n, ncols, len(b.Slots[0]))
		}
		for c := 0; c < ncols; c++ {
			if off >= len(src) {
				return nil, fmt.Errorf("vec: truncated value %d", c)
			}
			col := &b.Slots[0][c]
			typ := tuple.Type(src[off])
			off++
			switch typ {
			case tuple.Int:
				if off+8 > len(src) {
					return nil, fmt.Errorf("vec: truncated int value %d", c)
				}
				col.GrowInts(1)[0] = int64(binary.BigEndian.Uint64(src[off:]))
				off += 8
			case tuple.Float:
				if off+8 > len(src) {
					return nil, fmt.Errorf("vec: truncated float value %d", c)
				}
				col.GrowFloats(1)[0] = math.Float64frombits(binary.BigEndian.Uint64(src[off:]))
				off += 8
			case tuple.String:
				if off+4 > len(src) {
					return nil, fmt.Errorf("vec: truncated string length %d", c)
				}
				l := int(binary.BigEndian.Uint32(src[off:]))
				off += 4
				if off+l > len(src) {
					return nil, fmt.Errorf("vec: truncated string value %d", c)
				}
				col.GrowBytes(1)[0] = append([]byte(nil), src[off:off+l]...)
				off += l
			default:
				return nil, fmt.Errorf("vec: unknown type tag %d", typ)
			}
		}
		b.IDs[0] = append(b.IDs[0], id)
		b.n++
	}
	return b, nil
}
