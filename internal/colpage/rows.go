package colpage

import (
	"encoding/binary"
	"fmt"
	"math"

	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// A row set is a query result on the wire (internal/proto): the value
// lanes of the page chunk without its id lane and zone footer — result
// rows carry no ids and nobody prunes an answer. It is written from the
// answer's column lanes (AppendLanes) by the chunk's own lane encoder.
//
//	[4 rows][2 cols]                 header, big-endian
//	per run of ≤ MaxChunkRows rows:  cols × [1 enc][payload]
//
// Every run but the last holds exactly MaxChunkRows rows, so the run
// boundaries follow from the header and are not stored. The lanes are
// byte for byte what a page chunk of the same rows would hold.

// MaxChunkRows is the most rows one run of lanes can hold: the lane
// encodings count rows and runs in 16 bits.
const MaxChunkRows = math.MaxUint16

// rowSetHeader is the fixed prefix: [4 rows][2 cols].
const rowSetHeader = 6

// AppendLanes appends an answer held as column lanes — rows cells in
// each of cols, every column dense — to dst as a row set.
func AppendLanes(dst []byte, rows int, cols []vec.Col) ([]byte, error) {
	if rows > math.MaxUint32 {
		return nil, fmt.Errorf("colpage: %d rows exceed row-set capacity", rows)
	}
	if rows == 0 {
		cols = nil // a row set has no way to say "no rows, some columns"
	}
	if len(cols) > math.MaxUint16 {
		return nil, fmt.Errorf("colpage: %d columns exceed row-set capacity", len(cols))
	}
	for c := range cols {
		if cols[c].Len() != rows {
			return nil, fmt.Errorf("colpage: column %d holds %d cells for %d rows", c, cols[c].Len(), rows)
		}
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(rows))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(cols)))
	for lo := 0; lo < rows; lo += MaxChunkRows {
		n := min(rows-lo, MaxChunkRows)
		for c := range cols {
			dst = appendColumn(dst, &cols[c], lo, n)
		}
	}
	return dst, nil
}

// AppendRows appends rows, which must all have the same arity, to dst
// as a row set: AppendLanes over the rows' columns.
func AppendRows(dst []byte, rows [][]tuple.Value) ([]byte, error) {
	var cols []vec.Col
	if len(rows) > 0 {
		cols = make([]vec.Col, len(rows[0]))
		for _, r := range rows[1:] {
			if len(r) != len(cols) {
				return nil, fmt.Errorf("colpage: mixed arity (%d vs %d)", len(r), len(cols))
			}
		}
	}
	for c := range cols {
		for _, r := range rows {
			cols[c].Append(r[c])
		}
	}
	return AppendLanes(dst, len(rows), cols)
}

// DecodeRows decodes a row set that fills src exactly. All cells live
// in one flat array that the returned rows slice up; string cells
// share one arena per lane. maxCells bounds rows × cols before anything
// is allocated: a constant column's lane stands for 65 535 cells in ten
// bytes, so the size of src bounds nothing.
func DecodeRows(src []byte, maxCells int) ([][]tuple.Value, error) {
	if len(src) < rowSetHeader {
		return nil, fmt.Errorf("colpage: short row set (%d bytes)", len(src))
	}
	rows := int(binary.BigEndian.Uint32(src))
	cols := int(binary.BigEndian.Uint16(src[4:]))
	if rows == 0 && cols != 0 {
		return nil, fmt.Errorf("colpage: empty row set with %d columns", cols)
	}
	if rows*max(cols, 1) > maxCells {
		return nil, fmt.Errorf("colpage: %d×%d row set exceeds %d cells", rows, cols, maxCells)
	}
	flat := make([]tuple.Value, rows*cols)
	out := make([][]tuple.Value, rows)
	for i := range out {
		out[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	off := rowSetHeader
	for base := 0; base < rows; base += MaxChunkRows {
		n := min(rows-base, MaxChunkRows)
		for c := 0; c < cols; c++ {
			var err error
			if off, err = decodeLaneValues(src, off, n, flat[base*cols+c:], cols); err != nil {
				return nil, fmt.Errorf("colpage: row %d column %d: %w", base, c, err)
			}
		}
	}
	if off != len(src) {
		return nil, fmt.Errorf("colpage: %d bytes trail the row set", len(src)-off)
	}
	return out, nil
}

// decodeLaneValues decodes one lane of rows cells with tuple.Values as
// the sink: cell i of the lane lands in out[i*stride]. It accepts exactly
// the lanes a chunk decode accepts (TestRowSetMatchesChunk and
// FuzzColPageCodec hold them together).
func decodeLaneValues(body []byte, off, rows int, out []tuple.Value, stride int) (int, error) {
	if off >= len(body) {
		return 0, fmt.Errorf("truncated lane header")
	}
	enc := body[off]
	off++
	switch enc {
	case encMixed:
		for i := 0; i < rows; i++ {
			v, n, err := tuple.DecodeValue(body[off:])
			if err != nil {
				return 0, fmt.Errorf("cell %d: %w", i, err)
			}
			off += n
			out[i*stride] = v
		}
		return off, nil
	case encIntFOR:
		if off+9 > len(body) {
			return 0, fmt.Errorf("truncated FOR header")
		}
		ref := binary.BigEndian.Uint64(body[off:])
		w := int(body[off+8])
		off += 9
		if w > 8 {
			return 0, fmt.Errorf("FOR width %d", w)
		}
		if off+rows*w > len(body) {
			return 0, fmt.Errorf("truncated FOR deltas")
		}
		for i := 0; i < rows; i++ {
			out[i*stride] = tuple.I(int64(ref + readBE(body[off:], w)))
			off += w
		}
		return off, nil
	case encIntRLE:
		if off+2 > len(body) {
			return 0, fmt.Errorf("truncated RLE header")
		}
		runs := int(binary.BigEndian.Uint16(body[off:]))
		off += 2
		total := 0
		for r := 0; r < runs; r++ {
			if off+10 > len(body) {
				return 0, fmt.Errorf("truncated run %d", r)
			}
			v := tuple.I(int64(binary.BigEndian.Uint64(body[off:])))
			n := int(binary.BigEndian.Uint16(body[off+8:]))
			off += 10
			if total+n > rows {
				return 0, fmt.Errorf("runs exceed %d rows", rows)
			}
			for k := total; k < total+n; k++ {
				out[k*stride] = v
			}
			total += n
		}
		if total != rows {
			return 0, fmt.Errorf("runs cover %d of %d rows", total, rows)
		}
		return off, nil
	case encFloatRaw:
		if off+rows*8 > len(body) {
			return 0, fmt.Errorf("truncated float lane")
		}
		for i := 0; i < rows; i++ {
			out[i*stride] = tuple.F(math.Float64frombits(binary.BigEndian.Uint64(body[off:])))
			off += 8
		}
		return off, nil
	case encBytesRaw:
		end, _, err := scanStrings(body, off, rows)
		if err != nil {
			return 0, err
		}
		// One copy of the lane, length prefixes included, backs every
		// cell.
		arena := string(body[off:end])
		for i, p := 0, 0; i < rows; i++ {
			l := int(binary.BigEndian.Uint32(body[off+p:]))
			p += 4
			out[i*stride] = tuple.S(arena[p : p+l])
			p += l
		}
		return end, nil
	case encBytesDict:
		if off+2 > len(body) {
			return 0, fmt.Errorf("truncated dict header")
		}
		dictN := int(binary.BigEndian.Uint16(body[off:]))
		off += 2
		if dictN > maxDict {
			return 0, fmt.Errorf("dict of %d entries", dictN)
		}
		end, _, err := scanStrings(body, off, dictN)
		if err != nil {
			return 0, err
		}
		arena := string(body[off:end])
		entries := make([]tuple.Value, dictN)
		for d, p := 0, 0; d < dictN; d++ {
			l := int(binary.BigEndian.Uint32(body[off+p:]))
			p += 4
			entries[d] = tuple.S(arena[p : p+l])
			p += l
		}
		off = end
		if off+rows > len(body) {
			return 0, fmt.Errorf("truncated dict indexes")
		}
		for i := 0; i < rows; i++ {
			idx := int(body[off])
			off++
			if idx >= dictN {
				return 0, fmt.Errorf("dict index %d of %d", idx, dictN)
			}
			out[i*stride] = entries[idx]
		}
		return off, nil
	default:
		return 0, fmt.Errorf("unknown lane encoding %d", enc)
	}
}

// scanStrings walks n [4 len][bytes] strings starting at off, returning
// the offset just past the last and the sum of their lengths.
func scanStrings(body []byte, off, n int) (end, total int, err error) {
	for i := 0; i < n; i++ {
		if off+4 > len(body) {
			return 0, 0, fmt.Errorf("truncated string length %d", i)
		}
		l := int(binary.BigEndian.Uint32(body[off:]))
		off += 4
		if off+l > len(body) {
			return 0, 0, fmt.Errorf("truncated string %d", i)
		}
		off += l
		total += l
	}
	return off, total, nil
}
