package colpage

import (
	"encoding/binary"
	"fmt"
	"math"

	"viewmat/internal/vec"
)

// A row set is a query result on the wire (internal/proto): the value
// lanes of the page chunk without its id lane and zone footer — result
// rows carry no ids and nobody prunes an answer. It is written from the
// answer's column lanes (AppendLanes) by the chunk's own lane encoder,
// and read back onto lanes (DecodeLanes) by the chunk's own lane decoder.
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

// DecodeLanes decodes a row set that fills src exactly onto fresh
// column lanes, each run's lanes through the page chunk's lane decoder
// (lane.locate, lane.gather). String cells share one arena per lane.
// maxCells bounds rows × cols before anything is allocated: a constant
// column's lane stands for 65 535 cells in ten bytes, so the size of src
// bounds nothing.
func DecodeLanes(src []byte, maxCells int) (rows int, cols []vec.Col, err error) {
	if len(src) < rowSetHeader {
		return 0, nil, fmt.Errorf("colpage: short row set (%d bytes)", len(src))
	}
	rows = int(binary.BigEndian.Uint32(src))
	ncols := int(binary.BigEndian.Uint16(src[4:]))
	if rows == 0 && ncols != 0 {
		return 0, nil, fmt.Errorf("colpage: empty row set with %d columns", ncols)
	}
	if rows*max(ncols, 1) > maxCells {
		return 0, nil, fmt.Errorf("colpage: %d×%d row set exceeds %d cells", rows, ncols, maxCells)
	}
	cols = make([]vec.Col, ncols)
	off := rowSetHeader
	for base := 0; base < rows; base += MaxChunkRows {
		n := min(rows-base, MaxChunkRows)
		for c := range cols {
			var l lane
			if off, err = l.locate(src, off, n); err != nil {
				return 0, nil, fmt.Errorf("colpage: row %d column %d: %w", base, c, err)
			}
			l.gather(src, n, nil, &cols[c])
		}
	}
	if off != len(src) {
		return 0, nil, fmt.Errorf("colpage: %d bytes trail the row set", len(src)-off)
	}
	return rows, cols, nil
}
