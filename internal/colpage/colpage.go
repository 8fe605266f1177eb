// Package colpage is the columnar page encoding: within one data page,
// tuples are laid out as typed column chunks (one int, float or bytes
// lane per column, as in vec.Col) with lightweight per-column encodings
// — frame-of-reference or run-length for ints, raw IEEE bits for
// floats, dictionary or raw for byte strings, and a per-cell tagged
// fallback for mixed-type columns — plus a footer holding the row count
// and per-column min/max zone maps.
//
// The chunk is deliberately capacity-neutral: access methods size and
// split pages by the row-major encoded size regardless of layout, and a
// chunk that will not fit in the page falls back to the row encoding
// for that page. Both layouts therefore produce identical page counts
// and identical metered I/O; the chunk's wins are decode speed (lanes
// deserialize straight onto vec.Col lanes, one grow and one loop each,
// with no intermediate tuples) and zone-map pruning (a scan can
// disprove its predicate against the footer of an unread page and skip
// it entirely).
//
// Chunk wire format, all integers big-endian:
//
//	[2 rows][2 cols][4 footOff]            chunk header
//	[8 ref][1 width][rows×width]           id lane, frame-of-reference
//	per column: [1 enc][payload]           value lanes (see enc* consts)
//	at footOff, per column:
//	  [1 flags][min value][max value]      zone map (values only when
//	                                       flags&1; tuple value codec)
//
// The data page around the chunk — the header a B+-tree leaf and a hash
// chain page share, with the chunk or row-major tuples as its payload —
// is datapage.go. The value lanes double as the wire form of a query
// answer: rows.go strings them, without id lane or footer, into a row
// set that internal/proto ships and decodes straight to tuple.Values.
//
// Every decode path is bounds-checked: corrupt or truncated chunks
// return errors, never panic (see FuzzColPageCodec).
package colpage

import (
	"encoding/binary"
	"fmt"
	"math"

	"viewmat/internal/pred"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// chunkHeader is the fixed prefix: [2 rows][2 cols][4 footOff].
const chunkHeader = 8

// Column lane encodings.
const (
	// encMixed stores each cell with the tagged tuple value codec —
	// the fallback for columns whose cells disagree on type.
	encMixed = 0
	// encIntFOR is frame-of-reference: [8 ref][1 width][rows×width]
	// unsigned deltas from the signed minimum (two's-complement
	// wraparound, so MinInt64..MaxInt64 ranges stay exact).
	encIntFOR = 1
	// encIntRLE is run-length: [2 runs] then per run [8 val][2 len].
	encIntRLE = 2
	// encFloatRaw is rows×8 IEEE-754 bit patterns (NaN-bit exact).
	encFloatRaw = 3
	// encBytesRaw is per-row [4 len][bytes].
	encBytesRaw = 4
	// encBytesDict is [2 dictN][dict: per entry [4 len][bytes]] then
	// rows×1 dictionary indexes — chosen for low-cardinality columns.
	encBytesDict = 5
)

// maxZoneValue caps the encoded size of a stored zone bound. Long
// strings are not worth carrying twice per column per page; the zone is
// simply marked absent and the column never prunes.
const maxZoneValue = 40

// maxDict is the largest distinct-value count a dictionary lane can
// index with one byte.
const maxDict = 256

// ColZone is one column's zone map: the tuple.Compare-ordered min and
// max over the page's rows, when small enough to store.
type ColZone struct {
	Present  bool
	Min, Max tuple.Value
}

// Zones is a chunk's footer: row count plus per-column zone maps,
// decodable without touching the value lanes.
type Zones struct {
	Rows int
	Cols []ColZone
}

// Atom is one conjunct of a prune predicate: column Col of the page's
// tuples compared against a constant. Semantics follow pred.Op.Holds
// (tuple.Compare order, type tag first), which is also the order the
// zone bounds are computed in — so pruning is sound for mixed-type
// columns.
type Atom struct {
	Col int
	Op  pred.Op
	Val tuple.Value
}

// Prunable reports whether the zones disprove the conjunction for every
// row of the page — i.e. the page can be skipped without reading it. A
// column without a stored zone never prunes.
func (z *Zones) Prunable(atoms []Atom) bool {
	if z.Rows == 0 {
		return false // empty pages carry chain links; let the scan read them
	}
	for _, a := range atoms {
		if a.Col < 0 || a.Col >= len(z.Cols) {
			continue
		}
		cz := z.Cols[a.Col]
		if !cz.Present {
			continue
		}
		cmin := tuple.Compare(cz.Min, a.Val)
		cmax := tuple.Compare(cz.Max, a.Val)
		switch a.Op {
		case pred.Eq:
			if cmin > 0 || cmax < 0 {
				return true
			}
		case pred.Ne:
			if cmin == 0 && cmax == 0 {
				return true
			}
		case pred.Lt:
			if cmin >= 0 {
				return true
			}
		case pred.Le:
			if cmin > 0 {
				return true
			}
		case pred.Gt:
			if cmax <= 0 {
				return true
			}
		case pred.Ge:
			if cmax < 0 {
				return true
			}
		}
	}
	return false
}

// --- encode --------------------------------------------------------------

// Encode lays tuples out as a column chunk in dst (a page region),
// returning the number of bytes used. It errors — without corrupting
// dst's logical content, the caller overwrites on fallback — when the
// chunk cannot be represented (mixed arity, too many rows) or does not
// fit in len(dst); the caller then writes the row encoding instead.
func Encode(dst []byte, tuples []tuple.Tuple) (int, error) {
	rows := len(tuples)
	if rows > math.MaxUint16 {
		return 0, fmt.Errorf("colpage: %d rows exceed chunk capacity", rows)
	}
	cols := 0
	if rows > 0 {
		cols = len(tuples[0].Vals)
		for _, tp := range tuples[1:] {
			if len(tp.Vals) != cols {
				return 0, fmt.Errorf("colpage: mixed arity (%d vs %d)", len(tp.Vals), cols)
			}
		}
	}
	if cols > math.MaxUint16 {
		return 0, fmt.Errorf("colpage: %d columns exceed chunk capacity", cols)
	}
	out := appendChunk(dst[:0:len(dst)], tuples, rows, cols)
	if len(out) > len(dst) || (len(out) > 0 && len(dst) > 0 && &out[0] != &dst[0]) {
		return 0, fmt.Errorf("colpage: chunk of %d bytes exceeds page region %d", len(out), len(dst))
	}
	return len(out), nil
}

// appendChunk builds the chunk by appending to dst (which must start
// empty at the chunk origin). The caller detects overflow by checking
// whether append reallocated past dst's capacity.
func appendChunk(dst []byte, tuples []tuple.Tuple, rows, cols int) []byte {
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint16(dst[0:], uint16(rows))
	binary.BigEndian.PutUint16(dst[2:], uint16(cols))

	ids := make([]uint64, rows)
	for i, tp := range tuples {
		ids[i] = tp.ID
	}
	dst = appendUintFOR(dst, ids)
	for c := 0; c < cols; c++ {
		dst = appendColumn(dst, tuples, c)
	}
	binary.BigEndian.PutUint32(dst[4:], uint32(len(dst)))
	for c := 0; c < cols; c++ {
		dst = appendZone(dst, tuples, c)
	}
	return dst
}

// appendUintFOR writes [8 ref][1 width][rows×width] with ref = min.
func appendUintFOR(dst []byte, vals []uint64) []byte {
	var ref uint64
	if len(vals) > 0 {
		ref = vals[0]
		for _, v := range vals {
			if v < ref {
				ref = v
			}
		}
	}
	var maxDelta uint64
	for _, v := range vals {
		if d := v - ref; d > maxDelta {
			maxDelta = d
		}
	}
	w := bytesFor(maxDelta)
	dst = binary.BigEndian.AppendUint64(dst, ref)
	dst = append(dst, byte(w))
	for _, v := range vals {
		dst = appendBE(dst, v-ref, w)
	}
	return dst
}

// appendColumn picks the smallest applicable encoding for column c and
// writes [1 enc][payload]. The choice is deterministic, so re-encoding
// a decoded chunk reproduces it byte for byte.
func appendColumn(dst []byte, tuples []tuple.Tuple, c int) []byte {
	rows := len(tuples)
	uniform := rows > 0
	var t tuple.Type
	if rows > 0 {
		t = tuples[0].Vals[c].Type()
		for _, tp := range tuples[1:] {
			if tp.Vals[c].Type() != t {
				uniform = false
				break
			}
		}
	}
	if !uniform {
		dst = append(dst, encMixed)
		for _, tp := range tuples {
			dst = tuple.AppendValue(dst, tp.Vals[c])
		}
		return dst
	}
	switch t {
	case tuple.Int:
		return appendIntLane(dst, tuples, c)
	case tuple.Float:
		dst = append(dst, encFloatRaw)
		for _, tp := range tuples {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(tp.Vals[c].Float()))
		}
		return dst
	default:
		return appendBytesLane(dst, tuples, c)
	}
}

// appendIntLane chooses run-length when it beats frame-of-reference
// (low-cardinality runs — clustering keys after bulk loads, enum-ish
// payload columns) and FOR otherwise.
func appendIntLane(dst []byte, tuples []tuple.Tuple, c int) []byte {
	rows := len(tuples)
	minV, maxV := tuples[0].Vals[c].Int(), tuples[0].Vals[c].Int()
	runs := 1
	for i := 1; i < rows; i++ {
		v := tuples[i].Vals[c].Int()
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
		if v != tuples[i-1].Vals[c].Int() {
			runs++
		}
	}
	w := bytesFor(uint64(maxV) - uint64(minV))
	forSize := 9 + rows*w
	rleSize := 2 + runs*10
	if rleSize < forSize {
		dst = append(dst, encIntRLE)
		dst = binary.BigEndian.AppendUint16(dst, uint16(runs))
		i := 0
		for i < rows {
			v := tuples[i].Vals[c].Int()
			j := i + 1
			for j < rows && tuples[j].Vals[c].Int() == v {
				j++
			}
			dst = binary.BigEndian.AppendUint64(dst, uint64(v))
			dst = binary.BigEndian.AppendUint16(dst, uint16(j-i))
			i = j
		}
		return dst
	}
	dst = append(dst, encIntFOR)
	dst = binary.BigEndian.AppendUint64(dst, uint64(minV))
	dst = append(dst, byte(w))
	for _, tp := range tuples {
		dst = appendBE(dst, uint64(tp.Vals[c].Int())-uint64(minV), w)
	}
	return dst
}

// appendBytesLane chooses a one-byte-index dictionary when the column
// has few distinct values and the dictionary is smaller than raw.
func appendBytesLane(dst []byte, tuples []tuple.Tuple, c int) []byte {
	rows := len(tuples)
	dict := make(map[string]int, 8)
	var order []string
	rawSize := 0
	for _, tp := range tuples {
		s := tp.Vals[c].Str()
		rawSize += 4 + len(s)
		if _, ok := dict[s]; !ok && len(dict) < maxDict {
			dict[s] = len(order)
			order = append(order, s)
		}
	}
	if len(dict) <= maxDict && len(order) > 0 {
		dictSize := 2 + rows
		for _, s := range order {
			dictSize += 4 + len(s)
		}
		allCovered := len(dict) < maxDict || func() bool {
			for _, tp := range tuples {
				if _, ok := dict[tp.Vals[c].Str()]; !ok {
					return false
				}
			}
			return true
		}()
		if allCovered && dictSize < rawSize {
			dst = append(dst, encBytesDict)
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(order)))
			for _, s := range order {
				dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
				dst = append(dst, s...)
			}
			for _, tp := range tuples {
				dst = append(dst, byte(dict[tp.Vals[c].Str()]))
			}
			return dst
		}
	}
	dst = append(dst, encBytesRaw)
	for _, tp := range tuples {
		s := tp.Vals[c].Str()
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// appendZone writes column c's footer entry: [1 flags][min][max], the
// bounds present only when both fit the zone budget.
func appendZone(dst []byte, tuples []tuple.Tuple, c int) []byte {
	if len(tuples) == 0 {
		return append(dst, 0)
	}
	minV, maxV := tuples[0].Vals[c], tuples[0].Vals[c]
	for _, tp := range tuples[1:] {
		v := tp.Vals[c]
		if tuple.Compare(v, minV) < 0 {
			minV = v
		}
		if tuple.Compare(v, maxV) > 0 {
			maxV = v
		}
	}
	if tuple.ValueSize(minV) > maxZoneValue || tuple.ValueSize(maxV) > maxZoneValue {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = tuple.AppendValue(dst, minV)
	return tuple.AppendValue(dst, maxV)
}

// --- decode --------------------------------------------------------------

// header parses and validates the chunk prefix.
func header(chunk []byte) (rows, cols, footOff int, err error) {
	if len(chunk) < chunkHeader {
		return 0, 0, 0, fmt.Errorf("colpage: short chunk (%d bytes)", len(chunk))
	}
	rows = int(binary.BigEndian.Uint16(chunk[0:]))
	cols = int(binary.BigEndian.Uint16(chunk[2:]))
	footOff = int(binary.BigEndian.Uint32(chunk[4:]))
	if footOff < chunkHeader || footOff > len(chunk) {
		return 0, 0, 0, fmt.Errorf("colpage: footer offset %d out of range", footOff)
	}
	return rows, cols, footOff, nil
}

// DecodeInto appends a chunk's rows onto ids and cols — one grow and
// one width-specialised loop per lane, whatever the lanes already hold
// — and returns both extended. Lanes holding no rows yet take the
// chunk's column count; otherwise the counts must agree, except that an
// empty chunk adds nothing whatever its arity. String cells reference
// arenas allocated here and never touched again. After an error the
// lanes hold a partial append and must be dropped.
func DecodeInto(chunk []byte, ids []uint64, cols []vec.Col) ([]uint64, []vec.Col, error) {
	rows, ncols, footOff, err := header(chunk)
	if err != nil {
		return nil, nil, err
	}
	if len(cols) != ncols {
		switch {
		case len(ids) == 0:
			cols = make([]vec.Col, ncols)
		case rows == 0:
			_, _, err := DecodeInto(chunk, nil, nil) // validate only
			return ids, cols, err
		default:
			return nil, nil, fmt.Errorf("colpage: chunk of %d columns appended to rows of %d", ncols, len(cols))
		}
	}
	body := chunk[:footOff]
	ids, off, err := appendIDs(body, chunkHeader, rows, ids)
	if err != nil {
		return nil, nil, err
	}
	for c := range cols {
		off, err = decodeLane(body, off, rows, &cols[c])
		if err != nil {
			return nil, nil, fmt.Errorf("colpage: column %d: %w", c, err)
		}
	}
	if off != footOff {
		return nil, nil, fmt.Errorf("colpage: %d lane bytes trail the columns", footOff-off)
	}
	return ids, cols, nil
}

// DecodeTuples is DecodeInto gathered back to row form — the path
// update operations (decode, modify, re-encode) use. The rows' values are
// carved out of one flat array.
func DecodeTuples(chunk []byte) ([]tuple.Tuple, error) {
	ids, cols, err := DecodeInto(chunk, nil, nil)
	if err != nil {
		return nil, err
	}
	w := len(cols)
	flat := make([]tuple.Value, len(ids)*w)
	for c := 0; c < w && len(ids) > 0; c++ {
		cols[c].GatherValues(flat[c:], w, nil)
	}
	out := make([]tuple.Tuple, len(ids))
	for i, id := range ids {
		out[i].ID = id
		if w > 0 {
			out[i].Vals = flat[i*w : (i+1)*w : (i+1)*w]
		}
	}
	return out, nil
}

// ReadZones decodes only the chunk header and footer into z, reusing
// the capacity of z.Cols — the page-prune fast path, which must stay
// cheap because it runs against unmetered views of pages the scan may
// never charge, page after page into one struct. Every zone of the
// chunk is overwritten, present or not, so nothing of the page z last
// held survives; after an error z is partial and must not be consulted.
// The bounds are copies: z aliases nothing of the chunk.
func ReadZones(chunk []byte, z *Zones) error {
	rows, cols, footOff, err := header(chunk)
	if err != nil {
		return err
	}
	if cols > len(chunk)-footOff { // a zone is at least its flags byte
		return fmt.Errorf("colpage: truncated zone %d", len(chunk)-footOff)
	}
	z.Rows = rows
	if cap(z.Cols) < cols {
		z.Cols = make([]ColZone, cols)
	} else {
		z.Cols = z.Cols[:cols]
		clear(z.Cols)
	}
	off := footOff
	for c := 0; c < cols; c++ {
		if off >= len(chunk) {
			return fmt.Errorf("colpage: truncated zone %d", c)
		}
		flags := chunk[off]
		off++
		if flags&1 == 0 {
			continue
		}
		minV, n, err := tuple.DecodeValue(chunk[off:])
		if err != nil {
			return fmt.Errorf("colpage: zone %d min: %w", c, err)
		}
		off += n
		maxV, n, err := tuple.DecodeValue(chunk[off:])
		if err != nil {
			return fmt.Errorf("colpage: zone %d max: %w", c, err)
		}
		off += n
		z.Cols[c] = ColZone{Present: true, Min: minV, Max: maxV}
	}
	return nil
}

// decodeUintFOR decodes the id lane into a fresh slice.
func decodeUintFOR(body []byte, off, rows int) ([]uint64, int, error) {
	return appendIDs(body, off, rows, nil)
}

// appendIDs appends the id lane's rows onto ids.
func appendIDs(body []byte, off, rows int, ids []uint64) ([]uint64, int, error) {
	if off+9 > len(body) {
		return nil, 0, fmt.Errorf("colpage: truncated id lane")
	}
	ref := binary.BigEndian.Uint64(body[off:])
	w := int(body[off+8])
	off += 9
	if w > 8 {
		return nil, 0, fmt.Errorf("colpage: id width %d", w)
	}
	if off+rows*w > len(body) {
		return nil, 0, fmt.Errorf("colpage: truncated id deltas")
	}
	ids = append(ids, make([]uint64, rows)...)
	readFOR(ids[len(ids)-rows:], body[off:], ref, w)
	return ids, off + rows*w, nil
}

// readFOR fills dst with ref plus each w-byte big-endian delta of src,
// the common widths as fixed-size loads.
func readFOR[T int64 | uint64](dst []T, src []byte, ref uint64, w int) {
	switch w {
	case 0:
		for i := range dst {
			dst[i] = T(ref)
		}
	case 1:
		for i := range dst {
			dst[i] = T(ref + uint64(src[i]))
		}
	case 2:
		for i := range dst {
			dst[i] = T(ref + uint64(binary.BigEndian.Uint16(src[2*i:])))
		}
	case 4:
		for i := range dst {
			dst[i] = T(ref + uint64(binary.BigEndian.Uint32(src[4*i:])))
		}
	case 8:
		for i := range dst {
			dst[i] = T(ref + binary.BigEndian.Uint64(src[8*i:]))
		}
	default:
		for i := range dst {
			dst[i] = T(ref + readBE(src[i*w:], w))
		}
	}
}

// decodeLane appends one column's rows cells onto col.
func decodeLane(body []byte, off, rows int, col *vec.Col) (int, error) {
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
			col.Append(v)
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
		readFOR(col.GrowInts(rows), body[off:], ref, w)
		return off + rows*w, nil
	case encIntRLE:
		if off+2 > len(body) {
			return 0, fmt.Errorf("truncated RLE header")
		}
		runs := int(binary.BigEndian.Uint16(body[off:]))
		off += 2
		// Validate the runs before growing the lane by what they claim.
		if off+10*runs > len(body) {
			return 0, fmt.Errorf("truncated run %d", (len(body)-off)/10)
		}
		total := 0
		for r := 0; r < runs; r++ {
			total += int(binary.BigEndian.Uint16(body[off+10*r+8:]))
			if total > rows {
				return 0, fmt.Errorf("runs exceed %d rows", rows)
			}
		}
		if total != rows {
			return 0, fmt.Errorf("runs cover %d of %d rows", total, rows)
		}
		dst := col.GrowInts(rows)
		for r := 0; r < runs; r++ {
			v := int64(binary.BigEndian.Uint64(body[off:]))
			n := int(binary.BigEndian.Uint16(body[off+8:]))
			off += 10
			for k := range dst[:n] {
				dst[k] = v
			}
			dst = dst[n:]
		}
		return off, nil
	case encFloatRaw:
		if off+rows*8 > len(body) {
			return 0, fmt.Errorf("truncated float lane")
		}
		for i, dst := 0, col.GrowFloats(rows); i < rows; i++ {
			dst[i] = math.Float64frombits(binary.BigEndian.Uint64(body[off+8*i:]))
		}
		return off + rows*8, nil
	case encBytesRaw:
		end, _, err := scanStrings(body, off, rows)
		if err != nil {
			return 0, err
		}
		// One copy of the lane, length prefixes included, backs every
		// cell, so cell slices never move.
		arena := append([]byte(nil), body[off:end]...)
		dst := col.GrowBytes(rows)
		for i, p := 0, 0; i < rows; i++ {
			l := int(binary.BigEndian.Uint32(arena[p:]))
			p += 4
			dst[i] = arena[p : p+l : p+l]
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
		if end+rows > len(body) {
			return 0, fmt.Errorf("truncated dict indexes")
		}
		arena := append([]byte(nil), body[off:end]...)
		var entries [maxDict][]byte
		for d, p := 0, 0; d < dictN; d++ {
			l := int(binary.BigEndian.Uint32(arena[p:]))
			p += 4
			entries[d] = arena[p : p+l : p+l]
			p += l
		}
		for _, idx := range body[end : end+rows] {
			if int(idx) >= dictN {
				return 0, fmt.Errorf("dict index %d of %d", idx, dictN)
			}
		}
		dst := col.GrowBytes(rows)
		for i, idx := range body[end : end+rows] {
			dst[i] = entries[idx]
		}
		return end + rows, nil
	default:
		return 0, fmt.Errorf("unknown lane encoding %d", enc)
	}
}

// --- little helpers ------------------------------------------------------

// bytesFor returns the minimal byte width representing v (0 for 0).
func bytesFor(v uint64) int {
	w := 0
	for v != 0 {
		w++
		v >>= 8
	}
	return w
}

// appendBE appends v's low w bytes big-endian.
func appendBE(dst []byte, v uint64, w int) []byte {
	for i := w - 1; i >= 0; i-- {
		dst = append(dst, byte(v>>(8*uint(i))))
	}
	return dst
}

// readBE reads a w-byte big-endian unsigned integer.
func readBE(src []byte, w int) uint64 {
	var v uint64
	for i := 0; i < w; i++ {
		v = v<<8 | uint64(src[i])
	}
	return v
}
