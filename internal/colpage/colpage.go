// Package colpage is the columnar page encoding: within one data page,
// tuples are laid out as typed column chunks (one int, float or bytes
// lane per column, as in vec.Col) with lightweight per-column encodings
// — frame-of-reference or run-length for ints, raw IEEE bits for
// floats, dictionary or raw for byte strings, and a per-cell tagged
// fallback for mixed-type columns — plus a footer holding the row count
// and per-column min/max zone maps.
//
// The chunk is deliberately capacity-neutral: access methods size and
// split pages by the row-major encoded size plus the most a chunk can
// spend beyond it (DataPage.Size), which is nothing on a full page of
// short rows, so page counts and metered I/O are those of the paper's
// tuples per page. The chunk's wins are decode speed (lanes deserialize
// straight onto vec.Col lanes, one grow and one loop each, with no
// intermediate tuples) and zone-map pruning (a scan can disprove its
// predicate against the footer of an unread page and skip it entirely).
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
// chain page share, with the chunk as its payload — is datapage.go. The
// value lanes double as the wire form of a query answer: rows.go strings
// them, without id lane or footer, into a row set that internal/proto
// ships and decodes back onto lanes with the same lane decoder.
//
// Every decode path is bounds-checked: corrupt or truncated chunks
// return errors, never panic (see FuzzColPageCodec).
package colpage

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

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

// Zones is a chunk's footer: row count N plus per-column zone maps,
// decodable without touching the value lanes.
type Zones struct {
	N    int
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
// column without a stored zone never prunes. Each zone is read in place.
func (z *Zones) Prunable(atoms []Atom) bool {
	if z.N == 0 {
		return false // no row to disprove; a directory walk skips it (DirEntry.Empty)
	}
	for i := range atoms {
		a := &atoms[i]
		if a.Col < 0 || a.Col >= len(z.Cols) {
			continue
		}
		cz := &z.Cols[a.Col]
		if !cz.Present {
			continue
		}
		cmin, cmax := cz.bounds(a.Val)
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

// bounds compares the zone's min and max with v under tuple.Compare:
// Int bounds against an Int constant directly.
func (cz *ColZone) bounds(v tuple.Value) (cmin, cmax int) {
	if v.Type() == tuple.Int && cz.Min.Type() == tuple.Int && cz.Max.Type() == tuple.Int {
		x := v.Int()
		return cmp.Compare(cz.Min.Int(), x), cmp.Compare(cz.Max.Int(), x)
	}
	return tuple.Compare(cz.Min, v), tuple.Compare(cz.Max, v)
}

// --- encode --------------------------------------------------------------

// encode lays rows out as a column chunk in dst (a page region),
// returning the number of bytes used and handing z, when non-nil, the
// zone maps it writes to the footer: what ReadZones would read back, with
// string bounds that alias nothing of the lanes (ColZone.keep). Without
// zones every footer entry is absent (flags 0), which no column's bounds
// can outgrow. It errors — leaving dst's bytes partly written and z
// partial — when the chunk cannot be represented (too many rows or
// columns, lanes that disagree on the row count) or does not fit in
// len(dst).
func encode(dst []byte, l *Lanes, z *Zones, zones bool) (int, error) {
	rows, cols := len(l.IDs), len(l.Cols)
	if rows == 0 {
		cols = 0 // a chunk of no rows has no columns
	}
	if rows > math.MaxUint16 || cols > math.MaxUint16 {
		return 0, fmt.Errorf("colpage: %d rows of %d columns exceed chunk capacity", rows, cols)
	}
	for c := range cols {
		if l.Cols[c].Len() != rows {
			return 0, fmt.Errorf("colpage: column %d holds %d cells for %d rows", c, l.Cols[c].Len(), rows)
		}
	}
	out := appendChunk(dst[:0:len(dst)], l, rows, cols, z, zones)
	if len(out) > len(dst) || (len(out) > 0 && len(dst) > 0 && &out[0] != &dst[0]) {
		return 0, fmt.Errorf("colpage: chunk of %d bytes exceeds page region %d", len(out), len(dst))
	}
	return len(out), nil
}

// appendChunk builds the chunk by appending to dst (which must start
// empty at the chunk origin), handing z (when non-nil) the footer's zone
// maps, every one absent without zones. The caller detects overflow by
// checking whether append reallocated past dst's capacity.
func appendChunk(dst []byte, l *Lanes, rows, cols int, z *Zones, zones bool) []byte {
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint16(dst[0:], uint16(rows))
	binary.BigEndian.PutUint16(dst[2:], uint16(cols))
	dst = appendUintFOR(dst, l.IDs)
	for c := range cols {
		dst = appendColumn(dst, &l.Cols[c], 0, rows)
	}
	binary.BigEndian.PutUint32(dst[4:], uint32(len(dst)))
	if z != nil {
		// Growing keeps the zones already held, whose string bounds keep
		// may reuse.
		z.N, z.Cols = rows, slices.Grow(z.Cols[:0], cols)[:cols]
	}
	for c := range cols {
		lo, hi := -1, -1 // absent
		if zones {
			lo, hi = zoneOf(&l.Cols[c])
		}
		dst = appendZone(dst, &l.Cols[c], lo, hi)
		if z != nil {
			z.Cols[c].keep(&l.Cols[c], lo, hi)
		}
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

// appendColumn writes cells [lo, lo+n) of a dense lane — all of a page's
// column, or one run of an answer's (a row set) — as [1 enc][payload],
// picking the smallest applicable encoding. It is the one lane encoder of
// both, so a row set's lanes are byte for byte a chunk's for the same
// rows. The choice is deterministic, so re-encoding a decoded chunk
// reproduces it byte for byte.
func appendColumn(dst []byte, col *vec.Col, lo, n int) []byte {
	t, uniform := col.Uniform()
	if !uniform {
		// A widened lane's cells in the range may still share a type.
		t, uniform = col.Tag(lo), true
		for i := lo + 1; uniform && i < lo+n; i++ {
			uniform = col.Tag(i) == t
		}
	}
	if !uniform {
		dst = append(dst, encMixed)
		for i := lo; i < lo+n; i++ {
			dst = appendCell(dst, col, i)
		}
		return dst
	}
	switch t {
	case tuple.Int:
		return appendIntLane(dst, col.Ints[lo:lo+n])
	case tuple.Float:
		dst = append(dst, encFloatRaw)
		for _, f := range col.Floats[lo : lo+n] {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
		}
		return dst
	default:
		return appendBytesLane(dst, col.Bytes[lo:lo+n])
	}
}

// appendIntLane chooses run-length when it beats frame-of-reference
// (low-cardinality runs — clustering keys after bulk loads, enum-ish
// payload columns) and FOR otherwise.
func appendIntLane(dst []byte, vals []int64) []byte {
	rows := len(vals)
	minV, maxV := vals[0], vals[0]
	runs := 1
	for i, prev := 1, minV; i < rows; i++ {
		v := vals[i]
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
		if v != prev {
			runs++
		}
		prev = v
	}
	w := bytesFor(uint64(maxV) - uint64(minV))
	forSize := 9 + rows*w
	rleSize := 2 + runs*10
	if rleSize < forSize {
		dst = append(dst, encIntRLE)
		dst = binary.BigEndian.AppendUint16(dst, uint16(runs))
		i := 0
		for i < rows {
			v := vals[i]
			j := i + 1
			for j < rows && vals[j] == v {
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
	ref, off := uint64(minV), len(dst)
	if w&(w-1) != 0 { // 3, 5, 6 or 7 bytes: no fixed-size store
		for _, v := range vals {
			dst = appendBE(dst, uint64(v)-ref, w)
		}
		return dst
	}
	// One grow, then fixed-size stores.
	dst = slices.Grow(dst, rows*w)[:off+rows*w]
	out := dst[off:]
	switch w {
	case 1:
		for i, v := range vals {
			out[i] = byte(uint64(v) - ref)
		}
	case 2:
		for i, v := range vals {
			binary.BigEndian.PutUint16(out[2*i:], uint16(uint64(v)-ref))
		}
	case 4:
		for i, v := range vals {
			binary.BigEndian.PutUint32(out[4*i:], uint32(uint64(v)-ref))
		}
	case 8:
		for i, v := range vals {
			binary.BigEndian.PutUint64(out[8*i:], uint64(v)-ref)
		}
	}
	return dst
}

// appendBytesLane chooses a one-byte-index dictionary when the column
// has few distinct values and the dictionary is smaller than raw.
func appendBytesLane(dst []byte, vals [][]byte) []byte {
	dict := make(map[string]int, 8)
	var order []int // the row each entry first appears in
	rawSize, dictSize, covered := 0, 2+len(vals), true
	for i, v := range vals {
		rawSize += 4 + len(v)
		if _, ok := dict[string(v)]; ok {
			continue
		}
		if covered = len(dict) < maxDict; covered {
			dict[string(v)] = len(order)
			order = append(order, i)
			dictSize += 4 + len(v)
		}
	}
	if covered && dictSize < rawSize {
		dst = append(dst, encBytesDict)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(order)))
		for _, i := range order {
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(vals[i])))
			dst = append(dst, vals[i]...)
		}
		for _, v := range vals {
			dst = append(dst, byte(dict[string(v)]))
		}
		return dst
	}
	dst = append(dst, encBytesRaw)
	for _, v := range vals {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// zoneOf finds the cells holding col's bounds under tuple.Compare, the
// first of each: -1, -1 (absent) unless both fit the zone budget. A
// uniform Int lane, whose cells always fit it, is compared in place.
func zoneOf(col *vec.Col) (lo, hi int) {
	if t, ok := col.Uniform(); ok && t == tuple.Int {
		return intZoneOf(col.Ints[:col.Len()])
	}
	return cellZoneOf(col)
}

// cellZoneOf is zoneOf over any lane, cell compared against cell.
func cellZoneOf(col *vec.Col) (lo, hi int) {
	for i := 1; i < col.Len(); i++ {
		if col.CompareCells(i, lo) < 0 {
			lo = i
		}
		if col.CompareCells(i, hi) > 0 {
			hi = i
		}
	}
	if cellSize(col, lo) > maxZoneValue || cellSize(col, hi) > maxZoneValue {
		return -1, -1
	}
	return lo, hi
}

// intZoneOf is zoneOf over an int lane of at least one cell.
func intZoneOf(vals []int64) (lo, hi int) {
	vlo, vhi := vals[0], vals[0]
	for i, v := range vals[1:] {
		if v < vlo {
			lo, vlo = i+1, v
		}
		if v > vhi {
			hi, vhi = i+1, v
		}
	}
	return lo, hi
}

// appendZone writes a column's footer entry: [1 flags][min][max], the
// bounds — cells lo and hi of col — only when present (lo ≥ 0).
func appendZone(dst []byte, col *vec.Col, lo, hi int) []byte {
	if lo < 0 {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = appendCell(dst, col, lo)
	return appendCell(dst, col, hi)
}

// appendCell appends cell i of col as tuple.AppendValue appends its
// value, without boxing it.
func appendCell(dst []byte, col *vec.Col, i int) []byte {
	t := col.Tag(i)
	dst = append(dst, byte(t))
	switch t {
	case tuple.Int:
		return binary.BigEndian.AppendUint64(dst, uint64(col.Ints[i]))
	case tuple.Float:
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(col.Floats[i]))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(col.Bytes[i])))
	return append(dst, col.Bytes[i]...)
}

// keep stores in *z the zone whose bounds are cells lo and hi of col
// (absent for lo < 0), aliasing nothing of the lanes: a string bound is
// copied out, unless *z already holds an equal one — so re-encoding a
// page whose bounds did not move allocates nothing.
func (z *ColZone) keep(col *vec.Col, lo, hi int) {
	if lo < 0 {
		*z = ColZone{}
		return
	}
	own := func(held tuple.Value, i int) tuple.Value {
		if col.Tag(i) == tuple.String && held.Type() == tuple.String && held.Str() == string(col.Bytes[i]) {
			return held
		}
		return col.Value(i)
	}
	*z = ColZone{Present: true, Min: own(z.Min, lo), Max: own(z.Max, hi)}
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

// DecodeInto appends a chunk's rows onto ids and cols and returns both
// extended: DecodeWhere with every row selected.
func DecodeInto(chunk []byte, ids []uint64, cols []vec.Col) ([]uint64, []vec.Col, error) {
	ids, cols, _, err := DecodeWhere(chunk, nil, ids, cols)
	return ids, cols, err
}

// DecodeWhere appends onto ids and cols the chunk's rows for which every
// atom holds, and returns both extended with the number of rows the
// atoms dropped — late materialization. It locates and validates every
// lane first (FOR widths, run coverage, dictionary indexes, string
// extents, trailing bytes), so a corrupt chunk is an error whether or not
// a row of it survives; then tests the atoms on their columns' encoded
// lanes (select.go); then decodes the ids and cells of the surviving rows
// alone, one grow and one width-specialised loop per lane. With no atoms
// every row survives: the full decode. An atom on a column the chunk
// does not have drops nothing.
//
// Lanes holding no rows yet take the chunk's column count; otherwise the
// counts must agree, except that an empty chunk adds nothing whatever its
// arity. String cells reference arenas allocated here and never touched
// again. After an error the lanes hold a partial append and must be
// dropped.
func DecodeWhere(chunk []byte, atoms []Atom, ids []uint64, cols []vec.Col) ([]uint64, []vec.Col, int, error) {
	rows, ncols, footOff, err := header(chunk)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(cols) != ncols {
		switch {
		case len(ids) == 0:
			cols = make([]vec.Col, ncols)
		case rows == 0:
			_, _, err := DecodeInto(chunk, nil, nil) // validate only
			return ids, cols, 0, err
		default:
			return nil, nil, 0, fmt.Errorf("colpage: chunk of %d columns appended to rows of %d", ncols, len(cols))
		}
	}
	body := chunk[:footOff]
	var idLane lane
	off, err := idLane.locateFOR(body, chunkHeader, rows)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("colpage: id lane: %w", err)
	}
	var laneBuf [8]lane
	lanes := laneBuf[:0]
	if ncols > len(laneBuf) {
		lanes = make([]lane, 0, ncols)
	}
	lanes = lanes[:ncols]
	for c := range lanes {
		if off, err = lanes[c].locate(body, off, rows); err != nil {
			return nil, nil, 0, fmt.Errorf("colpage: column %d: %w", c, err)
		}
	}
	if off != footOff {
		return nil, nil, 0, fmt.Errorf("colpage: %d lane bytes trail the columns", footOff-off)
	}
	n := rows
	var sel []int // nil: every row
	if len(atoms) > 0 {
		var selBuf [256]int // cleared only for a scan that selects
		if sel = selectRows(body, lanes, rows, atoms, selBuf[:0]); sel != nil {
			n = len(sel)
		}
	}
	if n > 0 {
		ids = slices.Grow(ids, n)[:len(ids)+n] // gatherFOR writes every new cell
		gatherFOR(ids[len(ids)-n:], body[idLane.off:], idLane.ref, idLane.w, sel)
		for c := range cols {
			lanes[c].gather(body, rows, sel, &cols[c])
		}
	}
	return ids, cols, rows - n, nil
}

// ReadZones decodes only the chunk header and footer into z, reusing
// the capacity of z.Cols — what the leaf directory is rebuilt from and
// checked against, page after page into one struct. Every zone of the
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
	z.N, z.Cols = rows, slices.Grow(z.Cols[:0], cols)[:cols]
	off := footOff
	for c := range z.Cols {
		if off >= len(chunk) {
			return fmt.Errorf("colpage: truncated zone %d", c)
		}
		flags := chunk[off]
		off++
		cz := &z.Cols[c]
		if flags&1 == 0 {
			*cz = ColZone{}
			continue
		}
		n, err := readBound(chunk[off:], &cz.Min)
		if err != nil {
			return fmt.Errorf("colpage: zone %d min: %w", c, err)
		}
		off += n
		if n, err = readBound(chunk[off:], &cz.Max); err != nil {
			return fmt.Errorf("colpage: zone %d max: %w", c, err)
		}
		off += n
		cz.Present = true
	}
	return nil
}

// readBound decodes the zone bound at the front of src into *v. A string
// bound *v already holds is kept, so reading a footer into zones that
// hold its bounds — a check of the leaf directory — allocates nothing.
func readBound(src []byte, v *tuple.Value) (int, error) {
	if v.Type() == tuple.String {
		if c, n, err := tuple.CompareEncoded(src, *v); err == nil && c == 0 {
			return n, nil
		}
	}
	dec, n, err := tuple.DecodeValue(src)
	if err != nil {
		return 0, err
	}
	*v = dec
	return n, nil
}

// lane is one value lane located in a chunk body and validated: every
// byte a decode of it reads lies inside the body, RLE runs cover the
// rows exactly, dictionary indexes name entries. enc says which of the
// other fields hold.
type lane struct {
	enc byte
	// off and end bound the payload: FOR deltas, RLE runs, floats,
	// strings — for a dictionary, its entries, with the row indexes
	// following at end.
	off, end int
	ref      uint64   // FOR frame of reference
	w        int      // FOR delta width
	n        int      // RLE runs; dictionary entries
	mixed    *vec.Col // encMixed: the cells, decoded to validate them
}

// locateFOR locates a frame-of-reference lane at off,
// [8 ref][1 width][rows×width], into l and returns the offset past it.
func (l *lane) locateFOR(body []byte, off, rows int) (int, error) {
	if off+9 > len(body) {
		return 0, fmt.Errorf("truncated FOR header")
	}
	l.enc, l.off, l.ref, l.w = encIntFOR, off+9, binary.BigEndian.Uint64(body[off:]), int(body[off+8])
	if l.w > 8 {
		return 0, fmt.Errorf("FOR width %d", l.w)
	}
	if l.end = l.off + rows*l.w; l.end > len(body) {
		return 0, fmt.Errorf("truncated FOR deltas")
	}
	return l.end, nil
}

// locate locates one column's [1 enc][payload] at off into l, checking
// everything a decode of its rows cells would read, and returns the
// offset past it.
func (l *lane) locate(body []byte, off, rows int) (int, error) {
	if off >= len(body) {
		return 0, fmt.Errorf("truncated lane header")
	}
	l.enc, l.off = body[off], off+1
	off++
	switch l.enc {
	case encMixed:
		l.mixed = &vec.Col{}
		for i := 0; i < rows; i++ {
			v, n, err := tuple.DecodeValue(body[off:])
			if err != nil {
				return 0, fmt.Errorf("cell %d: %w", i, err)
			}
			off += n
			l.mixed.Append(v)
		}
	case encIntFOR:
		return l.locateFOR(body, off, rows)
	case encIntRLE:
		if off+2 > len(body) {
			return 0, fmt.Errorf("truncated RLE header")
		}
		l.n = int(binary.BigEndian.Uint16(body[off:]))
		l.off = off + 2
		if off = l.off + 10*l.n; off > len(body) {
			return 0, fmt.Errorf("truncated run %d", (len(body)-l.off)/10)
		}
		total := 0
		for r := 0; r < l.n; r++ {
			total += int(binary.BigEndian.Uint16(body[l.off+10*r+8:]))
			if total > rows {
				return 0, fmt.Errorf("runs exceed %d rows", rows)
			}
		}
		if total != rows {
			return 0, fmt.Errorf("runs cover %d of %d rows", total, rows)
		}
	case encFloatRaw:
		if off += rows * 8; off > len(body) {
			return 0, fmt.Errorf("truncated float lane")
		}
	case encBytesRaw:
		var err error
		if off, err = scanStrings(body, off, rows); err != nil {
			return 0, err
		}
	case encBytesDict:
		if off+2 > len(body) {
			return 0, fmt.Errorf("truncated dict header")
		}
		l.n = int(binary.BigEndian.Uint16(body[off:]))
		l.off = off + 2
		if l.n > maxDict {
			return 0, fmt.Errorf("dict of %d entries", l.n)
		}
		end, err := scanStrings(body, l.off, l.n)
		if err != nil {
			return 0, err
		}
		if end+rows > len(body) {
			return 0, fmt.Errorf("truncated dict indexes")
		}
		for _, idx := range body[end : end+rows] {
			if int(idx) >= l.n {
				return 0, fmt.Errorf("dict index %d of %d", idx, l.n)
			}
		}
		l.end = end
		return end + rows, nil
	default:
		return 0, fmt.Errorf("unknown lane encoding %d", l.enc)
	}
	l.end = off
	return off, nil
}

// rowAt is the row the k-th selected cell comes from; a nil selection
// selects every row.
func rowAt(sel []int, k int) int {
	if sel == nil {
		return k
	}
	return sel[k]
}

// gather appends the lane's cells of the selected rows (ascending; nil
// selects all rows) onto col, one grow per lane.
func (l *lane) gather(body []byte, rows int, sel []int, col *vec.Col) {
	n := rows
	if sel != nil {
		n = len(sel)
	}
	switch l.enc {
	case encMixed:
		if sel == nil {
			col.AppendRange(l.mixed, 0, rows)
		} else {
			col.AppendRows(l.mixed, sel)
		}
	case encIntFOR:
		gatherFOR(col.GrowInts(n), body[l.off:], l.ref, l.w, sel)
	case encIntRLE:
		dst := col.GrowInts(n)
		for r, k, end := 0, 0, 0; k < n; r++ {
			p := l.off + 10*r
			v := int64(binary.BigEndian.Uint64(body[p:]))
			end += int(binary.BigEndian.Uint16(body[p+8:]))
			if sel == nil {
				for ; k < end; k++ {
					dst[k] = v
				}
				continue
			}
			for ; k < n && sel[k] < end; k++ {
				dst[k] = v
			}
		}
	case encFloatRaw:
		dst := col.GrowFloats(n)
		for k := range dst {
			dst[k] = math.Float64frombits(binary.BigEndian.Uint64(body[l.off+8*rowAt(sel, k):]))
		}
	case encBytesRaw:
		dst := col.GrowBytes(n)
		if sel == nil {
			// One copy of the lane, length prefixes included, backs every
			// cell, so cell slices never move.
			arena := append([]byte(nil), body[l.off:l.end]...)
			for i, p := 0, 0; i < rows; i++ {
				ln := int(binary.BigEndian.Uint32(arena[p:]))
				p += 4
				dst[i] = arena[p : p+ln : p+ln]
				p += ln
			}
			return
		}
		// The selected cells alone are copied, into one arena sized by a
		// first walk of the lane.
		total := 0
		for i, p, k := 0, l.off, 0; k < n; i++ {
			ln := int(binary.BigEndian.Uint32(body[p:]))
			if i == sel[k] {
				total += ln
				k++
			}
			p += 4 + ln
		}
		arena := make([]byte, 0, total)
		for i, p, k := 0, l.off, 0; k < n; i++ {
			ln := int(binary.BigEndian.Uint32(body[p:]))
			p += 4
			if i == sel[k] {
				start := len(arena)
				arena = append(arena, body[p:p+ln]...)
				dst[k] = arena[start:len(arena):len(arena)]
				k++
			}
			p += ln
		}
	case encBytesDict:
		arena := append([]byte(nil), body[l.off:l.end]...)
		var entries [maxDict][]byte
		for d, p := 0, 0; d < l.n; d++ {
			ln := int(binary.BigEndian.Uint32(arena[p:]))
			p += 4
			entries[d] = arena[p : p+ln : p+ln]
			p += ln
		}
		idx := body[l.end : l.end+rows]
		dst := col.GrowBytes(n)
		for k := range dst {
			dst[k] = entries[idx[rowAt(sel, k)]]
		}
	}
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
	case 3:
		for i := range dst {
			dst[i] = T(ref + be24(src[3*i:]))
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

// gatherFOR is readFOR for the selected rows of src: dst[k] is row
// sel[k]'s cell. A nil selection is readFOR itself.
func gatherFOR[T int64 | uint64](dst []T, src []byte, ref uint64, w int, sel []int) {
	if sel == nil {
		readFOR(dst, src, ref, w)
		return
	}
	switch w {
	case 0:
		for k := range dst {
			dst[k] = T(ref)
		}
	case 1:
		for k, i := range sel {
			dst[k] = T(ref + uint64(src[i]))
		}
	case 2:
		for k, i := range sel {
			dst[k] = T(ref + uint64(binary.BigEndian.Uint16(src[2*i:])))
		}
	case 3:
		for k, i := range sel {
			dst[k] = T(ref + be24(src[3*i:]))
		}
	case 4:
		for k, i := range sel {
			dst[k] = T(ref + uint64(binary.BigEndian.Uint32(src[4*i:])))
		}
	case 8:
		for k, i := range sel {
			dst[k] = T(ref + binary.BigEndian.Uint64(src[8*i:]))
		}
	default:
		for k, i := range sel {
			dst[k] = T(ref + readBE(src[i*w:], w))
		}
	}
}

// --- little helpers ------------------------------------------------------

// scanStrings walks n [4 len][bytes] strings starting at off, returning
// the offset just past the last.
func scanStrings(body []byte, off, n int) (int, error) {
	for i := 0; i < n; i++ {
		if off+4 > len(body) {
			return 0, fmt.Errorf("truncated string length %d", i)
		}
		l := int(binary.BigEndian.Uint32(body[off:]))
		off += 4
		if off+l > len(body) {
			return 0, fmt.Errorf("truncated string %d", i)
		}
		off += l
	}
	return off, nil
}

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

// be24 reads a 3-byte big-endian unsigned integer with one bounds check.
func be24(src []byte) uint64 {
	_ = src[2]
	return uint64(src[0])<<16 | uint64(src[1])<<8 | uint64(src[2])
}

// readBE reads a w-byte big-endian unsigned integer.
func readBE(src []byte, w int) uint64 {
	var v uint64
	for i := 0; i < w; i++ {
		v = v<<8 | uint64(src[i])
	}
	return v
}
