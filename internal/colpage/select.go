package colpage

import (
	"bytes"
	"encoding/binary"
	"math"

	"viewmat/internal/pred"
	"viewmat/internal/tuple"
)

// Late materialization. A scan that carries prune atoms hands them to
// DecodeWhere, which tests them on the atom columns' lanes as they lie in
// the page and decodes only the rows every atom holds for. Each kernel
// narrows an ascending selection of row positions, with pred.Op.Holds
// semantics (tuple.Compare order, type tag first), at the cost its
// encoding allows:
//
//   - frame of reference: the constant recast as a band of deltas, one
//     fixed-width load, one add and one compare per row;
//   - run-length: one verdict per run;
//   - dictionary: one verdict per entry, then one lookup per row;
//   - raw floats and strings: each selected cell compared in place;
//   - mixed: the cells the lane was decoded to when it was validated.
//
// A uniform lane whose type is not the constant's compares by type tag
// alone: the atom keeps every row of it or none.

// selectRows returns the ascending positions of the rows every atom holds
// for, built in sel's storage — or nil when that is every row. An atom on
// a column the chunk does not have drops nothing.
func selectRows(body []byte, lanes []lane, rows int, atoms []Atom, sel []int) []int {
	if cap(sel) < rows {
		sel = make([]int, rows)
	}
	sel = sel[:rows]
	for i := range sel {
		sel[i] = i
	}
	for _, a := range atoms {
		if len(sel) == 0 {
			break
		}
		if a.Col >= 0 && a.Col < len(lanes) {
			sel = lanes[a.Col].test(body, a, sel)
		}
	}
	if len(sel) == rows {
		return nil
	}
	return sel
}

// test narrows sel to the rows of the lane for which a holds.
func (l *lane) test(body []byte, a Atom, sel []int) []int {
	if l.enc == encMixed {
		k := 0
		for _, i := range sel {
			if a.Op.Holds(l.mixed.Value(i), a.Val) {
				sel[k] = i
				k++
			}
		}
		return sel[:k]
	}
	t := tuple.String
	switch l.enc {
	case encIntFOR, encIntRLE:
		t = tuple.Int
	case encFloatRaw:
		t = tuple.Float
	}
	if vt := a.Val.Type(); t != vt {
		c := 1
		if t < vt {
			c = -1
		}
		if a.Op.HoldsCmp(c) {
			return sel
		}
		return sel[:0]
	}
	switch l.enc {
	case encIntFOR:
		return l.testFOR(body, a, sel)
	case encIntRLE:
		band, ok := bandOf(a.Op, a.Val.Int())
		if !ok {
			return sel[:0]
		}
		k, r, end, keep := 0, 0, 0, false
		for _, i := range sel {
			for i >= end { // the run holding row i
				p := l.off + 10*r
				keep = band.holds(binary.BigEndian.Uint64(body[p:]))
				end += int(binary.BigEndian.Uint16(body[p+8:]))
				r++
			}
			if keep {
				sel[k] = i
				k++
			}
		}
		return sel[:k]
	case encFloatRaw:
		k := 0
		for _, i := range sel {
			x := math.Float64frombits(binary.BigEndian.Uint64(body[l.off+8*i:]))
			if a.Op.Holds(tuple.F(x), a.Val) {
				sel[k] = i
				k++
			}
		}
		return sel[:k]
	case encBytesRaw:
		v := []byte(a.Val.Str())
		k, p, row := 0, l.off, 0
		for _, i := range sel {
			for ; row < i; row++ {
				p += 4 + int(binary.BigEndian.Uint32(body[p:]))
			}
			ln := int(binary.BigEndian.Uint32(body[p:]))
			if a.Op.HoldsCmp(bytes.Compare(body[p+4:p+4+ln], v)) {
				sel[k] = i
				k++
			}
		}
		return sel[:k]
	default: // encBytesDict
		v := []byte(a.Val.Str())
		var keep [maxDict]bool
		for d, p := 0, l.off; d < l.n; d++ {
			ln := int(binary.BigEndian.Uint32(body[p:]))
			p += 4
			keep[d] = a.Op.HoldsCmp(bytes.Compare(body[p:p+ln], v))
			p += ln
		}
		idx := body[l.end:]
		k := 0
		for _, i := range sel {
			if keep[idx[i]] {
				sel[k] = i
				k++
			}
		}
		return sel[:k]
	}
}

// testFOR is the frame-of-reference kernel. A cell is ref+delta and the
// band holds x when x−lo ≤ span, all modulo 2⁶⁴; so with base = ref−lo a
// row is kept when base+delta ≤ span (outside the band for ≠) — exact
// for every ref and delta, wraparound included.
func (l *lane) testFOR(body []byte, a Atom, sel []int) []int {
	band, ok := bandOf(a.Op, a.Val.Int())
	if !ok {
		return sel[:0]
	}
	base, span, out := l.ref-band.lo, band.span, band.out
	src := body[l.off:l.end]
	k := 0
	switch l.w {
	case 0: // every cell is ref
		if (base <= span) == out {
			return sel[:0]
		}
		return sel
	case 1:
		for _, i := range sel {
			if (base+uint64(src[i]) <= span) != out {
				sel[k] = i
				k++
			}
		}
	case 2:
		for _, i := range sel {
			if (base+uint64(binary.BigEndian.Uint16(src[2*i:])) <= span) != out {
				sel[k] = i
				k++
			}
		}
	case 3:
		for _, i := range sel {
			if (base+be24(src[3*i:]) <= span) != out {
				sel[k] = i
				k++
			}
		}
	case 4:
		for _, i := range sel {
			if (base+uint64(binary.BigEndian.Uint32(src[4*i:])) <= span) != out {
				sel[k] = i
				k++
			}
		}
	case 8:
		for _, i := range sel {
			if (base+binary.BigEndian.Uint64(src[8*i:]) <= span) != out {
				sel[k] = i
				k++
			}
		}
	default:
		for _, i := range sel {
			if (base+readBE(src[i*l.w:], l.w) <= span) != out {
				sel[k] = i
				k++
			}
		}
	}
	return sel[:k]
}

// intBand is an Int comparison recast over two's-complement cells: it
// holds for x when uint64(x)−lo ≤ span (modulo 2⁶⁴), or — for ≠ — when
// that is false.
type intBand struct {
	lo, span uint64
	out      bool
}

// bandOf recasts "x op v" as a band; ok is false when it holds for no
// x at all (x < MinInt64, x > MaxInt64, an unknown op).
func bandOf(op pred.Op, v int64) (band intBand, ok bool) {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	switch op {
	case pred.Eq, pred.Ne:
		lo, hi = v, v
	case pred.Lt:
		if v == math.MinInt64 {
			return intBand{}, false
		}
		hi = v - 1
	case pred.Le:
		hi = v
	case pred.Gt:
		if v == math.MaxInt64 {
			return intBand{}, false
		}
		lo = v + 1
	case pred.Ge:
		lo = v
	default:
		return intBand{}, false
	}
	return intBand{lo: uint64(lo), span: uint64(hi) - uint64(lo), out: op == pred.Ne}, true
}

// holds reports whether the band holds for the cell whose bits are x.
func (b intBand) holds(x uint64) bool { return (x-b.lo <= b.span) != b.out }
