package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// row evaluates the predicate against one gathered row, by pred.P's
// per-tuple evaluation: the reference semantics Filter's vectorized
// kernels must match.
func (p Pred) row(r Row) bool {
	if p.SkipIDs != nil && p.SkipIDs[r.T0.ID] {
		return false
	}
	if p.P != nil {
		if p.Full {
			if !p.P.EvalJoined(r.T0, r.T1) {
				return false
			}
		} else if !p.P.EvalSingle(0, r.T0) {
			return false
		}
	}
	return p.Range == nil || p.Range.Contains(r.T0.Vals[p.RangeCol])
}

// filterCells are the values a fuzzed filter's rows and constants draw
// from: Int, Float and String, with ±0, NaN of two payloads and ±Inf.
var filterCells = []tuple.Value{
	tuple.I(-3), tuple.I(0), tuple.I(5), tuple.I(10), tuple.I(40), tuple.I(math.MaxInt64),
	tuple.F(-1.5), tuple.F(math.Copysign(0, -1)), tuple.F(0), tuple.F(1.5), tuple.F(7),
	tuple.F(math.NaN()), tuple.F(math.Float64frombits(0x7ff8dead0000beef)),
	tuple.F(math.Inf(1)), tuple.F(math.Inf(-1)),
	tuple.S(""), tuple.S("a"), tuple.S("x"),
}

// filterCase is one fuzzed filter: its input rows (two slots of two
// columns, slot-0 ids 1..n), the predicate, whether it charges, and how
// many rows the source reports dropped on its first batch and on a
// trailing empty one.
type filterCase struct {
	rows    []Row
	p       Pred
	charge  bool
	dropped int
}

// decodeFilter reads a filterCase from fuzz bytes:
//
//	[flags: 1 Full, 2 charge, 4 SkipIDs, 8 Range, 16 RangeCol 1]
//	[dropped] [skip modulus] [range lo] [range hi] [range bounds: 1 lo, 2 hi, 4 LoInc, 8 HiInc]
//	[atoms: 0 = no P, k = k−1 atoms] then 4 bytes per atom [kind col op val]
//	then 4 cell bytes per row: T0 (c0 c1), T1 (c0 c1)
func decodeFilter(data []byte) filterCase {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	cell := func(b int) tuple.Value { return filterCells[b%len(filterCells)] }
	flags := at(0)
	c := filterCase{charge: flags&2 != 0, dropped: at(1) % 8}
	c.p.Full = flags&1 != 0
	if flags&4 != 0 {
		mod := uint64(at(2)%4 + 2)
		c.p.SkipIDs = map[uint64]bool{}
		for id := uint64(mod); id < 512; id += mod {
			c.p.SkipIDs[id] = true
		}
	}
	if flags&8 != 0 {
		bounds := at(5)
		c.p.Range = &pred.Range{LoInc: bounds&4 != 0, HiInc: bounds&8 != 0}
		if bounds&1 != 0 {
			lo := cell(at(3))
			c.p.Range.Lo = &lo
		}
		if bounds&2 != 0 {
			hi := cell(at(4))
			c.p.Range.Hi = &hi
		}
		if flags&16 != 0 {
			c.p.RangeCol = 1
		}
	}
	pos := 7
	if n := at(6) % 6; n > 0 {
		c.p.P = pred.New()
		for k := 0; k < n-1; k++ {
			kind, col, op, val := at(pos)%4, at(pos+1)%2, pred.Op(at(pos+2)%6), cell(at(pos+3))
			pos += 4
			switch kind {
			case 0, 1: // a comparison on slot 0 or slot 1
				c.p.P.Atoms = append(c.p.P.Atoms, pred.Cmp{Rel: kind, Col: col, Op: op, Val: val})
			case 2: // across the slots
				c.p.P.Atoms = append(c.p.P.Atoms, pred.JoinEq{LRel: 0, LCol: col, RRel: 1, RCol: int(op) % 2})
			default: // within slot 0
				c.p.P.Atoms = append(c.p.P.Atoms, pred.JoinEq{LRel: 0, LCol: col, RRel: 0, RCol: int(op) % 2})
			}
		}
	}
	for ; pos+4 <= len(data) && len(c.rows) < 300; pos += 4 {
		id := uint64(len(c.rows) + 1)
		c.rows = append(c.rows, Row{
			T0:     tuple.Tuple{ID: id, Vals: []tuple.Value{cell(at(pos)), cell(at(pos + 1))}},
			T1:     tuple.Tuple{ID: 1000 + id, Vals: []tuple.Value{cell(at(pos + 2)), cell(at(pos + 3))}},
			Insert: true,
		})
	}
	return c
}

// droppingSource reports dropped rows the way a selecting scan does:
// on its first batch, and on one trailing batch with no live rows.
type droppingSource struct {
	Operator
	dropped, total int
	first, trailed bool
}

func (s *droppingSource) NextBatch() (*vec.Batch, error) {
	b, err := s.Operator.NextBatch()
	if err != nil {
		return nil, err
	}
	if b == nil {
		if s.trailed {
			return nil, nil
		}
		s.trailed = true
		b = &vec.Batch{}
	} else if s.first {
		return b, nil
	}
	s.first = true
	b.Dropped = s.dropped
	s.total += s.dropped
	return b, nil
}

// filterCaps are the batch caps every case runs at: one row, a cap
// that splits batches mid-input, and the default.
var filterCaps = []int{1, 7, 1024}

// checkFilter runs the case through Filter at every cap and holds it to
// the row reference: the same surviving slot-0 ids in the same order,
// and one screen per input row, dropped ones included, when charged.
func checkFilter(t *testing.T, c filterCase) []uint64 {
	t.Helper()
	var want []uint64
	for _, r := range c.rows {
		if c.p.row(r) {
			want = append(want, r.T0.ID)
		}
	}
	for _, size := range filterCaps {
		m := storage.NewMeter()
		o := Options{Meter: m, BatchSize: size}
		src := &droppingSource{Operator: NewMemSource(o, Label{"rows"}, c.rows), dropped: c.dropped}
		f := NewFilter(o, Label{"p"}, src, c.p, c.charge)
		batches, err := Drain(f)
		if err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for _, r := range LiveRows(batches) {
			got = append(got, r.T0.ID)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cap %d, P %v Full %v, %d ids skipped, range %v on column %d, over %d rows: Filter kept %v, the row reference %v",
				size, c.p.P, c.p.Full, len(c.p.SkipIDs), c.p.Range, c.p.RangeCol, len(c.rows), got, want)
		}
		var screens int64
		if c.charge {
			screens = int64(len(c.rows) + src.total)
		}
		if s := m.Snapshot().Screens; s != screens || f.Stats().Cost.Screens != screens {
			t.Fatalf("cap %d: screens meter %d, operator %d, want %d", size, s, f.Stats().Cost.Screens, screens)
		}
		if n := f.Stats().RowsOut; n != int64(len(want)) {
			t.Fatalf("cap %d: RowsOut %d, want %d", size, n, len(want))
		}
	}
	return want
}

// filterSeeds are the fuzz corpus's seeds. The first is the mixed-type
// column of TestVectorizedFilterMatchesRowSemantics: I(5), F(1.5),
// S("x"), I(40) against "> I(10)".
func filterSeeds() [][]byte {
	return [][]byte{
		{0, 0, 0, 0, 0, 0, 2, 0, 0, 4, 3, 2, 0, 0, 0, 9, 0, 0, 0, 17, 0, 0, 0, 4, 0, 0, 0},
		// Full, charged, ids skipped, a range on column 1, a slot-1
		// comparison and a join atom, over ±0 and NaN cells.
		{1 | 2 | 4 | 8 | 16, 3, 1, 7, 11, 1 | 2 | 4, 3, 1, 0, 3, 8, 2, 1, 1, 0,
			7, 8, 8, 7, 11, 12, 12, 11, 8, 7, 1, 15, 17, 16, 9, 10, 13, 14, 14, 13},
		// No predicate at all: a pure screening charge.
		{2, 5, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8},
	}
}

func FuzzFilterMatchesRowReference(f *testing.F) {
	for _, seed := range filterSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFilter(t, decodeFilter(data))
	})
}

// TestFilterMatchesRowReference runs random inputs through the fuzz
// target's decoder, so every test run covers more than the seeds.
func TestFilterMatchesRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 3000; n++ {
		data := make([]byte, 7+4*rng.Intn(5)+4*rng.Intn(40))
		rng.Read(data)
		checkFilter(t, decodeFilter(data))
	}
}
