package btree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"viewmat/internal/pred"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// keptRunCase is one keptRun input decoded from bytes: a key lane, the
// cell window [from, to) and the range.
type keptRunCase struct {
	keys     vec.Col
	from, to int
	rg       *pred.Range
}

// Lane kinds a case's first byte picks.
const (
	laneInt       = iota // sorted Ints
	laneString           // sorted Strings
	laneIntString        // sorted Ints, then sorted Strings
	laneFloat            // sorted Floats: NaN of two payloads, ±Inf, ±0
	laneIntFloat         // sorted Ints, then sorted Floats
	laneKinds
)

// floatPalette is what a Float cell or bound is drawn from.
var floatPalette = []float64{math.NaN(), math.Float64frombits(0x7ff8dead0000beef), math.Inf(-1), math.Inf(1),
	math.Copysign(0, -1), 0, -1.5, 1, 2.5, 2.5, 7}

// decodeKeptRunCase reads data as: lane kind; range flags (bit 0 Lo,
// bit 1 Hi, bit 2 LoInc, bit 3 HiInc, bit 4 a ≠ constant, bit 5 a
// second one); the Lo, Hi and ≠ arguments; from and to; then one byte
// per run of cells: 1 + b>>4 cells, each b&3 above the last (so runs of
// equal keys are long and common). An ordinal v is Int v, or "k%04d" on
// a String lane; on the two-type lanes ordinals below 32 are Ints and
// the rest the lane's second type. A Float cell is palette entry b, and
// the lane is then sorted under tuple.Compare. Bounds take the lane's
// mapping of their argument, so they fall between, on and beyond its
// keys, and may be of either type.
func decodeKeptRunCase(data []byte) keptRunCase {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	kind := int(at(0)) % laneKinds
	value := func(b byte, ord int) tuple.Value {
		switch {
		case kind == laneInt, kind == laneIntString && ord < 32, kind == laneIntFloat && ord < 32:
			return tuple.I(int64(ord))
		case kind == laneString, kind == laneIntString:
			return tuple.S(fmt.Sprintf("k%04d", ord))
		}
		return tuple.F(floatPalette[int(b)%len(floatPalette)])
	}
	var c keptRunCase
	var cells []tuple.Value
	ord := 0
	for _, b := range data[min(len(data), 7):] {
		for range 1 + int(b>>4) {
			ord += int(b & 3)
			cells = append(cells, value(b, ord))
		}
		if len(cells) >= 600 {
			break
		}
	}
	sort.SliceStable(cells, func(i, j int) bool { return tuple.Compare(cells[i], cells[j]) < 0 })
	for _, v := range cells {
		c.keys.Append(v)
	}
	flags := at(1)
	c.rg = &pred.Range{LoInc: flags&4 != 0, HiInc: flags&8 != 0}
	if flags&1 != 0 {
		v := value(at(2), int(at(2)))
		c.rg.Lo = &v
	}
	if flags&2 != 0 {
		v := value(at(3), int(at(3)))
		c.rg.Hi = &v
	}
	if flags&16 != 0 {
		c.rg.Restrict(pred.Ne, value(at(4), int(at(4))))
	}
	if flags&32 != 0 {
		c.rg.Restrict(pred.Ne, value(at(4)+1, int(at(4))+1))
	}
	n := c.keys.Len()
	c.from = int(at(5)) % (n + 1)
	c.to = c.from + int(at(6))%(n+1-c.from)
	return c
}

// checkKeptRun holds keptRun to the per-row loop it replaced.
func checkKeptRun(t *testing.T, c keptRunCase) {
	t.Helper()
	lo, hi, past := keptRun(&c.keys, c.rg, c.from, c.to)
	wlo, whi, wpast := keptRunRows(&c.keys, c.rg, c.from, c.to)
	if lo != wlo || hi != whi || past != wpast {
		t.Fatalf("keptRun(%v over cells [%d, %d) of %d) = (%d, %d, %v), the per-row loop says (%d, %d, %v)",
			c.rg, c.from, c.to, c.keys.Len(), lo, hi, past, wlo, whi, wpast)
	}
}

// rangeEndsSeed is a keptRun input shaped like relation's range-end
// sweep: Int keys two apart, runs of 5 and of 120 equal keys, and a leaf
// window of about 50 cells.
func rangeEndsSeed(flags, lo, hi, ne, from, to byte) []byte {
	data := []byte{laneInt, flags, lo, hi, ne, from, to}
	for k := 0; k < 30; k++ {
		reps := 1
		switch {
		case k == 9 || k == 20:
			reps = 120
		case k%4 == 1:
			reps = 5
		}
		delta := byte(2)
		for reps > 0 {
			r := min(reps, 16)
			data = append(data, byte(r-1)<<4|delta)
			reps, delta = reps-r, 0
		}
	}
	return data
}

// FuzzKeptRun holds the binary search over a leaf's key lane to the
// per-row loop over random sorted lanes — Ints, Strings, Ints then
// Strings, Floats with NaN, ±Inf and ±0, long runs of equal keys —
// random windows and ranges with nil, inclusive and exclusive bounds and
// ≠ constants.
func FuzzKeptRun(f *testing.F) {
	for _, s := range [][]byte{
		rangeEndsSeed(1|2|4|8, 16, 40, 0, 10, 50),     // [16, 40] from mid-leaf
		rangeEndsSeed(1|2, 18, 18, 0, 20, 60),         // (18, 18): empty, in a run of 120
		rangeEndsSeed(1|2|4, 18, 42, 0, 0, 255),       // [18, 42) from the first cell
		rangeEndsSeed(1|2|4|8|16, 0, 60, 40, 150, 50), // ≠ 40 inside the second long run
		rangeEndsSeed(2|8, 0, 18, 0, 60, 40),          // (nil, 18] ending in a run
		rangeEndsSeed(1|2|4|8, 40, 20, 0, 0, 200),     // Lo beyond Hi
		{laneString, 1 | 2 | 4, 5, 30, 0, 3, 40, 0x31, 0x02, 0xf1, 0x10, 0x23},
		{laneIntString, 1 | 2 | 8, 20, 40, 0, 0, 255, 0x33, 0x31, 0x70, 0x33, 0x13},
		{laneFloat, 1 | 2 | 4 | 8, 0, 7, 0, 0, 255, 0x10, 0x07, 0x02, 0x13, 0x04, 0x20, 0x05},
		{laneIntFloat, 1 | 2 | 8, 3, 35, 0, 2, 255, 0x32, 0x31, 0x33, 0x30, 0x21, 0x07, 0x10},
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkKeptRun(t, decodeKeptRunCase(data))
	})
}

// TestKeptRunMatchesRowLoop is FuzzKeptRun's check over a fixed stream
// of random inputs, every lane kind and range shape.
func TestKeptRunMatchesRowLoop(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		data := make([]byte, 7+rnd.Intn(40))
		rnd.Read(data)
		data[0] = byte(i % laneKinds)
		checkKeptRun(t, decodeKeptRunCase(data))
	}
}

// A kept run is found without boxing a key: keptRun allocates nothing on
// a sorted lane.
func TestKeptRunAllocations(t *testing.T) {
	for name, data := range map[string][]byte{
		"int":    rangeEndsSeed(1|2|4, 18, 42, 0, 0, 255),
		"string": {laneString, 1 | 2 | 4, 5, 30, 0, 3, 40, 0x31, 0x02, 0xf1, 0x10, 0x23},
		"float":  {laneFloat, 1 | 2 | 4 | 8, 6, 1, 0, 0, 255, 0x10, 0x07, 0x02, 0x13, 0x04, 0x20, 0x05, 0x31},
	} {
		c := decodeKeptRunCase(data)
		if allocs := testing.AllocsPerRun(100, func() { keptRun(&c.keys, c.rg, c.from, c.to) }); allocs != 0 {
			t.Errorf("%s keys: keptRun allocated %.0f objects", name, allocs)
		}
	}
}
