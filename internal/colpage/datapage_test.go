package colpage

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"viewmat/internal/pred"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// The two type bytes in use: btree's leaves and hashidx's chain pages.
var ownerTypes = map[string]PageType{
	"leaf":  4,
	"chain": 5,
}

var pinTuples = []tuple.Tuple{
	tuple.New(7, tuple.I(-3), tuple.S("ab"), tuple.F(1.5)),
	tuple.New(9, tuple.I(40), tuple.S("c"), tuple.F(-2)),
}

// pinnedPages are 128-byte data pages: hex from byte 1 on, trailing
// zeros trimmed. "col" is as the parent of the commit that introduced
// this file wrote it (btree.encodeLeaf and hashidx.encodeNode, which
// agreed on every byte but the first). The rest pin one lane encoding
// each — run-length ints, a string dictionary, a column of mixed types,
// floats at NaN, −0 and ±∞ — and a page of no rows that only links on,
// as the encoder wrote them from rows before it read lanes alone.
var pinnedPages = []struct {
	name string
	page DataPage
	body string
}{
	{"col", DataPage{Next: 5, HasNext: true, Lanes: lanesOf(pinTuples)},
		"000200000006000200030000003c000000000000000701000201fffffffffffffffd01002b04000000026162" +
			"0000000163033ff8000000000000c0000000000000000100fffffffffffffffd000000000000000028010200" +
			"00000261620200000001630101c000000000000000013ff8"},
	// The zone map would store this string twice more: the chunk with it
	// does not fit the page, the chunk without it (flags 0) does.
	{"col-without-zones", DataPage{Lanes: lanesOf([]tuple.Tuple{tuple.New(1, tuple.S("a string the zone map stores twice"))})},
		"0001000000000001000100000038000000000000000100040000002261207374" +
			"72696e6720746865207a6f6e65206d61702073746f726573207477696365"},
	{"rle-int", DataPage{Lanes: lanesOf([]tuple.Tuple{
		tuple.New(1, tuple.I(0)), tuple.New(2, tuple.I(0)), tuple.New(3, tuple.I(math.MaxInt64)), tuple.New(4, tuple.I(math.MaxInt64)),
	})},
		"000400000000000400010000002c00000000000000010100010203020002000000000000000000027fffffff" +
			"ffffffff000201000000000000000000007fffffffffffffff"},
	{"dict-string", DataPage{Lanes: lanesOf(repeatStrings(4, "x", "y", "x", "x"))},
		"0004000000000004000200000034000000000000000101000102030500020000000178000000017900010000" +
			"0100000000000000000100010203010200000001780200000001790100000000000000000000000000000000" +
			"0003"},
	{"widened", DataPage{Lanes: lanesOf([]tuple.Tuple{
		tuple.New(1, tuple.I(1), tuple.I(5)), tuple.New(2, tuple.S("a"), tuple.I(6)), tuple.New(3, tuple.F(2.5), tuple.I(7)),
	})},
		"000300000000000300020000003a000000000000000101000102000000000000000000010200000001610140" +
			"0400000000000001000000000000000501000102010000000000000000010200000001610100000000000000" +
			"0005000000000000000007"},
	{"float-specials", DataPage{Lanes: lanesOf([]tuple.Tuple{
		tuple.New(1, tuple.F(math.NaN())), tuple.New(2, tuple.F(math.Copysign(0, -1))),
		tuple.New(3, tuple.F(math.Inf(1))), tuple.New(4, tuple.F(math.Inf(-1))),
	})},
		"000400000000000400010000003600000000000000010100010203037ff80000000000018000000000000000" +
			"7ff0000000000000fff00000000000000101fff0000000000000017ff8000000000001"},
	{"empty", DataPage{Next: 0, HasNext: true},
		"0000000000010000000000000011"},
}

// decodePage is PageType.DecodePage into a fresh page.
func decodePage(pt PageType, page []byte) (*DataPage, error) {
	n := &DataPage{}
	return n, pt.DecodePage(page, n)
}

func pinnedPage(t testing.TB, pt PageType, i int) []byte {
	t.Helper()
	body, err := hex.DecodeString(pinnedPages[i].body)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 128)
	page[0] = byte(pt)
	copy(page[1:], body)
	return page
}

// TestDataPageBytes pins the page bytes: per type byte, a page with its
// zone maps, one without, and one per lane encoding; each decodes back to
// what was written, as a page and as scanned lanes.
func TestDataPageBytes(t *testing.T) {
	for name, pt := range ownerTypes {
		for i, pin := range pinnedPages {
			t.Run(name+"/"+pin.name, func(t *testing.T) {
				want := pinnedPage(t, pt, i)
				got := bytes.Repeat([]byte{0xAA}, len(want)) // stale bytes must be cleared
				pt.EncodePage(got, &pin.page)
				if !bytes.Equal(got, want) {
					t.Fatalf("page bytes moved:\n got %x\nwant %x", got, want)
				}
				n, err := decodePage(pt, got)
				if err != nil {
					t.Fatal(err)
				}
				rows := refBytes(lanesTuples(pin.page.IDs, pin.page.Cols))
				if n.Next != pin.page.Next || n.HasNext != pin.page.HasNext || !bytes.Equal(refBytes(lanesTuples(n.IDs, n.Cols)), rows) {
					t.Fatalf("decoded %+v, want %+v", n, pin.page)
				}
				if next, hasNext := PageLink(got); next != pin.page.Next || hasNext != pin.page.HasNext {
					t.Errorf("PageLink = %d, %v", next, hasNext)
				}
				var l Lanes
				if direct, _, err := pt.Take(got, nil, nil, 0, &l); err != nil || direct {
					t.Fatalf("Take onto staging lanes: direct %v, err %v", direct, err)
				}
				if !bytes.Equal(refBytes(lanesTuples(l.IDs, l.Cols)), rows) {
					t.Fatalf("lanes hold %v", lanesTuples(l.IDs, l.Cols))
				}
			})
		}
	}
}

// fullWidth is r rows of c int columns whose every FOR lane, the id lane
// included, is 8 bytes a row: each column alternates between the int
// extremes, and the ids span 0 to MaxUint64.
func fullWidth(r, c int) []tuple.Tuple {
	out := make([]tuple.Tuple, r)
	for i := range out {
		vals := make([]tuple.Value, c)
		for j := range vals {
			vals[j] = tuple.I(math.MinInt64)
			if i%2 == 1 {
				vals[j] = tuple.I(math.MaxInt64)
			}
		}
		out[i] = tuple.New(uint64(i), vals...)
	}
	if r > 0 {
		out[r-1].ID = math.MaxUint64
	}
	return out
}

// TestDataPageSizeBound: every page encodes in the bytes Size says it
// takes, on the cases where the bound is tight — no rows, and full-width
// int lanes on either side of r = 9, where the FOR headers stop
// outweighing the tag bytes — and where the zone maps alone overflow it,
// so the page is written without them.
func TestDataPageSizeBound(t *testing.T) {
	wideRow := make([]tuple.Value, 300)
	for c := range wideRow {
		wideRow[c] = []tuple.Value{tuple.I(int64(c)), tuple.F(float64(c)), tuple.S(strings.Repeat("w", c%7))}[c%3]
	}
	bound := strings.Repeat("b", maxZoneValue-5) // a string whose zone bound is the largest stored
	for _, c := range []struct {
		name     string
		tuples   []tuple.Tuple
		tight    bool // the zone-less page takes all of Size
		zoneless bool // the page with its zone maps does not fit Size
	}{
		{"no rows", nil, true, false},
		{"one row of many columns", []tuple.Tuple{tuple.New(1, wideRow...)}, false, true},
		{"8 rows of full-width ints", fullWidth(8, 3), true, true},
		{"9 rows of full-width ints", fullWidth(9, 3), true, true},
		{"40-byte string bounds", []tuple.Tuple{tuple.New(1, tuple.S(bound)), tuple.New(2, tuple.S(bound[1:]+"c"))}, false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := &DataPage{Lanes: lanesOf(c.tuples)}
			size := n.Size()
			used, err := encode(make([]byte, size-DataPageHeader), &n.Lanes, nil, false)
			if err != nil || DataPageHeader+used > size || c.tight && DataPageHeader+used != size {
				t.Fatalf("zone-less chunk of %d bytes (%v) in a page of Size %d (tight: %v)", DataPageHeader+used, err, size, c.tight)
			}
			if _, err := encode(make([]byte, size-DataPageHeader), &n.Lanes, nil, true); (err != nil) != c.zoneless {
				t.Fatalf("chunk with zone maps in Size %d: %v, want it to fit: %v", size, err, !c.zoneless)
			}
			pt := ownerTypes["leaf"]
			page := make([]byte, size)
			var z Zones
			pt.encodePage(page, n, &z)
			back, err := decodePage(pt, page)
			if err != nil || !bytes.Equal(refBytes(lanesTuples(back.IDs, back.Cols)), refBytes(c.tuples)) {
				t.Fatalf("decoded %v, %v", back, err)
			}
			var read Zones
			if err := ReadZones(page[DataPageHeader:], &read); err != nil {
				t.Fatal(err)
			}
			for col, cz := range read.Cols {
				if cz.Present != z.Cols[col].Present || c.zoneless && cz.Present {
					t.Fatalf("column %d: zone present %v, the encoder said %v", col, cz.Present, z.Cols[col].Present)
				}
			}
		})
	}
}

// TestDataPageSizeCountsFitTheHeader: the header counts tuples in 16
// bits, so a page of more tuples fits no page, however large, and one of
// as many as it counts encodes and decodes back.
func TestDataPageSizeCountsFitTheHeader(t *testing.T) {
	const page = 2 << 20
	tuples := make([]tuple.Tuple, math.MaxUint16+1)
	for i := range tuples {
		tuples[i] = tuple.New(uint64(i), tuple.I(int64(i)))
	}
	full := &DataPage{Lanes: lanesOf(tuples)}
	if sz := full.Size(); sz <= page {
		t.Fatalf("%d tuples: Size %d admits a %d-byte page", len(tuples), sz, page)
	}
	full.Cut(math.MaxUint16)
	if sz := full.Size(); sz > page {
		t.Fatalf("%d tuples: Size %d", len(full.IDs), sz)
	}
	pt := ownerTypes["chain"]
	buf := make([]byte, page)
	pt.EncodePage(buf, full)
	if n, err := decodePage(pt, buf); err != nil || !bytes.Equal(refBytes(lanesTuples(n.IDs, n.Cols)), refBytes(tuples[:math.MaxUint16])) {
		t.Fatalf("decoded %v", err)
	}
}

// TestTakeStagesOrDecodesDirect: a page decodes straight onto the batch
// only when nothing is staged ahead of it and all of it fits.
func TestTakeStagesOrDecodesDirect(t *testing.T) {
	pt := ownerTypes["leaf"]
	page := pinnedPage(t, pt, 0) // two rows
	var stage Lanes
	b := &vec.Batch{}
	for _, step := range []struct {
		max        int
		direct     bool
		inB, inStg int
	}{
		{max: 4, direct: true, inB: 2},
		{max: 4, direct: true, inB: 4},
		{max: 5, direct: false, inB: 4, inStg: 2}, // one row of room
		{max: 8, direct: false, inB: 4, inStg: 4}, // room, but rows are staged ahead
	} {
		direct, _, err := pt.Take(page, nil, b, step.max, &stage)
		if err != nil || direct != step.direct || b.NumRows() != step.inB || len(stage.IDs) != step.inStg {
			t.Fatalf("Take(max %d): direct %v, err %v, batch %d rows, staged %d; want %+v",
				step.max, direct, err, b.NumRows(), len(stage.IDs), step)
		}
	}
	if err := stage.MoveRows(b, 1, 4); err != nil || b.NumRows() != 7 {
		t.Fatalf("MoveRows: %v, batch %d rows", err, b.NumRows())
	}
	stage.Reset()
	if direct, _, err := pt.Take(page, nil, b, 9, &stage); err != nil || !direct {
		t.Fatalf("Take after Reset: direct %v, err %v", direct, err)
	}
}

// TestDataPageRejectsDamage: every decode checks the type byte against
// the access method's — a leaf is not a chain page, an internal B+-tree
// page (type 2) and the retired row-major pages (types 1 and 3) are
// neither — and the header count against the chunk.
func TestDataPageRejectsDamage(t *testing.T) {
	decoders := map[string]func(PageType, []byte) error{
		"page":   func(pt PageType, page []byte) error { _, err := decodePage(pt, page); return err },
		"staged": func(pt PageType, page []byte) error { _, _, err := pt.Take(page, nil, nil, 0, &Lanes{}); return err },
		"direct": func(pt PageType, page []byte) error {
			_, _, err := pt.Take(page, nil, &vec.Batch{}, 100, &Lanes{})
			return err
		},
	}
	for name, pt := range ownerTypes {
		for dname, decode := range decoders {
			t.Run(name+"/"+dname, func(t *testing.T) {
				for i, pin := range pinnedPages {
					page := pinnedPage(t, pt, i)
					for _, typ := range []byte{0, 1, 2, 3, byte(pt) ^ 1} { // ^1: the other owner's byte
						page[0] = typ
						if err := decode(pt, page); err == nil || !strings.Contains(err.Error(), "not a data page") {
							t.Errorf("%s page under type byte %d: err = %v", pin.name, typ, err)
						}
					}
				}
				page := pinnedPage(t, pt, 0)
				binary.BigEndian.PutUint16(page[1:], 3)
				if err := decode(pt, page); err == nil || !strings.Contains(err.Error(), "holds 2 tuples, header says 3") {
					t.Errorf("columnar page with a wrong header count: err = %v", err)
				}
				if err := decode(pt, page[:DataPageHeader-1]); err == nil {
					t.Error("short page decoded")
				}
			})
		}
	}
}

func TestDataPagePrunable(t *testing.T) {
	pt := ownerTypes["chain"]
	miss := []Atom{{Col: 0, Op: pred.Gt, Val: tuple.I(40)}}
	hit := []Atom{{Col: 0, Op: pred.Ge, Val: tuple.I(40)}}
	col, bare := pinnedPage(t, pt, 0), pinnedPage(t, pt, 1)
	for _, c := range []struct {
		name  string
		page  []byte
		atoms []Atom
		want  bool
	}{
		{"disproved", col, miss, true},
		{"satisfiable", col, hit, false},
		{"no atoms", col, nil, false},
		{"zone-less page", bare, []Atom{{Col: 0, Op: pred.Gt, Val: tuple.S("b")}}, false},
		{"another owner's page", pinnedPage(t, ownerTypes["leaf"], 0), miss, false},
	} {
		if got, err := pt.Prunable(c.page, c.atoms, &Zones{}); err != nil || got != c.want {
			t.Errorf("%s: Prunable = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	binary.BigEndian.PutUint32(col[DataPageHeader+4:], 1<<20) // footer offset off the page
	if got, err := pt.Prunable(col, miss, &Zones{}); err == nil || got {
		t.Errorf("damaged footer: Prunable = %v, %v", got, err)
	}
}

// FuzzDataPage feeds arbitrary bytes to both decodes under both type
// bytes: neither may panic, whatever one accepts the other reads to the
// same rows, a selecting Take keeps exactly the rows the atoms hold for
// (checkSelectedPage), and every decoded page Size admits encodes as a
// chunk to a page that is a fixpoint of decode∘encode.
func FuzzDataPage(f *testing.F) {
	for _, pt := range ownerTypes {
		for i := range pinnedPages {
			f.Add(pinnedPage(f, pt, i))
		}
		for _, tuples := range [][]tuple.Tuple{
			nil,
			repeatStrings(20, "x", "y"),
			{tuple.New(1, tuple.F(math.NaN()), tuple.S("")), tuple.New(2, tuple.F(math.Inf(-1)), tuple.S(strings.Repeat("k", 300)))},
			{tuple.New(8, tuple.I(1), tuple.S("a")), tuple.New(10, tuple.F(2.5), tuple.I(9))},
			{tuple.New(7), tuple.New(8)},
			fullWidth(8, 2),
			fullWidth(9, 1),
			{tuple.New(1, tuple.S(strings.Repeat("z", 35))), tuple.New(2, tuple.S(strings.Repeat("y", 35)))},
		} {
			// A roomy page, and one of the bytes Size says.
			n := &DataPage{Next: 3, HasNext: len(tuples) > 2, Lanes: lanesOf(tuples)}
			for _, size := range []int{512, n.Size()} {
				page := make([]byte, size)
				pt.EncodePage(page, n)
				f.Add(page)
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{4, 0, 1, 0, 0, 0, 0})
	atoms := []Atom{{Col: 0, Op: pred.Lt, Val: tuple.I(0)}}
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, pt := range ownerTypes {
			if err := fuzzDataPage(pt, data, atoms); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	})
}

func fuzzDataPage(pt PageType, data []byte, atoms []Atom) error {
	n, derr := decodePage(pt, data)
	var staged Lanes
	_, _, serr := pt.Take(data, nil, nil, 0, &staged)
	b := &vec.Batch{}
	direct, _, berr := pt.Take(data, nil, b, math.MaxUint16, &Lanes{})
	// The zone peek reads into the walker's reused struct: after a wider
	// page with every zone present it must decide, and hold, exactly what
	// a fresh struct does.
	wide := &Zones{}
	if err := ReadZones(wideChunk, wide); err != nil {
		return err
	}
	fresh, ferr := pt.Prunable(data, atoms, &Zones{})
	if reused, rerr := pt.Prunable(data, atoms, wide); reused != fresh || (rerr == nil) != (ferr == nil) {
		return fmt.Errorf("prune decision on reused zones %v, %v; on fresh %v, %v", reused, rerr, fresh, ferr)
	}
	if len(data) >= DataPageHeader && data[0] == byte(pt) {
		if err := zoneReuse(data[DataPageHeader:]); err != nil {
			return err
		}
	}
	if err := checkSelectedPage(pt, data); err != nil {
		return err
	}
	if derr != nil {
		if serr == nil || berr == nil {
			return fmt.Errorf("a scan accepted a page the page decode rejects (%v): staged %v, direct %v", derr, serr, berr)
		}
		return nil
	}
	if serr != nil || berr != nil {
		return fmt.Errorf("the page decode accepted a page a scan rejects: staged %v, direct %v", serr, berr)
	}
	if next, hasNext := PageLink(data); next != n.Next || hasNext != n.HasNext {
		return fmt.Errorf("PageLink = %d, %v; the page decode says %d, %v", next, hasNext, n.Next, n.HasNext)
	}
	want := refBytes(lanesTuples(n.IDs, n.Cols))
	if !direct || !bytes.Equal(refBytes(lanesTuples(staged.IDs, staged.Cols)), want) ||
		!bytes.Equal(refBytes(lanesTuples(b.IDs[0], b.Slots[0])), want) {
		return fmt.Errorf("decodes disagree (direct %v):\n page   %v\n staged %v\n batch  %v",
			direct, lanesTuples(n.IDs, n.Cols), lanesTuples(staged.IDs, staged.Cols), lanesTuples(b.IDs[0], b.Slots[0]))
	}
	if n.Size() > len(data) {
		return nil // a chunk can hold rows Size does not admit; no caller encodes those
	}
	p1 := make([]byte, len(data))
	pt.EncodePage(p1, n) // panics if the chunk does not fit
	n1, err := decodePage(pt, p1)
	if err != nil {
		return fmt.Errorf("decode of the re-encode: %v", err)
	}
	if n1.Next != n.Next || n1.HasNext != n.HasNext || !bytes.Equal(refBytes(lanesTuples(n1.IDs, n1.Cols)), want) {
		return fmt.Errorf("re-encode changed the page: %+v → %+v", n, n1)
	}
	p2 := make([]byte, len(data))
	pt.EncodePage(p2, n1)
	if !bytes.Equal(p1, p2) {
		return fmt.Errorf("encode is not a fixpoint:\n%x\n%x", p1, p2)
	}
	return nil
}
