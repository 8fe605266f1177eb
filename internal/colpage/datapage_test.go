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
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// The two type pairs in use: btree's leaves and hashidx's chain pages.
var testPageTypes = map[string]PageTypes{
	"leaf":  {Row: 1, Col: 4},
	"chain": {Row: 3, Col: 5},
}

var pinTuples = []tuple.Tuple{
	tuple.New(7, tuple.I(-3), tuple.S("ab"), tuple.F(1.5)),
	tuple.New(9, tuple.I(40), tuple.S("c"), tuple.F(-2)),
}

// pinnedPages are 128-byte data pages as the parent of the commit that
// introduced this file wrote them (btree.encodeLeaf and
// hashidx.encodeNode, which agreed on every byte but the first): hex
// from byte 1 on, trailing zeros trimmed.
var pinnedPages = []struct {
	name   string
	layout storage.PageLayout
	page   DataPage
	col    bool // written under the pair's Col byte
	body   string
}{
	{"col", storage.PageLayoutCol, DataPage{Next: 5, HasNext: true, Tuples: pinTuples}, true,
		"000200000006000200030000003c000000000000000701000201fffffffffffffffd01002b04000000026162" +
			"0000000163033ff8000000000000c0000000000000000100fffffffffffffffd000000000000000028010200" +
			"00000261620200000001630101c000000000000000013ff8"},
	{"row", storage.PageLayoutRow, DataPage{Next: 5, HasNext: true, Tuples: pinTuples}, false,
		"0002000000060000000000000007000300fffffffffffffffd02000000026162013ff8000000000000" +
			"0000000000000009000300000000000000002802000000016301c0"},
	// The zone map would store this string twice more: the chunk does
	// not fit the page, the rows do.
	{"col-falls-back-to-row", storage.PageLayoutCol,
		DataPage{Tuples: []tuple.Tuple{tuple.New(1, tuple.S("a string the zone map stores twice"))}}, false,
		"0001000000000000000000000001000102000000226120737472696e6720746865207a6f6e65206d6170207374" +
			"6f726573207477696365"},
}

func pinnedPage(t testing.TB, pt PageTypes, i int) []byte {
	t.Helper()
	pin := pinnedPages[i]
	body, err := hex.DecodeString(pin.body)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 128)
	page[0] = pt.Row
	if pin.col {
		page[0] = pt.Col
	}
	copy(page[1:], body)
	return page
}

// TestDataPageBytes pins the page bytes: per type pair, one page per
// layout plus the columnar→row fallback, and each decodes back to what
// was written, as tuples and as lanes.
func TestDataPageBytes(t *testing.T) {
	for name, pt := range testPageTypes {
		for i, pin := range pinnedPages {
			t.Run(name+"/"+pin.name, func(t *testing.T) {
				want := pinnedPage(t, pt, i)
				got := bytes.Repeat([]byte{0xAA}, len(want)) // stale bytes must be cleared
				pt.EncodePage(got, &pin.page, pin.layout)
				if !bytes.Equal(got, want) {
					t.Fatalf("page bytes moved:\n got %x\nwant %x", got, want)
				}
				n, err := pt.DecodePage(got)
				if err != nil {
					t.Fatal(err)
				}
				if n.Next != pin.page.Next || n.HasNext != pin.page.HasNext || !bytes.Equal(refBytes(n.Tuples), refBytes(pin.page.Tuples)) {
					t.Fatalf("decoded %+v, want %+v", n, pin.page)
				}
				if next, hasNext := PageLink(got); next != pin.page.Next || hasNext != pin.page.HasNext {
					t.Errorf("PageLink = %d, %v", next, hasNext)
				}
				var l Lanes
				if direct, _, err := pt.Take(got, nil, nil, 0, &l); err != nil || direct {
					t.Fatalf("Take onto staging lanes: direct %v, err %v", direct, err)
				}
				if !bytes.Equal(refBytes(lanesTuples(l.IDs, l.Cols)), refBytes(pin.page.Tuples)) {
					t.Fatalf("lanes hold %v", lanesTuples(l.IDs, l.Cols))
				}
			})
		}
	}
}

// TestTakeStagesOrDecodesDirect: a page decodes straight onto the batch
// only when nothing is staged ahead of it and all of it fits.
func TestTakeStagesOrDecodesDirect(t *testing.T) {
	pt := testPageTypes["leaf"]
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
// the access method's pair — a leaf is not a chain page, an internal
// B+-tree page (type 2) is neither — and a columnar page's header count
// against its chunk.
func TestDataPageRejectsDamage(t *testing.T) {
	decoders := map[string]func(PageTypes, []byte) error{
		"tuples": func(pt PageTypes, page []byte) error { _, err := pt.DecodePage(page); return err },
		"staged": func(pt PageTypes, page []byte) error { _, _, err := pt.Take(page, nil, nil, 0, &Lanes{}); return err },
		"direct": func(pt PageTypes, page []byte) error {
			_, _, err := pt.Take(page, nil, &vec.Batch{}, 100, &Lanes{})
			return err
		},
	}
	for name, pt := range testPageTypes {
		for dname, decode := range decoders {
			t.Run(name+"/"+dname, func(t *testing.T) {
				for i, pin := range pinnedPages {
					page := pinnedPage(t, pt, i)
					for _, typ := range []byte{0, 2, pt.Row ^ 2, pt.Col ^ 1} { // ^: the other pair's bytes
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
	pt := testPageTypes["chain"]
	miss := []Atom{{Col: 0, Op: pred.Gt, Val: tuple.I(40)}}
	hit := []Atom{{Col: 0, Op: pred.Ge, Val: tuple.I(40)}}
	col, row := pinnedPage(t, pt, 0), pinnedPage(t, pt, 1)
	for _, c := range []struct {
		name  string
		page  []byte
		atoms []Atom
		want  bool
	}{
		{"disproved", col, miss, true},
		{"satisfiable", col, hit, false},
		{"no atoms", col, nil, false},
		{"row page has no zones", row, miss, false},
		{"another owner's page", pinnedPage(t, testPageTypes["leaf"], 0), miss, false},
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

func mixedArity(tuples []tuple.Tuple) bool {
	for _, tp := range tuples {
		if len(tp.Vals) != len(tuples[0].Vals) {
			return true
		}
	}
	return false
}

// FuzzDataPage feeds arbitrary bytes to both decodes under both type
// pairs: neither may panic, whatever one accepts the other reads to the
// same rows (the lanes alone refuse a row page of mixed arity), a
// selecting Take keeps exactly the rows the atoms hold for
// (checkSelectedPage), and a decoded page that fits re-encodes, under
// either layout, to a page that is a fixpoint of decode∘encode.
func FuzzDataPage(f *testing.F) {
	for _, pt := range testPageTypes {
		for i := range pinnedPages {
			f.Add(pinnedPage(f, pt, i))
		}
		for _, tuples := range [][]tuple.Tuple{
			nil,
			repeatStrings(20, "x", "y"),
			{tuple.New(1, tuple.F(math.NaN()), tuple.S("")), tuple.New(2, tuple.F(math.Inf(-1)), tuple.S(strings.Repeat("k", 300)))},
			{tuple.New(8, tuple.I(1), tuple.S("a")), tuple.New(10, tuple.F(2.5), tuple.I(9))},
			{tuple.New(7), tuple.New(8)},
			{tuple.New(1, tuple.I(1)), tuple.New(2)}, // mixed arity: row layout only
		} {
			for _, layout := range []storage.PageLayout{storage.PageLayoutCol, storage.PageLayoutRow} {
				page := make([]byte, 512)
				pt.EncodePage(page, &DataPage{Next: 3, HasNext: len(tuples) > 2, Tuples: tuples}, layout)
				f.Add(page)
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{4, 0, 1, 0, 0, 0, 0})
	atoms := []Atom{{Col: 0, Op: pred.Lt, Val: tuple.I(0)}}
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, pt := range testPageTypes {
			if err := fuzzDataPage(pt, data, atoms); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	})
}

func fuzzDataPage(pt PageTypes, data []byte, atoms []Atom) error {
	n, derr := pt.DecodePage(data)
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
	if len(data) >= DataPageHeader && data[0] == pt.Col {
		if err := zoneReuse(data[DataPageHeader:]); err != nil {
			return err
		}
	}
	if err := checkSelectedPage(pt, data); err != nil {
		return err
	}
	if derr != nil {
		if serr == nil || berr == nil {
			return fmt.Errorf("lanes accepted a page the tuple decode rejects (%v): staged %v, direct %v", derr, serr, berr)
		}
		return nil
	}
	if (serr == nil) != (berr == nil) {
		return fmt.Errorf("staged decode: %v; direct decode: %v", serr, berr)
	}
	if serr != nil {
		if data[0] == pt.Col || !mixedArity(n.Tuples) {
			return fmt.Errorf("tuple decode accepted a page the lanes reject: %v", serr)
		}
	} else {
		want := refBytes(n.Tuples)
		if !direct || !bytes.Equal(refBytes(lanesTuples(staged.IDs, staged.Cols)), want) ||
			!bytes.Equal(refBytes(lanesTuples(b.IDs[0], b.Slots[0])), want) {
			return fmt.Errorf("decodes disagree (direct %v):\n tuples %v\n staged %v\n batch  %v",
				direct, n.Tuples, lanesTuples(staged.IDs, staged.Cols), lanesTuples(b.IDs[0], b.Slots[0]))
		}
	}
	if n.Size() > len(data) {
		return nil // a chunk can hold rows that would not fit row-major; no caller encodes those
	}
	for _, layout := range []storage.PageLayout{storage.PageLayoutCol, storage.PageLayoutRow} {
		p1 := make([]byte, len(data))
		pt.EncodePage(p1, n, layout)
		n1, err := pt.DecodePage(p1)
		if err != nil {
			return fmt.Errorf("decode of %v re-encode: %v", layout, err)
		}
		if n1.Next != n.Next || n1.HasNext != n.HasNext || !bytes.Equal(refBytes(n1.Tuples), refBytes(n.Tuples)) {
			return fmt.Errorf("%v re-encode changed the page: %+v → %+v", layout, n, n1)
		}
		p2 := make([]byte, len(data))
		pt.EncodePage(p2, n1, layout)
		if !bytes.Equal(p1, p2) {
			return fmt.Errorf("%v encode is not a fixpoint:\n%x\n%x", layout, p1, p2)
		}
	}
	return nil
}
