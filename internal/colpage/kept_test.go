package colpage

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"viewmat/internal/pred"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// The kept-lane select is held to the selected decode: for every atom
// list, the rows of a page's kept lanes that selectRows keeps, gathered
// by appendRows or by a kept take, are DecodeWhere's rows — ids, cell
// types and values, floats bit for bit — and the rows it leaves out are
// the ones DecodeWhere counts as dropped.

// sameAsKept checks the kept select on k, the full decode of a chunk,
// against DecodeWhere's rows ids and cols and its dropped count for the
// same atoms.
func sameAsKept(k *kept, atoms []Atom, ids []uint64, cols []vec.Col, dropped int) error {
	var got Lanes
	kdropped, err := k.appendRows(k.selectRows(atoms, nil), &got)
	if err != nil {
		return fmt.Errorf("atoms %v: kept select: %v", atoms, err)
	}
	if want := (Lanes{ids, cols}); !got.equal(&want) || kdropped != dropped {
		return fmt.Errorf("atoms %v: kept select (%d dropped)\n %v\nselected decode (%d dropped)\n %v",
			atoms, kdropped, lanesTuples(got.IDs, got.Cols), dropped, lanesTuples(ids, cols))
	}
	return nil
}

// keptTakes checks a kept take, staged and direct, of page's kept lanes
// against want, the page's rows the atoms keep as refBytes, and dropped.
func keptTakes(pt PageType, page []byte, atoms []Atom, want []byte, dropped int) error {
	k, err := pt.keep(page)
	if err != nil {
		return fmt.Errorf("a page Take reads does not keep: %v", err)
	}
	sel := k.selectRows(atoms, nil)
	var staged Lanes
	_, sdropped, serr := k.take(sel, nil, 0, &staged)
	b := &vec.Batch{}
	direct, bdropped, berr := k.take(sel, b, math.MaxUint16, &Lanes{})
	switch {
	case serr != nil || berr != nil:
		return fmt.Errorf("atoms %v: kept take: staged %v, direct %v", atoms, serr, berr)
	case !bytes.Equal(refBytes(lanesTuples(staged.IDs, staged.Cols)), want):
		return fmt.Errorf("atoms %v: staged kept rows differ from the page decode filtered", atoms)
	case !direct || !bytes.Equal(refBytes(lanesTuples(b.IDs[0], b.Slots[0])), want):
		return fmt.Errorf("atoms %v: direct (%v) kept rows differ from the page decode filtered", atoms, direct)
	case sdropped != dropped || bdropped != dropped:
		return fmt.Errorf("atoms %v: kept take dropped %d staged, %d direct; Take %d", atoms, sdropped, bdropped, dropped)
	}
	return nil
}

// fuzzAtom builds an atom from fuzzed parts: any column (one past the
// last too), any op (an unknown one too), and a constant of any type.
func fuzzAtom(col, op, typ uint8, i int64, f float64, s string) Atom {
	a := Atom{Col: int(col % 6), Op: pred.Op(op % 7)}
	switch typ % 3 {
	case 0:
		a.Val = tuple.I(i)
	case 1:
		a.Val = tuple.F(f)
	default:
		a.Val = tuple.S(s)
	}
	return a
}

// FuzzKeptSelect holds the kept select to DecodeWhere on fuzzed pages and
// fuzzed atoms: for every page either owner's decode accepts, the rows
// the kept lanes select for one fuzzed atom, and for it and a second on
// the next column, are DecodeWhere's, and so is the dropped count. The
// seeds carry every lane encoding: frame of reference, run-length,
// dictionary and raw strings, floats and mixed cells.
func FuzzKeptSelect(f *testing.F) {
	for _, pt := range ownerTypes {
		for i := range pinnedPages {
			f.Add(pinnedPage(f, pt, i), uint8(0), uint8(pred.Lt), uint8(0), int64(5), 0.0, "x")
		}
		for _, tuples := range [][]tuple.Tuple{
			{tuple.New(1, tuple.I(-1<<40), tuple.F(math.NaN())), tuple.New(2, tuple.I(7), tuple.F(0)), tuple.New(3, tuple.I(1<<40), tuple.F(-2.5))},
			repeatStrings(40, "m", "x", "", "b"),
			{tuple.New(1, tuple.S("x")), tuple.New(2, tuple.S("")), tuple.New(3, tuple.S(strings.Repeat("m", 300)))},
			{tuple.New(1, tuple.I(7)), tuple.New(2, tuple.S("m")), tuple.New(3, tuple.F(math.NaN())), tuple.New(4, tuple.I(-1))},
		} {
			page := make([]byte, 1024)
			pt.EncodePage(page, &DataPage{Lanes: lanesOf(tuples)})
			f.Add(page, uint8(1), uint8(pred.Ge), uint8(2), int64(0), 2.5, "m")
		}
	}
	f.Fuzz(func(t *testing.T, page []byte, col, op, typ uint8, i int64, fl float64, s string) {
		a := fuzzAtom(col, op, typ, i, fl, s)
		b := fuzzAtom(col+1, op/7, typ/3, -i, -fl, s+"m")
		for name, pt := range ownerTypes {
			k, err := pt.keep(page)
			if err != nil {
				continue
			}
			for _, atoms := range [][]Atom{{a}, {a, b}} {
				ids, cols, dropped, err := DecodeWhere(page[DataPageHeader:], atoms, nil, nil)
				if err != nil {
					t.Fatalf("%s: a page that keeps does not decode selected: %v", name, err)
				}
				if err := sameAsKept(k, atoms, ids, cols, dropped); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	})
}

// TestKeptCheckFindsStaleLanes: the test binaries' check of a use of kept
// lanes fails on lanes that are not what their page decodes to, and on a
// page that no longer decodes.
func TestKeptCheckFindsStaleLanes(t *testing.T) {
	pt := ownerTypes["leaf"]
	page := pinnedPage(t, pt, 0)
	k, err := pt.keep(page)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.check(pt, page); err != nil {
		t.Fatalf("fresh lanes: %v", err)
	}
	other := pinnedPage(t, pt, 3)
	if err := k.check(pt, other); err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Errorf("lanes of another page: err = %v", err)
	}
	damaged := append([]byte(nil), page...)
	damaged[0] = 9
	if err := k.check(pt, damaged); err == nil || !strings.Contains(err.Error(), "does not decode") {
		t.Errorf("a damaged page: err = %v", err)
	}
}
