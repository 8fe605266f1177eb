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
// against want, the page's rows the atoms keep as refBytes, and dropped;
// and a take of two picks of them, which gathers the rows twice.
func keptTakes(pt PageType, page []byte, atoms []Atom, want []byte, dropped int) error {
	k, err := pt.keep(page)
	if err != nil {
		return fmt.Errorf("a page Take reads does not keep: %v", err)
	}
	p := pick{k, k.selectRows(atoms, nil)}
	var staged Lanes
	_, sdropped, serr := take(nil, p.rows(), nil, []pick{p}, nil, 0, &staged)
	b := &vec.Batch{}
	direct, bdropped, berr := take(nil, p.rows(), nil, []pick{p}, b, math.MaxUint16, &Lanes{})
	var twice Lanes
	_, tdropped, terr := take(nil, 2*p.rows(), nil, []pick{p, p}, nil, 0, &twice)
	switch {
	case serr != nil || berr != nil || terr != nil:
		return fmt.Errorf("atoms %v: kept take: staged %v, direct %v, two picks %v", atoms, serr, berr, terr)
	case !bytes.Equal(refBytes(lanesTuples(staged.IDs, staged.Cols)), want):
		return fmt.Errorf("atoms %v: staged kept rows differ from the page decode filtered", atoms)
	case !direct || !bytes.Equal(refBytes(lanesTuples(b.IDs[0], b.Slots[0])), want):
		return fmt.Errorf("atoms %v: direct (%v) kept rows differ from the page decode filtered", atoms, direct)
	case !bytes.Equal(refBytes(lanesTuples(twice.IDs, twice.Cols)), refBytes(append(keepWhere(lanesTuples(k.IDs, k.Cols), atoms), keepWhere(lanesTuples(k.IDs, k.Cols), atoms)...))):
		return fmt.Errorf("atoms %v: two picks' kept rows differ from the page decode filtered, twice", atoms)
	case sdropped != dropped || bdropped != dropped || tdropped != 2*dropped:
		return fmt.Errorf("atoms %v: kept take dropped %d staged, %d direct, %d of two picks; Take %d", atoms, sdropped, bdropped, tdropped, dropped)
	}
	return nil
}

// scanPick runs a scan's pick of k's rows for the atoms, the test
// binaries' check of a slot hit on, and gathers them onto lanes of their
// own. hit reports that the selection slot answered it.
func scanPick(k *kept, atoms []Atom) (got Lanes, dropped int, hit bool, err error) {
	hit = k.slot.Load() == slotSet && sameAtoms(k.pick.atoms, atoms)
	s := &Scan{prune: atoms}
	if _, err = s.pick(k, true); err == nil {
		err = s.gather(nil, 0)
	}
	return s.stage, s.dropped, hit, err
}

// slotAtoms returns the atoms k's selection slot holds, nil while it is
// not set.
func slotAtoms(k *kept) []Atom {
	if k.slot.Load() != slotSet {
		return nil
	}
	return k.pick.atoms
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
// the next column, are DecodeWhere's, and so is the dropped count. Each
// list is then picked as a scan picks it, on lanes of its own, twice —
// a miss that sets the selection slot, then a hit the check compares with
// a fresh selection — and the other list once on the same lanes, a miss
// that leaves the first list in the slot: all three gather DecodeWhere's
// rows. The seeds carry every lane encoding: frame of reference,
// run-length, dictionary and raw strings, floats and mixed cells.
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
			lists := [][]Atom{{a}, {a, b}}
			var want [2]Lanes
			var dropped [2]int
			for i, atoms := range lists {
				ids, cols, d, err := DecodeWhere(page[DataPageHeader:], atoms, nil, nil)
				if err != nil {
					t.Fatalf("%s: a page that keeps does not decode selected: %v", name, err)
				}
				if err := sameAsKept(k, atoms, ids, cols, d); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want[i], dropped[i] = Lanes{ids, cols}, d
			}
			for i, atoms := range lists {
				k, err := pt.keep(page)
				if err != nil {
					t.Fatal(err)
				}
				other := 1 - i
				for _, step := range []struct {
					list int
					hit  bool
				}{{i, false}, {i, true}, {other, false}} {
					got, d, hit, err := scanPick(k, lists[step.list])
					switch {
					case err != nil:
						t.Fatalf("%s: atoms %v: %v", name, lists[step.list], err)
					case hit != step.hit:
						t.Fatalf("%s: atoms %v: slot hit %v, want %v", name, lists[step.list], hit, step.hit)
					case !got.equal(&want[step.list]) || d != dropped[step.list]:
						t.Fatalf("%s: atoms %v (slot hit %v): picked %v (%d dropped), selected decode %v (%d dropped)",
							name, lists[step.list], hit, lanesTuples(got.IDs, got.Cols), d,
							lanesTuples(want[step.list].IDs, want[step.list].Cols), dropped[step.list])
					case !sameAtoms(slotAtoms(k), atoms):
						t.Fatalf("%s: after a pick for %v the slot holds %v, want the first list %v", name, lists[step.list], slotAtoms(k), atoms)
					}
				}
			}
		}
	})
}

// TestKeptCheckFindsStaleSelection: the test binaries' check of a
// selection slot hit fails on a selection that is not what the lanes
// select for its atoms, and two atom lists equal under tuple.Compare share
// a slot.
func TestKeptCheckFindsStaleSelection(t *testing.T) {
	pt := ownerTypes["leaf"]
	k, err := pt.keep(pinnedPage(t, pt, 0))
	if err != nil {
		t.Fatal(err)
	}
	atoms := []Atom{{Col: 0, Op: pred.Le, Val: tuple.F(math.Copysign(0, -1))}}
	if _, _, hit, err := scanPick(k, atoms); hit || err != nil {
		t.Fatalf("first pick: hit %v, err %v", hit, err)
	}
	if _, _, hit, err := scanPick(k, []Atom{{Col: 0, Op: pred.Le, Val: tuple.F(0)}}); !hit || err != nil {
		t.Fatalf("a pick with +0 for the slot's −0: hit %v, err %v; want a hit", hit, err)
	}
	for _, other := range [][]Atom{
		{{Col: 0, Op: pred.Lt, Val: tuple.F(0)}},
		{{Col: 1, Op: pred.Le, Val: tuple.F(0)}},
		{{Col: 0, Op: pred.Le, Val: tuple.I(0)}},
		append(atoms, atoms...),
	} {
		if sameAtoms(other, atoms) {
			t.Errorf("atoms %v share the slot of %v", other, atoms)
		}
	}
	k.pick.rows = append(k.pick.rows, len(k.IDs))
	if _, _, err := k.selection(atoms, true); err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Errorf("a stale selection: err = %v", err)
	}
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

// TestAppendPicksMatchesPickByPick: a gather of several leaves' picks —
// the pinned pages two at a time, every row or the rows an atom keeps,
// onto empty lanes and behind a row already there — holds exactly what
// appending the picks one by one (appendRows) holds: the same rows, the
// same dropped count, and the same error when the leaves' arities differ.
// The pages cover uniform lanes of every type, widened lanes and a page
// of no row.
func TestAppendPicksMatchesPickByPick(t *testing.T) {
	pt := ownerTypes["leaf"]
	var ks []*kept
	for i := range pinnedPages {
		k, err := pt.keep(pinnedPage(t, pt, i))
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	atoms := []Atom{{Col: 0, Op: pred.Ge, Val: tuple.I(2)}}
	for i, a := range ks {
		for j, b := range ks {
			for _, head := range []*kept{nil, a, b} {
				for _, sel := range [][]Atom{nil, atoms} {
					picks := []pick{{k: a}, {k: b}}
					rows := 0
					for p := range picks {
						if sel != nil {
							picks[p].sel = picks[p].k.selectRows(sel, nil)
						}
						rows += picks[p].rows()
					}
					var got, want Lanes
					if head != nil && len(head.IDs) > 0 {
						for _, l := range []*Lanes{&got, &want} {
							if _, err := head.appendRows([]int{0}, l); err != nil {
								t.Fatal(err)
							}
						}
					}
					dropped, err := appendPicks(picks, rows, &got)
					wdropped, werr := 0, error(nil)
					for _, p := range picks {
						d, err := p.k.appendRows(p.sel, &want)
						if err != nil {
							werr = err
							break
						}
						wdropped += d
					}
					switch {
					case (err == nil) != (werr == nil):
						t.Errorf("pages %d, %d behind %v, atoms %v: error %v, pick by pick %v", i, j, head != nil, sel, err, werr)
					case err == nil && (!got.equal(&want) || dropped != wdropped):
						t.Errorf("pages %d, %d behind %v, atoms %v: gathered %v (%d dropped), pick by pick %v (%d dropped)",
							i, j, head != nil, sel, lanesTuples(got.IDs, got.Cols), dropped, lanesTuples(want.IDs, want.Cols), wdropped)
					}
				}
			}
		}
	}
}
