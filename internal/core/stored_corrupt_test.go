package core

import (
	"errors"
	"strings"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/colpage"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// A stored copy is read lane by lane, so the lane a reader indexes must
// be the one the stored bytes hold. These tests hand-encode leaves that
// are valid pages but not rows the view writes, carry them through
// Save/Load, and require the typed error — not a panic, and not an
// answer with the damaged rows silently missing.

// rewriteLeaves re-encodes every leaf of file with each row put through
// edit.
func rewriteLeaves(t *testing.T, db *Database, file string, edit func(tuple.Tuple) tuple.Tuple) {
	t.Helper()
	const leafCol colpage.PageType = 4 // btree's leaf, a colpage data page
	f := db.Disk().Open(file)
	edited := 0
	err := db.withPool(func(p *storage.Pool) error {
		for pn := storage.PageNum(0); pn < f.Extent(); pn++ {
			fr, err := p.Get(f, pn)
			if err != nil {
				continue // a freed page
			}
			if fr.Data[0] == byte(leafCol) {
				leaf := &colpage.DataPage{}
				if err := leafCol.DecodePage(fr.Data, leaf); err != nil {
					return err
				}
				var rows colpage.Lanes
				for i := range leaf.IDs {
					rows.InsertRow(i, edit(leaf.Row(i)))
				}
				leaf.Lanes = rows
				leafCol.EncodePage(fr.Data, leaf)
				fr.MarkDirty()
				edited += len(rows.IDs)
			}
			if err := p.Release(fr); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if edited == 0 {
		t.Fatalf("file %q has no columnar leaf rows to damage", file)
	}
}

func wantStoredCorrupt(t *testing.T, err error, view string) {
	t.Helper()
	var sc *StoredCorruptError
	if !errors.As(err, &sc) || sc.View != view {
		t.Fatalf("err = %v, want a StoredCorruptError for view %q", err, view)
	}
	if want := `stored copy of view "` + view + `" is corrupt`; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %q, want it to say %q", err, want)
	}
}

func TestCorruptStoredViewIsATypedError(t *testing.T) {
	damage := map[string]func(tuple.Tuple) tuple.Tuple{
		// The count cell of one row is a string: the lane holds no count
		// for it, and under four-lane columns it read as multiplicity 0.
		"string-in-count-column": func(tp tuple.Tuple) tuple.Tuple {
			if tp.Vals[0].Int() == 17 {
				tp.Vals[len(tp.Vals)-1] = tuple.S("1")
			}
			return tp
		},
		"every-count-a-float": func(tp tuple.Tuple) tuple.Tuple {
			tp.Vals[len(tp.Vals)-1] = tuple.F(1)
			return tp
		},
		"zero-column-rows": func(tp tuple.Tuple) tuple.Tuple { return tuple.New(tp.ID) },
		"count-column-missing": func(tp tuple.Tuple) tuple.Tuple {
			tp.Vals = tp.Vals[:len(tp.Vals)-1]
			return tp
		},
	}
	for name, edit := range damage {
		t.Run(name, func(t *testing.T) {
			db := newSPDatabase(t, Immediate, 60)
			rewriteLeaves(t, db, "v.view.btree", edit)
			restored := saveLoad(t, db)
			rows, err := restored.QueryView("v", nil)
			if err == nil {
				t.Fatalf("query of the damaged copy answered %d rows", len(rows))
			}
			wantStoredCorrupt(t, err, "v")
			restored.assertUnpinned(t)

			// A bounded read goes through the key lane first; whatever it
			// finds there, it must fail, not panic or answer.
			if rows, err := restored.QueryView("v", pred.NewRange(tuple.I(12), tuple.I(20), true, true)); err == nil {
				t.Fatalf("range query of the damaged copy answered %d rows", len(rows))
			}
			restored.assertUnpinned(t)
		})
	}
}

// A child view scanning a grouped-aggregate parent reads the parent's
// group rows lane by lane too.
func TestCorruptGroupRowsAreATypedError(t *testing.T) {
	damage := map[string]func(tuple.Tuple) tuple.Tuple{
		"string-in-count": func(tp tuple.Tuple) tuple.Tuple { tp.Vals[1] = tuple.S("3"); return tp },
		"int-in-sum":      func(tp tuple.Tuple) tuple.Tuple { tp.Vals[2] = tuple.I(3); return tp },
		"short-rows":      func(tp tuple.Tuple) tuple.Tuple { tp.Vals = tp.Vals[:2]; return tp },
	}
	for name, edit := range damage {
		t.Run(name, func(t *testing.T) {
			db := newSPDatabase(t, Immediate, 60)
			parent := Def{
				Name: "g", Kind: GroupedAggregate, Relations: []string{"r"},
				Pred:    pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(0)}),
				AggKind: agg.Sum, AggCol: 1, GroupBy: 2,
			}
			if err := db.CreateView(parent, Immediate); err != nil {
				t.Fatal(err)
			}
			child := Def{
				Name: "c", Kind: SelectProject, Relations: []string{"g"},
				Pred:    pred.New(pred.Cmp{Rel: 0, Col: 1, Op: pred.Ge, Val: tuple.F(0)}),
				Project: [][]int{{0, 1}}, ViewKeyCol: 0,
			}
			if err := db.CreateView(child, QueryModification); err != nil {
				t.Fatal(err)
			}
			if rows, err := db.QueryView("c", nil); err != nil || len(rows) == 0 {
				t.Fatalf("child over intact parent: %d rows, err %v", len(rows), err)
			}
			rewriteLeaves(t, db, "g.groups.btree", edit)
			restored := saveLoad(t, db)
			rows, err := restored.QueryView("c", nil)
			if err == nil {
				t.Fatalf("child query over damaged group rows answered %d rows", len(rows))
			}
			wantStoredCorrupt(t, err, "g")
			restored.assertUnpinned(t)
		})
	}
}
