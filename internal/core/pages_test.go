package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/colpage"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// Rows that fill a 4 000-byte page in one to a few tuples: the pages where
// a column chunk's slack over the rows (colpage.DataPage.Size) is largest
// and a leaf split has the least room.

// stringDB is an engine over r(k INT, s STRING), clustered on k, with an
// immediate view v = π(k, s) r, so every commit writes both trees.
func stringDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase(Options{PageSize: 4000, PoolFrames: 64})
	t.Cleanup(func() { db.assertUnpinned(t) })
	schema := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("s", tuple.String))
	if _, err := db.CreateRelationBTree("r", schema, 0); err != nil {
		t.Fatal(err)
	}
	def := Def{Name: "v", Kind: SelectProject, Relations: []string{"r"}, Pred: pred.True(), Project: [][]int{{0, 1}}, ViewKeyCol: 0}
	if err := db.CreateView(def, Immediate); err != nil {
		t.Fatal(err)
	}
	return db
}

// checkStrings compares v's answer with model, key → string.
func checkStrings(db *Database, model map[int64]string) error {
	rows, err := db.QueryView("v", nil)
	if err != nil {
		return err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Vals[0].Int() < rows[j].Vals[0].Int() })
	if len(rows) != len(model) {
		return fmt.Errorf("v has %d rows, the model %d", len(rows), len(model))
	}
	for _, r := range rows {
		if s, ok := model[r.Vals[0].Int()]; !ok || r.Vals[1].Str() != s {
			return fmt.Errorf("v holds key %v with %d bytes of string; the model %d bytes (present %v)", r.Vals[0], len(r.Vals[1].Str()), len(s), ok)
		}
	}
	return nil
}

// TestCommitSplitsALeafOfUnevenRows: three commits of strings 76, 3 869
// and 126 bytes long once split a leaf in the middle, by count, and wrote
// 4 050 bytes of the right half over a 4 000-byte frame.
func TestCommitSplitsALeafOfUnevenRows(t *testing.T) {
	db := stringDB(t)
	model := map[int64]string{}
	for i, w := range []int{76, 3869, 126} {
		k, s := int64(i+1), strings.Repeat("s", w)
		tx := db.Begin()
		if _, err := tx.Insert("r", tuple.I(k), tuple.S(s)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		model[k] = s
	}
	if err := checkStrings(db, model); err != nil {
		t.Fatal(err)
	}
}

// TestNearFullStringPagesRecover drives inserts, updates and deletes of
// strings up to 3 900 bytes long through commits, a checkpoint and
// recovery: every answer is the model's, and the recovered engine saves
// the live one's bytes.
func TestNearFullStringPagesRecover(t *testing.T) {
	db := stringDB(t)
	walDev, snapDev := storage.NewFaultDisk(), storage.NewFaultDisk()
	if err := db.EnableDurability(walDev, snapDev, DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(34))
	ids := map[int64]uint64{}
	model := map[int64]string{}
	for c := 0; c < 60; c++ {
		tx := db.Begin()
		touched := map[int64]bool{}
		for op := 0; op < 1+rng.Intn(3); op++ {
			k := int64(rng.Intn(12))
			if touched[k] {
				continue
			}
			touched[k] = true
			s := strings.Repeat(string(rune('a'+c%26)), []int{0, 40, 900, 1900, 3900}[rng.Intn(5)])
			var err error
			switch _, live := model[k]; {
			case !live:
				ids[k], err = tx.Insert("r", tuple.I(k), tuple.S(s))
				model[k] = s
			case rng.Intn(3) == 0:
				err = tx.Delete("r", tuple.I(k), ids[k])
				delete(model, k)
			default:
				ids[k], err = tx.Update("r", tuple.I(k), ids[k], tuple.I(k), tuple.S(s))
				model[k] = s
			}
			if err != nil {
				t.Fatalf("commit %d: %v", c, err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", c, err)
		}
		if err := checkStrings(db, model); err != nil {
			t.Fatalf("after commit %d: %v", c, err)
		}
		if c == 30 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	wd, sd, err := cleanReboot(walDev, snapDev)
	if err != nil {
		t.Fatal(err)
	}
	rec, info, err := Recover(wd, sd, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed == 0 || info.SnapshotSeq == 0 {
		t.Errorf("recovery replayed %d records over snapshot seq %d; want the checkpoint and a log tail", info.Replayed, info.SnapshotSeq)
	}
	if err := checkStrings(rec, model); err != nil {
		t.Fatalf("recovered: %v", err)
	}
	var want, got bytes.Buffer
	if err := db.Save(&want); err != nil {
		t.Fatal(err)
	}
	if err := rec.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("recovered engine saves %d bytes, the live one %d, and they differ", got.Len(), want.Len())
	}
}

// TestCheckRowRefusesRowsTooWideToStore: a row that fits a page alone in
// its relation but not in a form a commit stores it in — its AD entry
// under an HR, one Int column wider; its row in a select-project view,
// the projection and the duplicate count — is refused when it is queued,
// not halfway through the commit after the rows before it. A row the
// view's predicate keeps out is not held to the view's width.
func TestCheckRowRefusesRowsTooWideToStore(t *testing.T) {
	const page = 4000
	schema := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("s", tuple.String))
	// w is the widest string a row (k, s) fits a page alone with; (k, s)
	// and one Int more does not fit.
	w := 0
	for colpage.FitsAlone(tuple.New(1, tuple.I(0), tuple.S(strings.Repeat("s", w+1))), page) {
		w++
	}
	if colpage.FitsAlone(tuple.New(1, tuple.I(0), tuple.S(strings.Repeat("s", w)), tuple.I(1)), page) {
		t.Fatalf("a row of a %d-byte string and one Int more fits a page", w)
	}
	below := pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(100)})
	for _, c := range []struct {
		name     string
		def      Def
		strategy Strategy
		want     string
	}{
		{"AD entry", Def{Name: "v", Kind: SelectProject, Relations: []string{"r"}, Pred: below, Project: [][]int{{0}}}, Deferred, "AD entry"},
		{"immediate view", Def{Name: "v", Kind: SelectProject, Relations: []string{"r"}, Pred: below, Project: [][]int{{0, 1}}}, Immediate, `view "v"`},
		{"query-modification view", Def{Name: "v", Kind: SelectProject, Relations: []string{"r"}, Pred: below, Project: [][]int{{0, 1}}}, QueryModification, `view "v"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := NewDatabase(Options{PageSize: page, PoolFrames: 64})
			if _, err := db.CreateRelationBTree("r", schema, 0); err != nil {
				t.Fatal(err)
			}
			if err := db.CreateView(c.def, c.strategy); err != nil {
				t.Fatal(err)
			}
			tx := db.Begin()
			if _, err := tx.Insert("r", tuple.I(1), tuple.S("a")); err != nil {
				t.Fatal(err)
			}
			_, err := tx.Insert("r", tuple.I(2), tuple.S(strings.Repeat("s", w)))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("queueing a row of a %d-byte string: %v, want an error naming its %s", w, err, c.want)
			}
			if _, err := tx.Insert("r", tuple.I(200), tuple.S(strings.Repeat("s", w))); (err == nil) != (c.strategy != Deferred) {
				t.Fatalf("queueing the row outside the view's predicate: %v", err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			rows, err := db.QueryView("v", nil)
			if err != nil || len(rows) != 1 || rows[0].Vals[0].Int() != 1 {
				t.Fatalf("view answers %v, %v; want the one narrow row", rows, err)
			}
		})
	}
}

// TestCheckRowRefusesTooWideGroupRows: a row whose group value fits its
// relation's page but not the group row a grouped aggregate stores for
// it — the group value, the count, three Floats and the row's id — is
// refused when it is queued, under Immediate and Deferred, so the commit
// applies the rows before it and nothing of it; a group one byte
// narrower is taken. The commit once accepted a 134-byte group on
// 256-byte pages and then failed inside the view's refresh, after the
// relation held both rows.
func TestCheckRowRefusesTooWideGroupRows(t *testing.T) {
	const page = 256
	schema := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("g", tuple.String))
	// w is the widest group whose group row fits a page alone.
	w := 0
	for colpage.FitsAlone(tuple.New(1, tuple.S(strings.Repeat("g", w+1)), tuple.I(0), tuple.F(0), tuple.F(0), tuple.F(0)), page) {
		w++
	}
	wide, widest := strings.Repeat("g", w+1), strings.Repeat("w", w)
	if w+1 > 134 || !colpage.FitsAlone(tuple.New(1, tuple.I(2), tuple.S(wide)), page) {
		t.Fatalf("the widest group is %d bytes; its row in r must fit a page of %d bytes", w, page)
	}
	for _, strategy := range []Strategy{Immediate, Deferred} {
		t.Run(strategy.String(), func(t *testing.T) {
			db := NewDatabase(Options{PageSize: page, PoolFrames: 64})
			if _, err := db.CreateRelationBTree("r", schema, 0); err != nil {
				t.Fatal(err)
			}
			def := Def{Name: "g", Kind: GroupedAggregate, Relations: []string{"r"}, Pred: pred.True(), AggKind: agg.Count, AggCol: 0, GroupBy: 1}
			if err := db.CreateView(def, strategy); err != nil {
				t.Fatal(err)
			}
			tx := db.Begin()
			if _, err := tx.Insert("r", tuple.I(1), tuple.S("a")); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Insert("r", tuple.I(2), tuple.S(wide)); err == nil || !strings.Contains(err.Error(), `view "g"`) {
				t.Fatalf("queueing a row of a %d-byte group: %v, want an error naming view \"g\"", len(wide), err)
			}
			if _, err := tx.Insert("r", tuple.I(3), tuple.S(widest)); err != nil {
				t.Fatalf("queueing a row of a %d-byte group: %v", len(widest), err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			groups, err := db.QueryGroups("g", nil)
			if err != nil || len(groups) != 2 || groups[0].Group.Str() != "a" || groups[1].Group.Str() != widest {
				t.Fatalf("view answers %v, %v; want the narrow and the widest group", groups, err)
			}
			if n := db.rels["r"].Len(); n != 2 { // a deferred query folded the AD file first
				t.Errorf("r holds %d rows, want the two it took", n)
			}
			if _, err := db.Begin().Update("r", tuple.I(1), 1, tuple.I(1), tuple.S(wide)); err == nil {
				t.Error("queueing an update to a too-wide group succeeded")
			}
		})
	}
}
