package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// attachedTo summarizes what the engine currently holds on a view's
// behalf: whether it has t-locks registered, which relations are
// HR-wrapped, and which of the view's store files and AD files exist
// on disk.
func attachedTo(db *Database, view string) string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	locked := false
	for _, v := range db.locks.Views() {
		locked = locked || v == view
	}
	var wrapped []string
	for rn := range db.hrs {
		wrapped = append(wrapped, rn)
	}
	sort.Strings(wrapped)
	var files []string
	for _, f := range db.disk.FileNames() {
		if strings.HasPrefix(f, view+".") || strings.HasSuffix(f, ".ad") {
			files = append(files, f)
		}
	}
	return fmt.Sprintf("locks=%v hrs=%v files=%v", locked, wrapped, files)
}

// TestStrategyLifecycleTable walks the strategy table: whichever way a
// view arrives at a strategy — CreateView, SetStrategy from every other
// strategy, or Save→Load — the engine must hold exactly the same
// t-locks, HR wrappers and store files for it, and the view must answer
// like a query-modification twin over the same definition, before and
// after further updates. Top-level views and children of a
// materialized parent are both covered.
func TestStrategyLifecycleTable(t *testing.T) {
	type placement struct {
		name string
		def  Def
		twin Def
		// want is what must be attached per strategy.
		want map[Strategy]string
	}
	placements := []placement{
		{
			name: "top-level", def: spDef("v"), twin: spDef("twin"),
			want: map[Strategy]string{
				QueryModification: "locks=false hrs=[] files=[]",
				Immediate:         "locks=true hrs=[] files=[v.view.btree]",
				Deferred:          "locks=true hrs=[r] files=[r.ad v.view.btree]",
				Snapshot:          "locks=false hrs=[] files=[v.view.btree]",
				RecomputeOnDemand: "locks=true hrs=[] files=[v.view.btree]",
			},
		},
		{
			// The parent p is an Immediate view over r: it has its own
			// locks and no HR; the child never adds either.
			name: "child", def: childSPDef("v", "p", 12, 28), twin: childSPDef("twin", "p", 12, 28),
			want: map[Strategy]string{
				QueryModification: "locks=false hrs=[] files=[]",
				Immediate:         "locks=false hrs=[] files=[v.view.btree]",
				Deferred:          "locks=false hrs=[] files=[v.view.btree]",
				Snapshot:          "locks=false hrs=[] files=[v.view.btree]",
				RecomputeOnDemand: "locks=false hrs=[] files=[v.view.btree]",
			},
		},
	}
	// build seeds r, the parent p, the QM twin and the subject view
	// under its first strategy.
	build := func(t *testing.T, pl placement, first Strategy) *Database {
		t.Helper()
		db := newSPDatabase(t, QueryModification, 30) // "v" here is dropped below
		if err := db.DropView("v"); err != nil {
			t.Fatal(err)
		}
		if pl.name == "child" {
			if err := db.CreateView(spDef("p"), Immediate); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.CreateView(pl.twin, QueryModification); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateView(pl.def, first); err != nil {
			t.Fatal(err)
		}
		return db
	}
	// agree checks v against its twin now and after two update rounds.
	agree := func(t *testing.T, db *Database, label string) {
		t.Helper()
		for round := int64(0); round < 3; round++ {
			got, err := db.QueryView("v", nil)
			if err != nil {
				t.Fatalf("%s: query v: %v", label, err)
			}
			want, err := db.QueryView("twin", nil)
			if err != nil {
				t.Fatalf("%s: query twin: %v", label, err)
			}
			if err := diffRows(got, want); err != nil {
				t.Fatalf("%s, round %d: v diverges from its query-modification twin: %v", label, round, err)
			}
			if round < 2 {
				if err := flipScript(db, 13+round*3, 5+round, 8+round); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, pl := range placements {
		for _, s := range allStrategies {
			t.Run(fmt.Sprintf("%s/%v", pl.name, s), func(t *testing.T) {
				want := pl.want[s]

				created := build(t, pl, s)
				if got := attachedTo(created, "v"); got != want {
					t.Fatalf("CreateView: attached %s, want %s", got, want)
				}
				// Pending work under the strategy, then a round trip.
				if err := flipScript(created, 11, 4, 7); err != nil {
					t.Fatal(err)
				}
				loaded := saveLoad(t, created)
				t.Cleanup(func() { loaded.assertUnpinned(t) })
				if got := attachedTo(loaded, "v"); got != want {
					t.Fatalf("Save→Load: attached %s, want %s", got, want)
				}
				agree(t, created, "created")
				agree(t, loaded, "loaded")

				for _, from := range allStrategies {
					if from == s {
						continue
					}
					flipped := build(t, pl, from)
					if err := flipScript(flipped, 11, 4, 7); err != nil {
						t.Fatal(err)
					}
					if err := flipped.SetStrategy("v", s); err != nil {
						t.Fatalf("flip %v→%v: %v", from, s, err)
					}
					if got := attachedTo(flipped, "v"); got != want {
						t.Fatalf("SetStrategy %v→%v: attached %s, want %s", from, s, got, want)
					}
					agree(t, flipped, fmt.Sprintf("flipped from %v", from))
				}

				// Dropping the view takes everything away again.
				if err := created.DropView("v"); err != nil {
					t.Fatal(err)
				}
				if got, none := attachedTo(created, "v"), "locks=false hrs=[] files=[]"; got != none {
					t.Fatalf("DropView: still attached %s", got)
				}
			})
		}
	}
}

// TestStrategyRefusals pins the typed refusals, which all come from the
// one placement rule and the table: a relation cannot feed both an
// HR-wrapping view and a base-file reader (on create and on flip, in
// both orders), a parent cannot give up its stored copy, and
// grouped-aggregate views and unknown strategies do not flip.
func TestStrategyRefusals(t *testing.T) {
	baseReaders := []Strategy{Immediate, Snapshot, RecomputeOnDemand}
	for _, br := range baseReaders {
		db := newSPDatabase(t, Deferred, 30)
		if err := db.CreateView(spDef("w"), br); !errors.Is(err, ErrStrategyConflict) {
			t.Errorf("create %v beside deferred: got %v, want ErrStrategyConflict", br, err)
		}
		if err := db.CreateView(spDef("w"), QueryModification); err != nil {
			t.Fatal(err)
		}
		if err := db.SetStrategy("w", br); !errors.Is(err, ErrStrategyConflict) {
			t.Errorf("flip to %v beside deferred: got %v, want ErrStrategyConflict", br, err)
		}

		db = newSPDatabase(t, br, 30)
		if err := db.CreateView(spDef("w"), Deferred); !errors.Is(err, ErrStrategyConflict) {
			t.Errorf("create deferred beside %v: got %v, want ErrStrategyConflict", br, err)
		}
		if err := db.CreateView(spDef("w"), QueryModification); err != nil {
			t.Fatal(err)
		}
		if err := db.SetStrategy("w", Deferred); !errors.Is(err, ErrStrategyConflict) {
			t.Errorf("flip to deferred beside %v: got %v, want ErrStrategyConflict", br, err)
		}
		// A child of the base reader is no conflict: it reads the
		// parent's materialization, not the base files.
		if err := db.CreateView(childSPDef("c", "v", 12, 28), Deferred); err != nil {
			t.Errorf("deferred child of a %v parent: %v", br, err)
		}
	}

	db := newSPDatabase(t, Immediate, 30)
	if err := db.CreateView(childSPDef("c", "v", 12, 28), Immediate); err != nil {
		t.Fatal(err)
	}
	if err := db.SetStrategy("v", QueryModification); !errors.Is(err, ErrHasChildren) {
		t.Errorf("parent flip to QM: got %v, want ErrHasChildren", err)
	}
	if err := db.DropView("v"); !errors.Is(err, ErrHasChildren) {
		t.Errorf("parent drop: got %v, want ErrHasChildren", err)
	}
	if err := db.SetStrategy("c", Strategy(42)); !errors.Is(err, ErrFlipUnsupported) {
		t.Errorf("flip to unknown strategy: got %v, want ErrFlipUnsupported", err)
	}
	if err := db.CreateView(spDef("u"), Strategy(42)); err == nil {
		t.Error("CreateView accepted an unknown strategy")
	}
	gdb := newGroupDatabase(t, Immediate, agg.Sum, 12)
	if err := gdb.SetStrategy("g", Snapshot); !errors.Is(err, ErrFlipUnsupported) {
		t.Errorf("grouped-aggregate flip: got %v, want ErrFlipUnsupported", err)
	}
}

// TestDropViewDetaches is the regression test for a dropped deferred
// view leaving its relation HR-wrapped: later writes then landed in the
// AD file, where an Immediate view created afterwards never saw them.
// Dropping must fold what is pending and retire the HR, unless another
// deferred view still needs it.
func TestDropViewDetaches(t *testing.T) {
	insert := func(db *Database, k int64) {
		t.Helper()
		tx := db.Begin()
		if _, err := tx.Insert("r", tuple.I(k), tuple.I(0), tuple.S("x")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	db := newSPDatabase(t, Deferred, 30)
	insert(db, 15) // pending in the AD file when the view goes away
	if err := db.DropView("v"); err != nil {
		t.Fatal(err)
	}
	if _, wrapped := db.HR("r"); wrapped {
		t.Error("r still HR-wrapped after its last deferred view was dropped")
	}
	if got, want := attachedTo(db, "v"), "locks=false hrs=[] files=[]"; got != want {
		t.Errorf("after drop: attached %s, want %s", got, want)
	}
	insert(db, 12) // must reach the base file
	if err := db.CreateView(spDef("imm"), Immediate); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(spDef("qm"), QueryModification); err != nil {
		t.Fatal(err)
	}
	imm, err := db.QueryView("imm", nil)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := db.QueryView("qm", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(qm) != 22 {
		t.Errorf("query modification sees %d rows, want 22", len(qm))
	}
	sameRows(t, "immediate vs query modification after drop", imm, qm)

	// With a second deferred view over r the HR must survive the drop,
	// and the survivor keeps refreshing through it.
	db = newSPDatabase(t, Deferred, 30)
	if err := db.CreateView(spDef("w"), Deferred); err != nil {
		t.Fatal(err)
	}
	insert(db, 15)
	if err := db.DropView("v"); err != nil {
		t.Fatal(err)
	}
	if _, wrapped := db.HR("r"); !wrapped {
		t.Fatal("HR retired while deferred view w still needs it")
	}
	insert(db, 12)
	w, err := db.QueryView("w", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 22 {
		t.Errorf("surviving deferred view has %d rows, want 22", len(w))
	}
}

// TestCommitRefreshOrderDeterministic is the regression test for
// commit-time refresh walking the marked views in map order: immediate
// refreshes draw view-row ids from the shared clock, so the order is
// part of the stored state. Identical serial runs must Save identical
// bytes, and WAL replay of the same commits must rebuild them.
func TestCommitRefreshOrderDeterministic(t *testing.T) {
	run := func(walDev, snapDev storage.Device) []byte {
		t.Helper()
		db := newSPDatabase(t, Immediate, 30)
		for _, name := range []string{"v1", "v2", "v3"} {
			if err := db.CreateView(spDef(name), Immediate); err != nil {
				t.Fatal(err)
			}
		}
		if walDev != nil {
			if err := db.EnableDurability(walDev, snapDev, DurabilityOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		for c := int64(0); c < 5; c++ {
			tx := db.Begin()
			for i := int64(0); i < 3; i++ {
				if _, err := tx.Insert("r", tuple.I(10+c*3+i), tuple.I(c), tuple.S("n")); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := run(nil, nil)
	for i := 1; i < 20; i++ {
		if got := run(nil, nil); !bytes.Equal(got, want) {
			t.Fatalf("run %d saved different bytes than run 0: commit-time refresh order is not deterministic", i)
		}
	}

	walDev, snapDev := storage.NewFaultDisk(), storage.NewFaultDisk()
	live := run(walDev, snapDev)
	rec, info, err := Recover(walDev.DurableDevice(), snapDev.DurableDevice(), DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rec.assertUnpinned(t) })
	if info.Replayed != 5 {
		t.Fatalf("replayed %d records, want the 5 commits", info.Replayed)
	}
	var got bytes.Buffer
	if err := rec.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), live) {
		t.Fatal("recovered engine differs from Load(Save) of the live one: replay refreshed the immediate views in another order")
	}
}

// TestRefreshAllCompactionIsReplayed: trimming a parent's delta log is
// part of the refresh that made the trim possible, so WAL replay
// reproduces it. The fixture is the case an end-of-pass sweep got
// wrong: a deferred parent whose only child is a Snapshot view — the
// child never reads the log, so the parent's own refresh must trim what
// it just appended, in the live engine and in replay alike.
func TestRefreshAllCompactionIsReplayed(t *testing.T) {
	walDev, snapDev := storage.NewFaultDisk(), storage.NewFaultDisk()
	db := newSPDatabase(t, Deferred, 30)
	if err := db.CreateView(childSPDef("snap", "v", 12, 28), Snapshot); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableDurability(walDev, snapDev, DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	applyHierarchyScript(t, db, 30)
	if err := db.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.ViewDeltaLogLen("v"); n != 0 {
		t.Errorf("live parent log holds %d rows after RefreshAll; no differential child pins it", n)
	}
	var live bytes.Buffer
	if err := db.Save(&live); err != nil {
		t.Fatal(err)
	}
	wd, sd, err := cleanReboot(walDev, snapDev)
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := Recover(wd, sd, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rec.assertUnpinned(t) })
	if n, _ := rec.ViewDeltaLogLen("v"); n != 0 {
		t.Errorf("recovered parent log holds %d rows; replay did not trim it", n)
	}
	var got bytes.Buffer
	if err := rec.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), live.Bytes()) {
		t.Fatal("recovered engine saves different bytes than the live one after RefreshAll")
	}
}
