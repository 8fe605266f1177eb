package core

import (
	"slices"
	"testing"

	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

func insertInView(t *testing.T, db *Database, k int64) {
	t.Helper()
	tx := db.Begin()
	if _, err := tx.Insert("r", tuple.I(k), tuple.I(0), tuple.S("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestPeriodicDeferredRefresh(t *testing.T) {
	db := newSPDatabase(t, Deferred, 50)
	if err := db.SetDeferredRefreshEvery("v", 2); err != nil {
		t.Fatal(err)
	}
	h, _ := db.HR("r")

	insertInView(t, db, 15)
	if h.ADLen() == 0 {
		t.Fatal("first commit should sit in AD")
	}
	insertInView(t, db, 16)
	if h.ADLen() != 0 {
		t.Error("second commit should have triggered the periodic refresh")
	}
	// The view is already current: a query pays no AD read.
	db.ResetStats()
	rows, err := db.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 22 {
		t.Errorf("rows = %d, want 22", len(rows))
	}
	if got := db.Breakdown()[PhaseADRead]; got.Reads != 0 {
		t.Errorf("query after periodic refresh still read AD: %v", got)
	}
}

func TestPeriodicRefreshIgnoresUntouchedRelations(t *testing.T) {
	db := newSPDatabase(t, Deferred, 20)
	db.SetDeferredRefreshEvery("v", 1)
	// A second relation the view does not depend on.
	other := tuple.NewSchema(tuple.Col("x", tuple.Int))
	if _, err := db.CreateRelationBTree("other", other, 0); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	tx := db.Begin()
	tx.Insert("other", tuple.I(1))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.Breakdown()[PhaseADRead]; got.Reads != 0 {
		t.Errorf("commit to unrelated relation triggered a refresh: %v", got)
	}
}

func TestManualIdleTimeRefresh(t *testing.T) {
	db := newSPDatabase(t, Deferred, 50)
	insertInView(t, db, 15)

	// Idle-time refresh: the fold happens now...
	if err := db.RefreshDeferredNow("v"); err != nil {
		t.Fatal(err)
	}
	h, _ := db.HR("r")
	if h.ADLen() != 0 {
		t.Error("manual refresh did not fold AD")
	}
	// ...so the query pays only the read.
	db.ResetStats()
	rows, err := db.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 21 {
		t.Errorf("rows = %d, want 21", len(rows))
	}
	bd := db.Breakdown()
	if bd[PhaseADRead].Reads != 0 || bd[PhaseDefRefresh].IOs() != 0 || bd[PhaseFold].IOs() != 0 {
		t.Errorf("query after idle refresh still paid refresh costs: %v", bd)
	}
}

func TestRefreshPolicyAPIErrors(t *testing.T) {
	db := newSPDatabase(t, Immediate, 10)
	if err := db.SetDeferredRefreshEvery("v", 1); err == nil {
		t.Error("period set on non-deferred view")
	}
	if err := db.RefreshDeferredNow("v"); err == nil {
		t.Error("manual refresh on non-deferred view")
	}
	db2 := newSPDatabase(t, Deferred, 10)
	if err := db2.SetDeferredRefreshEvery("v", -1); err == nil {
		t.Error("negative period accepted")
	}
	if err := db2.SetDeferredRefreshEvery("missing", 1); err == nil {
		t.Error("period set on missing view")
	}
	if err := db2.RefreshDeferredNow("missing"); err == nil {
		t.Error("manual refresh of missing view")
	}
}

// The §4 argument, measured: refreshing once on demand costs no more
// refresh/fold/AD I/O than refreshing every commit, for the same
// workload.
func TestOnDemandRefreshBeatsPeriodic(t *testing.T) {
	run := func(every int) int64 {
		db := newSPDatabase(t, Deferred, 200)
		if every > 0 {
			if err := db.SetDeferredRefreshEvery("v", every); err != nil {
				t.Fatal(err)
			}
		}
		db.ResetStats()
		for i := 0; i < 6; i++ {
			tx := db.Begin()
			for j := 0; j < 4; j++ {
				k := int64(10 + (i*4+j)%20) // churn inside the view interval
				tx.Update("r", tuple.I(k), dbCurrentID(t, db, k), tuple.I(k), tuple.I(int64(i)), tuple.S("u"))
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.QueryView("v", nil); err != nil {
			t.Fatal(err)
		}
		bd := db.Breakdown()
		return bd[PhaseADRead].IOs() + bd[PhaseDefRefresh].IOs() + bd[PhaseFold].IOs()
	}
	onDemand := run(0)
	everyCommit := run(1)
	if onDemand > everyCommit {
		t.Errorf("on-demand refresh I/O (%d) exceeds per-commit refresh I/O (%d)", onDemand, everyCommit)
	}
}

// dbCurrentID finds the current id of the tuple with clustering key k
// as the HR shows it, (R ∪ A) − D: its A-net version, else its base
// version that D-net does not delete (test helper; charges are reset by
// the caller's accounting expectations).
func dbCurrentID(t *testing.T, db *Database, k int64) uint64 {
	t.Helper()
	h, ok := db.HR("r")
	if !ok {
		t.Fatal("no HR on r")
	}
	r := db.rels["r"]
	var anet, dnet []tuple.Tuple
	err := db.withPool(func(p *storage.Pool) (err error) {
		anet, dnet, err = h.NetChanges(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range anet {
		if tp.Vals[r.KeyCol()].Int() == k {
			return tp.ID
		}
	}
	base, err := db.lookupKey("r", tuple.I(k))
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range base {
		if !slices.ContainsFunc(dnet, func(d tuple.Tuple) bool { return d.ID == tp.ID }) {
			return tp.ID
		}
	}
	t.Fatalf("no visible tuple of key %d", k)
	return 0
}

// newChildDatabase is newSPDatabase plus a child c = σ(12 ≤ k < 20)(v)
// of the given strategy.
func newChildDatabase(t *testing.T, parent, child Strategy) *Database {
	t.Helper()
	db := newSPDatabase(t, parent, 50)
	if err := db.CreateView(childSPDef("c", "v", 12, 20), child); err != nil {
		t.Fatal(err)
	}
	return db
}

// An idle-time refresh of a deferred child goes through its parent:
// the AD file is folded, the parent logs the delta and the child drains
// it.
func TestRefreshDeferredNowOnChild(t *testing.T) {
	db := newChildDatabase(t, Deferred, Deferred)
	insertInView(t, db, 15)
	if stale, _ := db.ViewIsStale("c"); !stale {
		t.Fatal("child is not stale after a commit into its range")
	}
	if err := db.RefreshDeferredNow("c"); err != nil {
		t.Fatal(err)
	}
	if stale, _ := db.ViewIsStale("c"); stale {
		t.Error("child is still stale after RefreshDeferredNow")
	}
	if h, _ := db.HR("r"); h.ADLen() != 0 {
		t.Errorf("AD holds %d tuples after RefreshDeferredNow on the child", h.ADLen())
	}
	db.ResetStats()
	rows, err := db.QueryView("c", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Errorf("rows = %d, want 9", len(rows))
	}
	bd := db.Breakdown()
	if bd[PhaseADRead].Reads != 0 || bd[PhaseDefRefresh].IOs() != 0 || bd[PhaseFold].IOs() != 0 {
		t.Errorf("query after idle refresh still paid refresh costs: %v", bd)
	}
}

// A deferred child's refresh period counts commits to its base lineage
// (its Relations name the parent view, which no commit touches).
func TestPeriodicRefreshOnChild(t *testing.T) {
	db := newChildDatabase(t, Deferred, Deferred)
	if err := db.SetDeferredRefreshEvery("c", 2); err != nil {
		t.Fatal(err)
	}
	h, _ := db.HR("r")
	insertInView(t, db, 15)
	if h.ADLen() == 0 {
		t.Fatal("first commit should sit in AD")
	}
	insertInView(t, db, 16)
	if h.ADLen() != 0 {
		t.Errorf("AD holds %d tuples: the second commit should have refreshed the child through its parent", h.ADLen())
	}
	if stale, _ := db.ViewIsStale("c"); stale {
		t.Error("child is stale after its refresh period elapsed")
	}
}

// RefreshSnapshot on a snapshot over a view brings the parent current
// first, as every other refresh of a child does: the new copy shows the
// commit the deferred parent had not applied yet.
func TestRefreshSnapshotOnChildRefreshesParent(t *testing.T) {
	db := newChildDatabase(t, Deferred, Snapshot)
	if err := db.SetSnapshotInterval("c", 1000); err != nil { // only the forced refresh runs
		t.Fatal(err)
	}
	insertInView(t, db, 15)
	if err := db.RefreshSnapshot("c"); err != nil {
		t.Fatal(err)
	}
	if stale, _ := db.ViewIsStale("v"); stale {
		t.Error("parent is still stale after RefreshSnapshot on its child")
	}
	rows, err := db.QueryView("c", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Errorf("rows = %d, want 9 (8 seeds and the k=15 commit)", len(rows))
	}
}
