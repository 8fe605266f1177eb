package core

import (
	"bytes"
	"testing"

	"viewmat/internal/colpage"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// TestDeferredCycleSkipsEmptyDifferentials: a deferred refresh of Model-2
// join views after an epoch that updated only R1 reads and folds R1's
// differential file alone. The refresh's AD read charges exactly R1's
// AD pages that hold entries, and every page of R2's AD file is still
// cold in the refresh's pool afterwards: the refresh neither read nor
// wrote one. The views' answers equal the recompute oracle's before and
// after the refresh, and after Recover — and again after a second R1-only
// epoch on the recovered engine.
func TestDeferredCycleSkipsEmptyDifferentials(t *testing.T) {
	walDev, snapDev := storage.NewFaultDisk(), storage.NewFaultDisk()
	db := newFanJoinDatabase(t, gateModel, Deferred, 60, 10)
	oracle := newFanJoinDatabase(t, gatePrivate, RecomputeOnDemand, 60, 10)
	if err := db.EnableDurability(walDev, snapDev, DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	agree := func(label string, got *Database) {
		t.Helper()
		for _, v := range fanViews {
			rows, err := got.QueryView(v, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", label, v, err)
			}
			want, err := oracle.QueryView(v, nil)
			if err != nil {
				t.Fatalf("%s oracle %s: %v", label, v, err)
			}
			sameRows(t, label+" "+v, rows, want)
		}
	}
	// updateR1 commits an epoch that changes R1 alone: inserts in and out
	// of the views' slices and an update that moves a row's join value.
	updateR1 := func(db *Database, k int64) {
		t.Helper()
		tx := db.Begin()
		if _, err := tx.Insert("r1", tuple.I(100+k), tuple.I(k%10), tuple.S("new")); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Insert("r1", tuple.I(k), tuple.I((k+3)%10), tuple.S("dup")); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Update("r1", tuple.I(30+k), sourceID(t, db, "r1", 30+k), tuple.I(30+k), tuple.I((k+7)%10), tuple.S("moved")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	agree("before", db)

	updateR1(db, 1)
	updateR1(oracle, 1)
	r1AD, r2AD := db.disk.Open("r1.ad"), db.disk.Open("r2.ad")
	holding := 0
	dir := colpage.NewDirectory(5, r1AD) // hashidx's chain page type
	for pn := storage.PageNum(0); pn < r1AD.Extent(); pn++ {
		e, err := dir.Lookup(pn)
		if err != nil {
			t.Fatal(err)
		}
		if e != nil && !e.Empty() {
			holding++
		}
	}
	if holding == 0 || db.hrs["r2"].ADLen() != 0 {
		t.Fatalf("fixture: R1's AD file holds %d pages of entries, R2's %d entries", holding, db.hrs["r2"].ADLen())
	}
	db.ResetStats()
	// RefreshDeferredNow's unit, run in an operation the test ends itself,
	// so that the refresh's pool can be read before it is dropped.
	db.lock()
	o := db.begin()
	if err := o.runUnitLocked(refreshUnit{views: []*viewState{db.views[fanViews[0]]}, force: true}); err != nil {
		t.Fatal(err)
	}
	if got := db.Breakdown()[PhaseADRead]; got.Reads != int64(holding) || got.Writes != 0 {
		t.Errorf("ad-read charged %+v, want %d reads (R1's AD pages that hold entries) and no write", got, holding)
	}
	before := o.scope.Snapshot().Reads
	for pn := storage.PageNum(0); pn < r2AD.Extent(); pn++ {
		if err := o.pool.Read(r2AD, pn, func([]byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if cold := o.scope.Snapshot().Reads - before; cold != int64(r2AD.Extent()) {
		t.Errorf("%d of R2's %d AD pages were cold after the refresh, want all: it touched R2's AD file", cold, r2AD.Extent())
	}
	if _, err := o.end(opWhat{kind: "refresh"}); err != nil {
		t.Fatal(err)
	}
	db.mu.Unlock()
	if got := db.ADScanCount(); got != 1 {
		t.Errorf("the refresh read %d AD files, want 1 (R1's)", got)
	}
	agree("refreshed", db)

	rec, _, err := Recover(walDev.DurableDevice(), snapDev.DurableDevice(), DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	agree("recovered", rec)
	updateR1(rec, 2)
	updateR1(oracle, 2)
	agree("recovered, then updated", rec)
}

// TestDeferredCycleFreesTheDifferentialFile pins what resetting the
// differential file costs: nothing. A deferred refresh's fold frees
// every page of R's AD file and writes none: its writes are exactly the
// base pages it changed. Every commit starts from a cold pool, and the
// next commit's first append to each AD bucket allocates the bucket's
// page unread: a commit of inserts, which look nothing up in R, reads no
// page and writes each AD page it allocated once. A query-modification
// sibling reads (R ∪ A) − D through the pending overlay before the fold;
// both views answer what the recompute oracle does then, after the fold,
// after Recover from a checkpoint taken right after it, and after the
// next epochs on the recovered engine.
func TestDeferredCycleFreesTheDifferentialFile(t *testing.T) {
	walDev, snapDev := storage.NewFaultDisk(), storage.NewFaultDisk()
	db := newSPDatabase(t, Deferred, 60)
	oracle := newSPDatabase(t, RecomputeOnDemand, 60)
	for _, d := range []*Database{db, oracle} {
		if err := d.CreateView(spDef("q"), QueryModification); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.EnableDurability(walDev, snapDev, DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	agree := func(label string, got *Database, views ...string) {
		t.Helper()
		for _, v := range views {
			rows, err := got.QueryView(v, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", label, v, err)
			}
			want, err := oracle.QueryView(v, nil)
			if err != nil {
				t.Fatalf("%s oracle %s: %v", label, v, err)
			}
			sameRows(t, label+" "+v, rows, want)
		}
	}
	// inserts commits rows in and out of the views' range.
	inserts := func(db *Database, k int64) {
		t.Helper()
		tx := db.Begin()
		for _, nk := range []int64{100 + k, 12 + k, 40 + k} {
			if _, err := tx.Insert("r", tuple.I(nk), tuple.I(nk), tuple.S("new")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// changes commits an update in place and a delete.
	changes := func(db *Database, k int64) {
		t.Helper()
		tx := db.Begin()
		if _, err := tx.Update("r", tuple.I(20+k), sourceID(t, db, "r", 20+k), tuple.I(20+k), tuple.I(k), tuple.S("upd")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Delete("r", tuple.I(25+k), sourceID(t, db, "r", 25+k)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	base := db.disk.Open("r.btree")
	// images returns the base file's page images (nil for a free page).
	images := func() [][]byte {
		t.Helper()
		var out [][]byte
		for pn := storage.PageNum(0); pn < base.Extent(); pn++ {
			page, err := base.Peek(pn)
			if err != nil {
				page = nil
			}
			out = append(out, page)
		}
		return out
	}
	ad := db.disk.Open("r.ad")
	agree("before", db, "v", "q")

	for _, d := range []*Database{db, oracle} {
		inserts(d, 1)
		changes(d, 1)
	}
	agree("pending", db, "q")
	before := images()
	db.ResetStats()
	if err := db.RefreshDeferredNow("v"); err != nil {
		t.Fatal(err)
	}
	after := images()
	changed := 0 // the base pages whose image the refresh moved
	for pn, page := range after {
		if pn >= len(before) || !bytes.Equal(page, before[pn]) {
			changed++
		}
	}
	if got := db.Breakdown()[PhaseFold]; changed == 0 || got.Writes != int64(changed) || got.Reads > int64(base.NumPages()) {
		t.Errorf("fold charged %+v, want %d writes, the base pages it changed, and no AD page", got, changed)
	}
	if n := ad.NumPages(); n != 0 || db.hrs["r"].ADLen() != 0 {
		t.Errorf("after the fold the AD file holds %d pages and %d entries, want none", n, db.hrs["r"].ADLen())
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	agree("folded", db, "v", "q")
	rec, _, err := Recover(walDev.DurableDevice(), snapDev.DurableDevice(), DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	agree("recovered", rec, "v", "q")

	db.ResetStats()
	inserts(db, 2)
	if got, n := db.Breakdown()[PhaseCommitWrite], ad.NumPages(); n == 0 || got != (storage.Stats{Writes: int64(n)}) {
		t.Errorf("the next commit charged %+v, want %d writes (the AD pages it allocated) and no read", got, n)
	}
	for _, d := range []*Database{oracle, rec} {
		inserts(d, 2)
	}
	for _, d := range []*Database{db, oracle, rec} {
		changes(d, 2)
	}
	agree("next epoch", db, "q", "v")
	agree("recovered, next epoch", rec, "q", "v")
}
