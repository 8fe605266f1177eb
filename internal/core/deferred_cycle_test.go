package core

import (
	"testing"

	"viewmat/internal/colpage"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// TestDeferredCycleSkipsEmptyDifferentials: a deferred refresh of Model-2
// join views after an epoch that updated only R1 reads and folds R1's
// differential file alone. With the pool emptied before it, the refresh's
// AD read charges exactly R1's AD pages that hold entries, and every page
// of R2's AD file is still cold afterwards: the refresh neither read nor
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
	if err := db.pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
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
	if err := db.RefreshDeferredNow(fanViews[0]); err != nil {
		t.Fatal(err)
	}
	if got := db.Breakdown()[PhaseADRead]; got.Reads != int64(holding) || got.Writes != 0 {
		t.Errorf("ad-read charged %+v, want %d reads (R1's AD pages that hold entries) and no write", got, holding)
	}
	if got := db.ADScanCount(); got != 1 {
		t.Errorf("the refresh read %d AD files, want 1 (R1's)", got)
	}
	before := db.meter.Snapshot().Reads
	for pn := storage.PageNum(0); pn < r2AD.Extent(); pn++ {
		if err := db.pool.Read(r2AD, pn, func([]byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if cold := db.meter.Snapshot().Reads - before; cold != int64(r2AD.Extent()) {
		t.Errorf("%d of R2's %d AD pages were cold after the refresh, want all: it touched R2's AD file", cold, r2AD.Extent())
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
