package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/frame"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/wal"
)

// TestRecoverFidelityMeterUnchanged pins the cost-model fidelity
// argument: the WAL and snapshot devices live outside the metered
// simulated disk, so running the identical workload with durability on
// and off yields byte-identical meter totals and per-phase breakdowns.
// (Every phase writes back the pages it dirtied when it closes, so a
// checkpoint's flush finds none left to charge.)
func TestRecoverFidelityMeterUnchanged(t *testing.T) {
	fx := model1Fx()
	rng := rand.New(rand.NewSource(77))
	steps, _ := genScript(rng, fx.keyStream(rng), 1, churn(8)...)

	run := func(withWAL bool) (storage.Stats, map[Phase]storage.Stats, []ResultRow, error) {
		e, err := fx.build(&engineConfig{strategy: Deferred, wal: withWAL, ckptEvery: 3})
		if err != nil {
			return storage.Stats{}, nil, nil, err
		}
		db := e.db
		// Every operation wrote its pages back as it ended, with the WAL
		// or without: zero the meters.
		db.ResetStats()
		for _, s := range steps {
			if err := e.apply(fx, s); err != nil {
				return storage.Stats{}, nil, nil, err
			}
		}
		rows, err := db.QueryView("v", nil)
		if err != nil {
			return storage.Stats{}, nil, nil, err
		}
		return db.Meter().Snapshot(), db.Breakdown(), rows, nil
	}

	offStats, offBD, offRows, err := run(false)
	if err != nil {
		t.Fatalf("WAL-off run: %v", err)
	}
	onStats, onBD, onRows, err := run(true)
	if err != nil {
		t.Fatalf("WAL-on run: %v", err)
	}
	if onStats != offStats {
		t.Errorf("meter totals diverge with durability on:\n  off %+v\n  on  %+v", offStats, onStats)
	}
	phases := map[Phase]bool{}
	for p := range offBD {
		phases[p] = true
	}
	for p := range onBD {
		phases[p] = true
	}
	for p := range phases {
		if onBD[p] != offBD[p] {
			t.Errorf("phase %v diverges: off %+v, on %+v", p, offBD[p], onBD[p])
		}
	}
	if err := diffRows(onRows, offRows); err != nil {
		t.Errorf("view answers diverge with durability on: %v", err)
	}
}

// TestRecoverSkipsRecordsOlderThanSnapshot rebuilds the state a crash
// between a checkpoint's snapshot sync and its log reset leaves
// behind: the log still holds records the snapshot already covers.
// Recovery must skip them by sequence number, not replay them twice.
func TestRecoverSkipsRecordsOlderThanSnapshot(t *testing.T) {
	walDev, snapDev := storage.NewFaultDisk(), storage.NewFaultDisk()
	db := newSPDatabase(t, Deferred, 20)
	if err := db.EnableDurability(walDev, snapDev, DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		tx := db.Begin()
		if _, err := tx.Insert("r", tuple.I(int64(50+i)), tuple.I(1), tuple.S("x")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Capture the WAL as it is with both records present...
	staleWAL := walDev.DurableDevice()
	// ...then checkpoint, whose snapshot now covers those records.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rec, info, err := Recover(staleWAL, snapDev.DurableDevice(), DurabilityOptions{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if info.Skipped != 2 || info.Replayed != 0 {
		t.Errorf("skipped %d replayed %d, want 2 skipped 0 replayed", info.Skipped, info.Replayed)
	}
	// The image is the baseline full frame (seq 0) plus the explicit
	// checkpoint's delta, and covers both records.
	if info.SnapshotSeq != 2 || info.FullSeq != 0 || info.Deltas != 1 {
		t.Errorf("chain: snapshot seq %d, full seq %d, %d deltas; want 2, 0, 1", info.SnapshotSeq, info.FullSeq, info.Deltas)
	}
	want, err := db.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "recovered with stale records", got, want)
}

// TestRecoverReportsTailDamage checks RecoverInfo distinguishes a torn
// tail from a corrupt one, and that damage costs only the damaged
// suffix.
func TestRecoverReportsTailDamage(t *testing.T) {
	build := func(t *testing.T) (*storage.FaultDisk, *storage.FaultDisk, *Database) {
		walDev, snapDev := storage.NewFaultDisk(), storage.NewFaultDisk()
		db := newSPDatabase(t, Deferred, 20)
		if err := db.EnableDurability(walDev, snapDev, DurabilityOptions{}); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		if _, err := tx.Insert("r", tuple.I(15), tuple.I(1), tuple.S("x")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return walDev, snapDev, db
	}

	t.Run("torn", func(t *testing.T) {
		walDev, snapDev, db := build(t)
		wd := walDev.DurableDevice()
		size, _ := wd.Size()
		// Half a frame header of a never-synced append.
		if _, err := wd.WriteAt([]byte{40, 0, 0, 0, 9, 9}, size); err != nil {
			t.Fatal(err)
		}
		if err := wd.Sync(); err != nil {
			t.Fatal(err)
		}
		rec, info, err := Recover(wd, snapDev.DurableDevice(), DurabilityOptions{})
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if info.TailDamage != "torn" || info.Replayed != 1 {
			t.Errorf("info = %+v, want 1 replayed with torn tail", info)
		}
		want, _ := db.QueryView("v", nil)
		got, err := rec.QueryView("v", nil)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "recovered before torn tail", got, want)
	})

	t.Run("corrupt", func(t *testing.T) {
		walDev, snapDev, db := build(t)
		wd := walDev.DurableDevice()
		size, _ := wd.Size()
		// Flip a byte inside the last record's payload.
		if _, err := wd.WriteAt([]byte{0xee}, size-3); err != nil {
			t.Fatal(err)
		}
		if err := wd.Sync(); err != nil {
			t.Fatal(err)
		}
		rec, info, err := Recover(wd, snapDev.DurableDevice(), DurabilityOptions{})
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if info.TailDamage != "corrupt" || info.Replayed != 0 {
			t.Errorf("info = %+v, want 0 replayed with corrupt tail", info)
		}
		// The corrupt record held the only commit; recovery falls back
		// to the baseline snapshot: 20 seed rows, none at k=15 twice.
		got, err := rec.QueryView("v", nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := db.QueryView("v", nil)
		if len(got) != len(want)-1 {
			t.Errorf("recovered %d rows, want %d (commit in the corrupt tail must be dropped)", len(got), len(want)-1)
		}
	})
}

// TestRecoverReplaysForcedRefreshes covers the two refresh-record kinds
// the sweep's catalog cannot host (snapshot views may not share a base
// with deferred views): a forced snapshot recompute and an idle-time
// deferred refresh, both straddled by commits so replay order matters.
func TestRecoverReplaysForcedRefreshes(t *testing.T) {
	walDev, snapDev := storage.NewFaultDisk(), storage.NewFaultDisk()
	db := newSPDatabase(t, Snapshot, 25)
	if err := db.SetSnapshotInterval("v", 1000); err != nil { // huge budget: only forced refreshes run
		t.Fatal(err)
	}
	if err := db.EnableDurability(walDev, snapDev, DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := tx.Insert("r", tuple.I(15), tuple.I(1), tuple.S("in")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.RefreshSnapshot("v"); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	if _, err := tx.Insert("r", tuple.I(16), tuple.I(1), tuple.S("after")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	rec, info, err := Recover(walDev.DurableDevice(), snapDev.DurableDevice(), DurabilityOptions{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if info.Replayed != 3 {
		t.Errorf("replayed %d records, want 3 (commit, forced refresh, commit)", info.Replayed)
	}
	s, err := rec.SnapshotStaleness("v")
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Errorf("recovered staleness %d, want 1 (refresh replayed between the commits)", s)
	}
	// Within its staleness budget the snapshot view serves the copy as
	// of the forced refresh: k=15 present, k=16 not yet.
	rows, err := rec.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "recovered snapshot view", rows, want)
	// 15 in-predicate seeds + the k=15 commit; the k=16 commit landed
	// after the replayed refresh and stays invisible within the budget.
	if len(rows) != 16 {
		t.Errorf("snapshot view has %d rows, want 16", len(rows))
	}

	// RefreshDeferredNow on a separate engine.
	walDev2, snapDev2 := storage.NewFaultDisk(), storage.NewFaultDisk()
	db2 := newSPDatabase(t, Deferred, 25)
	if err := db2.EnableDurability(walDev2, snapDev2, DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	tx = db2.Begin()
	if _, err := tx.Insert("r", tuple.I(17), tuple.I(1), tuple.S("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db2.RefreshDeferredNow("v"); err != nil {
		t.Fatal(err)
	}
	wd2, sd2, err := cleanReboot(walDev2, snapDev2)
	if err != nil {
		t.Fatal(err)
	}
	rec2, _, err := Recover(wd2, sd2, DurabilityOptions{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	h, ok := rec2.HR("r")
	if !ok {
		t.Fatal("recovered engine lost the HR")
	}
	if h.ADLen() != 0 {
		t.Errorf("AD has %d entries after replaying the idle refresh, want 0", h.ADLen())
	}
	rows2, err := rec2.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 16 {
		t.Errorf("deferred view has %d rows, want 16", len(rows2))
	}
}

// TestRecoverContinuesOnRealFiles runs enable → work → reboot →
// recover → more work on the file-backed WAL device, the shape vmsim
// -wal uses.
func TestRecoverContinuesOnRealFiles(t *testing.T) {
	dir := t.TempDir()
	walDev, err := wal.OpenFile(dir + "/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	snapDev, err := wal.OpenFile(dir + "/snap.log")
	if err != nil {
		t.Fatal(err)
	}
	db := newSPDatabase(t, Immediate, 20)
	if err := db.EnableDurability(walDev, snapDev, DurabilityOptions{CheckpointEvery: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tx := db.Begin()
		if _, err := tx.Insert("r", tuple.I(int64(11+i)), tuple.I(1), tuple.S("x")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	want, err := db.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := walDev.Close(); err != nil {
		t.Fatal(err)
	}
	if err := snapDev.Close(); err != nil {
		t.Fatal(err)
	}

	walDev2, err := wal.OpenFile(dir + "/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	defer walDev2.Close()
	snapDev2, err := wal.OpenFile(dir + "/snap.log")
	if err != nil {
		t.Fatal(err)
	}
	defer snapDev2.Close()
	rec, _, err := Recover(walDev2, snapDev2, DurabilityOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatalf("Recover from files: %v", err)
	}
	got, err := rec.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "file-backed recovery", got, want)
	tx := rec.Begin()
	if _, err := tx.Insert("r", tuple.I(14), tuple.I(2), tuple.S("y")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("post-recovery commit on files: %v", err)
	}
}

// TestEnableDurabilityRejectsDoubleEnable pins the API contract and
// checks a failed enable leaves the engine usable without a WAL.
func TestEnableDurabilityRejectsDoubleEnable(t *testing.T) {
	db := newSPDatabase(t, Immediate, 10)
	if err := db.EnableDurability(storage.NewFaultDisk(), storage.NewFaultDisk(), DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableDurability(storage.NewFaultDisk(), storage.NewFaultDisk(), DurabilityOptions{}); err == nil {
		t.Error("double enable accepted")
	}

	db2 := newSPDatabase(t, Immediate, 10)
	bad := storage.NewFaultDisk()
	bad.FailSync(1, errors.New("boom"))
	if err := db2.EnableDurability(storage.NewFaultDisk(), bad, DurabilityOptions{}); err == nil {
		t.Fatal("enable with a failing snapshot device succeeded")
	}
	if db2.DurabilityEnabled() {
		t.Error("failed enable left durability attached")
	}
	tx := db2.Begin()
	if _, err := tx.Insert("r", tuple.I(15), tuple.I(1), tuple.S("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Errorf("engine unusable after failed enable: %v", err)
	}
}

// TestRecoverAggregateView replays commits over an aggregate and
// checks the folded value, covering the aggregate page in the replay
// path end to end.
func TestRecoverAggregateView(t *testing.T) {
	walDev, snapDev := storage.NewFaultDisk(), storage.NewFaultDisk()
	db := newAggDatabase(t, Deferred, agg.Sum, 30)
	if err := db.EnableDurability(walDev, snapDev, DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := tx.Insert("r", tuple.I(15), tuple.I(1000), tuple.S("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want, wantOK, err := db.QueryAggregate("sumv")
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := Recover(walDev.DurableDevice(), snapDev.DurableDevice(), DurabilityOptions{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	got, ok, err := rec.QueryAggregate("sumv")
	if err != nil {
		t.Fatal(err)
	}
	if ok != wantOK || math.Abs(got-want) > 1e-9 {
		t.Errorf("recovered aggregate = %v (defined=%v), want %v (defined=%v)", got, ok, want, wantOK)
	}
}

// TestRefreshRecordRidesNextSync: a query-triggered refresh logs its
// record without a sync of its own. A power cut before the next sync
// loses the record and nothing else — the recovered view is stale, its
// answer the same — and the record is durable once any later sync
// covers it, whichever commit led that sync: the next commit's own, or
// one already in flight when the record was appended, led by a commit
// whose record came first.
func TestRefreshRecordRidesNextSync(t *testing.T) {
	walDev, snapDev := storage.NewFaultDisk(), storage.NewFaultDisk()
	db := newSPDatabase(t, Deferred, 25)
	if err := db.EnableDurability(walDev, snapDev, DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	commit := func(k int64) {
		t.Helper()
		tx := db.Begin()
		if _, err := tx.Insert("r", tuple.I(k), tuple.I(1), tuple.S("x")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit(15)
	syncs, writes := walDev.Syncs(), walDev.Writes()
	want, err := db.QueryView("v", nil) // refreshes: AD folded, record appended
	if err != nil {
		t.Fatal(err)
	}
	if got := walDev.Syncs(); got != syncs {
		t.Fatalf("the query-triggered refresh synced the WAL %d times, want 0", got-syncs)
	}

	rec, info, err := Recover(walDev.DurableDevice(), snapDev.DurableDevice(), DurabilityOptions{})
	if err != nil {
		t.Fatalf("Recover after power cut: %v", err)
	}
	t.Cleanup(func() { rec.assertUnpinned(t) })
	if info.Replayed != 1 {
		t.Errorf("replayed %d records, want the commit alone", info.Replayed)
	}
	if h, _ := rec.HR("r"); h.ADLen() == 0 {
		t.Error("recovered view is fresh: the unsynced refresh record survived the power cut")
	}
	got, err := rec.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "stale recovered view", got, want)

	commit(16)
	rec2, info2, err := Recover(walDev.DurableDevice(), snapDev.DurableDevice(), DurabilityOptions{})
	if err != nil {
		t.Fatalf("Recover after the next commit: %v", err)
	}
	t.Cleanup(func() { rec2.assertUnpinned(t) })
	if info2.Replayed != 3 {
		t.Errorf("replayed %d records, want commit, refresh, commit", info2.Replayed)
	}
	var live, recovered bytes.Buffer
	if err := db.Save(&live); err != nil {
		t.Fatal(err)
	}
	if err := rec2.Save(&recovered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recovered.Bytes(), live.Bytes()) {
		t.Error("recovered engine differs from the live one once the refresh record was synced")
	}

	// Commit 17 leads a sync that is held; meanwhile a query refreshes v
	// and appends its record behind 17's. The one sync covers both.
	syncs, writes = walDev.Syncs(), walDev.Writes()
	held, release := walDev.HoldSyncs()
	defer release()
	a := goInsertKey(db, 17)
	<-held
	q := make(chan error, 1)
	go func() {
		_, err := db.QueryView("v", nil)
		q <- err
	}()
	waitFor(t, "the refresh record's append", func() bool { return walDev.Writes() > writes+1 })
	release()
	if err := <-a; err != nil {
		t.Fatal(err)
	}
	if err := <-q; err != nil {
		t.Fatal(err)
	}
	if got := walDev.Syncs() - syncs; got != 1 {
		t.Errorf("commit 17 and the refresh behind it took %d syncs, want the one commit 17 led", got)
	}
	rec3, info3, err := Recover(walDev.DurableDevice(), snapDev.DurableDevice(), DurabilityOptions{})
	if err != nil {
		t.Fatalf("Recover after the shared sync: %v", err)
	}
	t.Cleanup(func() { rec3.assertUnpinned(t) })
	if info3.Replayed != 5 {
		t.Errorf("replayed %d records, want commit, refresh, commit, commit, refresh", info3.Replayed)
	}
	live.Reset()
	recovered.Reset()
	if err := db.Save(&live); err != nil {
		t.Fatal(err)
	}
	if err := rec3.Save(&recovered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recovered.Bytes(), live.Bytes()) {
		t.Error("recovered engine differs from the live one after a sync another commit led covered the refresh record")
	}
}

// TestCheckpointWriteErrorKeepsChanges: a checkpoint whose frame fails
// to reach the device (the write, or its sync) must leave the log
// alone, so that a crash right after it loses nothing, and the next
// checkpoint must be a full frame, since the disk already forgot what
// the failed frame carried and a delta against it could not be applied.
// The checkpoint is an explicit one, or the frame a commit crossing
// CheckpointEvery writes after releasing the engine lock; that commit
// reports the failure. Run on the fault-injecting in-memory device and
// on real files.
func TestCheckpointWriteErrorKeepsChanges(t *testing.T) {
	boom := errors.New("boom")
	// faultDevice is what FaultDisk and wal.FileDevice share.
	type faultDevice interface {
		storage.Device
		FailWriteAt(call int, err error)
		FailSync(call int, err error)
	}
	type rig struct {
		wal    storage.Device
		snap   faultDevice
		reboot func(t *testing.T) (storage.Device, storage.Device) // devices as a restart finds them
	}
	onFaultDisks := func(t *testing.T) rig {
		w, s := storage.NewFaultDisk(), storage.NewFaultDisk()
		return rig{wal: w, snap: s, reboot: func(*testing.T) (storage.Device, storage.Device) {
			return w.DurableDevice(), s.DurableDevice()
		}}
	}
	onFiles := func(t *testing.T) rig {
		open := func(path string) *wal.FileDevice {
			d, err := wal.OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		}
		dir := t.TempDir()
		return rig{wal: open(dir + "/wal.log"), snap: open(dir + "/snap.log"), reboot: func(t *testing.T) (storage.Device, storage.Device) {
			// Recover on copies: the live engine keeps the originals.
			cp := t.TempDir()
			for _, name := range []string{"wal.log", "snap.log"} {
				b, err := os.ReadFile(dir + "/" + name)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(cp+"/"+name, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			return open(cp + "/wal.log"), open(cp + "/snap.log")
		}}
	}
	for _, c := range []struct {
		name      string
		rig       func(*testing.T) rig
		failWrite bool
		// byCommit has a commit write the checkpoints (CheckpointEvery 2)
		// instead of Checkpoint.
		byCommit bool
	}{
		{"faultdisk/write", onFaultDisks, true, false},
		{"faultdisk/sync", onFaultDisks, false, false},
		{"files/write", onFiles, true, false},
		{"files/sync", onFiles, false, false},
		{"faultdisk/write/commit", onFaultDisks, true, true},
		{"faultdisk/sync/commit", onFaultDisks, false, true},
		{"files/write/commit", onFiles, true, true},
		{"files/sync/commit", onFiles, false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := c.rig(t)
			// Enough rows for many leaves: the commits below land on
			// different pages, so the retried frame is only complete if it
			// still holds what the failed one did.
			db := newSPDatabase(t, Immediate, 400)
			opts := DurabilityOptions{}
			if c.byCommit {
				opts.CheckpointEvery = 2
			}
			// The baseline full frame is the snapshot device's first write
			// and first sync; the checkpoint below is its second of each.
			if err := db.EnableDurability(r.wal, r.snap, opts); err != nil {
				t.Fatal(err)
			}
			tryCommit := func(k int64) error {
				t.Helper()
				tx := db.Begin()
				if _, err := tx.Insert("r", tuple.I(k), tuple.I(1), tuple.S("x")); err != nil {
					t.Fatal(err)
				}
				return tx.Commit()
			}
			commit := func(k int64) {
				t.Helper()
				if err := tryCommit(k); err != nil {
					t.Fatal(err)
				}
			}
			// checkpoint checkpoints explicitly, or commits the key k,
			// the commit that crosses CheckpointEvery.
			checkpoint := func(k int64) error {
				t.Helper()
				if c.byCommit {
					return tryCommit(k)
				}
				return db.Checkpoint()
			}
			recoverEqualsLive := func(stage string, wantDeltas int) {
				t.Helper()
				var live, got bytes.Buffer
				if err := db.Save(&live); err != nil {
					t.Fatal(err)
				}
				wd, sd := r.reboot(t)
				rec, info, err := Recover(wd, sd, DurabilityOptions{})
				if err != nil {
					t.Fatalf("%s: Recover: %v", stage, err)
				}
				t.Cleanup(func() { rec.assertUnpinned(t) })
				if info.Deltas != wantDeltas {
					t.Errorf("%s: recovered through %d delta frames, want %d", stage, info.Deltas, wantDeltas)
				}
				if err := rec.Save(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), live.Bytes()) {
					t.Errorf("%s: recovered engine differs from the live one (%d vs %d bytes)", stage, got.Len(), live.Len())
				}
			}

			commit(5000)
			if c.failWrite {
				r.snap.FailWriteAt(2, boom)
			} else {
				r.snap.FailSync(2, boom)
			}
			if err := checkpoint(-3); !errors.Is(err, boom) {
				t.Fatalf("checkpoint with a failing snapshot device: %v, want boom", err)
			}
			recoverEqualsLive("right after the failed checkpoint", 0)
			commit(-7)
			if err := checkpoint(-8); err != nil {
				t.Fatalf("retried checkpoint: %v", err)
			}
			if kinds := snapshotFrameKinds(t, r.snap); kinds[len(kinds)-1] != wal.FrameFull {
				t.Errorf("frames %v: the one after a failed frame must be full", kinds)
			}
			commit(200)
			recoverEqualsLive("after the retried checkpoint", 0)
		})
	}
}

// walSeqs returns the seqs of the records a reader of dev meets before
// whatever ends the read.
func walSeqs(t *testing.T, dev storage.Device) []uint64 {
	t.Helper()
	r, err := wal.NewReader(dev)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for {
		payload, err := r.Next()
		if err != nil {
			return seqs
		}
		var rec walRecord
		dec := tuple.NewDecoder(payload).Compact()
		rec.code(&dec)
		if _, err := dec.Done(); err != nil {
			t.Fatalf("record %d: %v", len(seqs), err)
		}
		seqs = append(seqs, rec.seq)
	}
}

// deviceBytes returns everything dev holds.
func deviceBytes(t *testing.T, dev storage.Device) []byte {
	t.Helper()
	size, err := dev.Size()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, size)
	if _, err := dev.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCrashBetweenResetAndSync: a power cut after a checkpoint rewound
// the log and before the next commit's sync recovers the checkpoint's
// state, whatever prefix of that commit's append (its frame and the
// zero header behind it, written over the frames the rewind made stale)
// survives: the commit was never acknowledged. Only a prefix holding
// the whole frame replays it.
func TestCrashBetweenResetAndSync(t *testing.T) {
	build := func(t *testing.T) (*Database, *storage.FaultDisk, *storage.FaultDisk) {
		walDev, snapDev := storage.NewFaultDisk(), storage.NewFaultDisk()
		db := newSPDatabase(t, Immediate, 20)
		if err := db.EnableDurability(walDev, snapDev, DurabilityOptions{}); err != nil {
			t.Fatal(err)
		}
		for k := int64(20); k < 24; k++ {
			if err := insertKey(db, k); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if off := db.dur.log.Offset(); off != 0 {
			t.Fatalf("the checkpoint left the log's tail at %d, want 0", off)
		}
		return db, walDev, snapDev
	}
	ref, _, _ := build(t)
	before, err := ref.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := insertKey(ref, 24); err != nil {
		t.Fatal(err)
	}
	after, err := ref.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	frameLen := int(ref.dur.log.Offset())
	for _, torn := range []int{0, 1, 7, 8, 9, frameLen - 1, frameLen, frameLen + 3, frameLen + 8} {
		db, walDev, snapDev := build(t)
		walDev.CrashAtSync(walDev.Syncs()+1, torn)
		if err := insertKey(db, 24); !errors.Is(err, storage.ErrCrashed) {
			t.Fatalf("torn %d: the commit returned %v, want a crash", torn, err)
		}
		rec, info, err := Recover(walDev.DurableDevice(), snapDev.DurableDevice(), DurabilityOptions{})
		if err != nil {
			t.Fatalf("torn %d: Recover: %v", torn, err)
		}
		want, replayed := before, 0
		if torn >= frameLen {
			want, replayed = after, 1
		}
		if info.SnapshotSeq != 4 || info.Replayed != replayed {
			t.Errorf("torn %d of a %d-byte frame: %+v, want snapshot seq 4 and %d replayed", torn, frameLen, info, replayed)
		}
		got, err := rec.QueryView("v", nil)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, fmt.Sprintf("torn %d: recovered view", torn), got, want)
		if err := insertKey(rec, 25); err != nil {
			t.Fatalf("torn %d: commit after recovery: %v", torn, err)
		}
	}
}

// rewoundLog is an engine whose log a checkpoint covering seqs 1–3
// rewound, and which then committed seqs 4 and 5 over the stale frames.
// It returns the durable log from before the checkpoint (seq 1's frame
// first) and the offsets where seqs 4 and 5 end.
func rewoundLog(t *testing.T) (db *Database, walDev, snapDev *storage.FaultDisk, old []byte, ends [2]int64) {
	t.Helper()
	walDev, snapDev = storage.NewFaultDisk(), storage.NewFaultDisk()
	db = newSPDatabase(t, Immediate, 20)
	if err := db.EnableDurability(walDev, snapDev, DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	for k := int64(20); k < 23; k++ {
		if err := insertKey(db, k); err != nil {
			t.Fatal(err)
		}
	}
	old = deviceBytes(t, walDev.DurableDevice())
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := range ends {
		if err := insertKey(db, int64(23+i)); err != nil {
			t.Fatal(err)
		}
		ends[i] = db.dur.log.Offset()
	}
	return db, walDev, snapDev, old, ends
}

// firstFrame returns the first frame of a log image.
func firstFrame(img []byte) []byte { return img[:frame.HeaderSize+binary.LittleEndian.Uint32(img)] }

// TestRecoverEndsAtStaleFrame: a power cut can tear off the zero header
// behind a record of a rewound log and leave a stale frame starting
// exactly where that record ends. Recovery ends the log at the stale
// frame, whose seq does not exceed the record's: it neither replays nor
// skips it, and reports no damage. The log reopens there, so the next
// commit's append lands over the stale frame and hides what follows.
func TestRecoverEndsAtStaleFrame(t *testing.T) {
	db, walDev, snapDev, old, ends := rewoundLog(t)
	end := ends[1]
	img := append(deviceBytes(t, walDev.DurableDevice())[:end:end], firstFrame(old)...)
	wd := storage.NewFaultDiskBytes(img)
	rec, info, err := Recover(wd, snapDev.DurableDevice(), DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSeq != 3 || info.Replayed != 2 || info.Skipped != 0 || info.TailDamage != "" {
		t.Errorf("recovered %+v; want snapshot seq 3, 2 replayed, none skipped, a clean end", info)
	}
	if off := rec.dur.log.Offset(); off != end {
		t.Errorf("the recovered log reopened at %d, want %d where its records end", off, end)
	}
	for _, d := range []*Database{db, rec} {
		if err := insertKey(d, 25); err != nil {
			t.Fatal(err)
		}
	}
	if seqs := walSeqs(t, wd.DurableDevice()); fmt.Sprint(seqs) != "[4 5 6]" {
		t.Errorf("after the next commit the log reads seqs %v, want [4 5 6]", seqs)
	}
	rec2, info, err := Recover(wd.DurableDevice(), snapDev.DurableDevice(), DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 3 || info.TailDamage != "" {
		t.Errorf("second recovery %+v; want 3 replayed and a clean end", info)
	}
	want, err := db.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec2.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "recovered over a stale frame", got, want)
}

// TestRecoverStopsAtSeqGap: an overwrite is not a prefix of its writes
// on every device. If a crash keeps a later record of a rewound log and
// loses the one before it, and a stale frame happens to end where the
// kept record starts, the kept record follows the stale frame with a seq
// past the next. Recovery must not replay it over the state that lacks
// its predecessor: the log ends there, as at a torn record.
func TestRecoverStopsAtSeqGap(t *testing.T) {
	_, walDev, snapDev, old, ends := rewoundLog(t)
	stale := firstFrame(old)
	kept := deviceBytes(t, walDev.DurableDevice())[ends[0]:ends[1]] // seq 5's frame
	img := append(append([]byte(nil), stale...), kept...)
	rec, info, err := Recover(storage.NewFaultDiskBytes(img), snapDev.DurableDevice(), DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSeq != 3 || info.Skipped != 1 || info.Replayed != 0 || info.TailDamage != "torn" {
		t.Errorf("recovered %+v; want snapshot seq 3, the stale frame skipped, nothing replayed, a torn end", info)
	}
	if off := rec.dur.log.Offset(); off != int64(len(stale)) {
		t.Errorf("the recovered log reopened at %d, want %d", off, len(stale))
	}
	// The checkpoint's state: the snapshot with an empty log.
	ckpt, _, err := Recover(storage.NewFaultDisk(), snapDev.DurableDevice(), DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ckpt.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "recovered over a lost record", got, want)
}
