package core

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/wal"
)

// FuzzSnapshotChain hands Recover a hostile snapshot device and checks
// the contract damage can never break: it returns an engine or an error
// of a known class (no snapshot, a torn or corrupt frame, a truncated or
// corrupt snapshot) — never a panic, and never an allocation sized by
// the input's claims rather than its bytes. Random bytes rarely pass the
// frame checksum, so two further modes frame the input themselves: as
// the body of a delta frame after a valid full frame (reaching decode
// and DiskImage.Apply), and as the body of a lone full frame (reaching
// RestoreDisk and the catalog restore).
func FuzzSnapshotChain(f *testing.F) {
	const (
		modeDevice = iota
		modeDeltaBody
		modeFullBody
		modes
	)
	// Seeds come from a real store: full frame, then one delta per commit.
	walDev, snapDev := storage.NewFaultDisk(), storage.NewFaultDisk()
	db := newSPDatabase(f, Deferred, 20)
	if err := db.EnableDurability(walDev, snapDev, DurabilityOptions{CheckpointEvery: 1}); err != nil {
		f.Fatal(err)
	}
	size, err := snapDev.Size()
	if err != nil {
		f.Fatal(err)
	}
	fullOnly := make([]byte, size) // the store while it held the baseline frame alone
	if _, err := snapDev.ReadAt(fullOnly, 0); err != nil && !errors.Is(err, io.EOF) {
		f.Fatal(err)
	}
	for k := int64(15); k < 17; k++ {
		tx := db.Begin()
		if _, err := tx.Insert("r", tuple.I(k), tuple.I(1), tuple.S("x")); err != nil {
			f.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			f.Fatal(err)
		}
	}
	if size, err = snapDev.Size(); err != nil {
		f.Fatal(err)
	}
	img := make([]byte, size)
	if _, err := snapDev.ReadAt(img, 0); err != nil && !errors.Is(err, io.EOF) {
		f.Fatal(err)
	}
	store, err := wal.OpenSnapshotStore(snapDev.DurableDevice())
	if err != nil {
		f.Fatal(err)
	}
	frames, err := store.Chain()
	if err != nil || len(frames) != 3 {
		f.Fatalf("seed store: %d frames, %v; want full + 2 deltas", len(frames), err)
	}
	f.Add(img, uint8(modeDevice))
	f.Add(img[:len(img)-3], uint8(modeDevice))
	f.Add(img[len(fullOnly):], uint8(modeDevice)) // deltas with no full frame before them
	f.Add([]byte{}, uint8(modeDevice))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4}, uint8(modeDevice))
	f.Add(frames[1].Body, uint8(modeDeltaBody))
	f.Add(frames[2].Body, uint8(modeDeltaBody)) // a delta against the wrong base
	f.Add(frames[0].Body, uint8(modeDeltaBody)) // a full body under a delta kind
	f.Add(frames[0].Body, uint8(modeFullBody))
	f.Add(frames[1].Body, uint8(modeFullBody))
	// A well-formed full body whose view definition Def.Validate must
	// refuse: slot -1 used to index the schemas.
	hostile, disk, err := decodeSnapshot(frames[0].Body)
	if err != nil {
		f.Fatal(err)
	}
	hostile.views[0].vs.def.Pred = pred.New(pred.Cmp{Rel: -1}, pred.JoinEq{LRel: -1, RCol: 99})
	f.Add(encodeSnapshot(f, *hostile, disk), uint8(modeFullBody))

	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		var dev *storage.FaultDisk
		switch mode % modes {
		case modeDevice:
			dev = storage.NewFaultDiskBytes(data)
		case modeDeltaBody, modeFullBody:
			kind := wal.FrameFull
			dev = storage.NewFaultDisk()
			if mode%modes == modeDeltaBody {
				kind = wal.FrameDelta
				dev = storage.NewFaultDiskBytes(fullOnly)
			}
			s, err := wal.OpenSnapshotStore(dev)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Append(7, kind, data); err != nil {
				t.Fatal(err)
			}
		}
		rec, _, err := Recover(storage.NewFaultDisk(), dev, DurabilityOptions{})
		if err != nil {
			for _, class := range []error{wal.ErrNoSnapshot, wal.ErrTorn, wal.ErrCorrupt, ErrSnapshotTruncated, ErrSnapshotCorrupt} {
				if errors.Is(err, class) {
					return
				}
			}
			t.Fatalf("Recover failed outside the known classes: %v", err)
		}
		// Whatever was accepted must be a working engine.
		if err := rec.Save(io.Discard); err != nil {
			t.Fatalf("recovered engine cannot save: %v", err)
		}
	})
}

// FuzzWALRecord feeds arbitrary payloads to the WAL record decoder. It
// never panics, and the layout is canonical: whatever decodes encodes
// back to the same bytes.
func FuzzWALRecord(f *testing.F) {
	encode := func(rec *walRecord) []byte {
		enc := tuple.NewEncoder(nil).Compact()
		rec.code(&enc)
		b, err := enc.Done()
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	commit := encode(&walRecord{seq: 9, kind: recCommit, clockBefore: 40, clockAfter: 43, ops: []txOp{
		{kind: opInsert, rel: "r", vals: []tuple.Value{tuple.I(1), tuple.F(2.5), tuple.S("x")}, id: 41},
		{kind: opDelete, rel: "r", key: tuple.I(7), id: 12},
		{kind: opUpdate, rel: "r2", key: tuple.S("k"), id: 3, vals: []tuple.Value{tuple.S("k"), tuple.I(-1)}, newID: 42},
	}})
	f.Add(commit)
	f.Add(commit[:len(commit)-5])
	f.Add(append(bytes.Clone(commit), 0))
	f.Add(encode(&walRecord{seq: 10, kind: recRefresh, views: []string{"v"}, clockBefore: 43, clockAfter: 50}))
	f.Add([]byte{1, 9}) // seq 1, a kind that does not exist
	f.Add([]byte{})
	f.Add(encode(&walRecord{seq: 11, kind: recRefresh, views: []string{"c1", "c2"}, force: true, clockBefore: 118, clockAfter: 135}))
	for _, old := range retiredRefreshRecords {
		f.Add(old)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var rec walRecord
		dec := tuple.NewDecoder(data).Compact()
		rec.code(&dec)
		if _, err := dec.Done(); err != nil {
			return
		}
		enc := tuple.NewEncoder(nil).Compact()
		rec.code(&enc)
		if again, err := enc.Done(); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("record %+v re-encodes to %x (%v), decoded from %x", rec, again, err, data)
		}
	})
}

// retiredRefreshRecords are refresh records as the build before the
// one-unit record wrote them: kind 2 (seq 10, view "v", trigger 1,
// clocks 43 and 50) and kind 3 (seq 11, siblings "c1" and "c2", clocks
// 118 and 135).
var retiredRefreshRecords = [][]byte{
	{10, 2, 1, 'v', 1, 43, 50},
	{11, 3, 2, 2, 'c', '1', 2, 'c', '2', 118, 135, 1},
}

// TestRetiredRefreshKindsRefused: a log holding a refresh record of a
// retired kind ends at that record like any corrupt tail — it is never
// read as a unit of the new layout, so the view it names stays stale.
func TestRetiredRefreshKindsRefused(t *testing.T) {
	for _, old := range retiredRefreshRecords {
		var rec walRecord
		dec := tuple.NewDecoder(old).Compact()
		rec.code(&dec)
		if _, err := dec.Done(); err == nil {
			t.Fatalf("retired record %x decoded as %+v", old, rec)
		}

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
		// The commit is seq 1, so the old record's seq is past the snapshot.
		if err := db.dur.log.Append(old); err != nil {
			t.Fatal(err)
		}
		wd, sd, err := cleanReboot(walDev, snapDev)
		if err != nil {
			t.Fatal(err)
		}
		got, info, err := Recover(wd, sd, DurabilityOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if info.TailDamage != "corrupt" || info.Replayed != 1 {
			t.Errorf("record %x: info = %+v, want the commit replayed and a corrupt tail", old, info)
		}
		if stale, err := got.ViewIsStale("v"); err != nil || !stale {
			t.Errorf("record %x: view stale = %v, %v after recovery; the retired record was applied", old, stale, err)
		}
	}
}

// TestRecoverReopensBeforeUndecodableRecord: a record that passes its
// checksum but does not decode ends replay, and the recovered log
// continues where replay stopped, over that record: a commit made after
// the recovery is replayed by the next one instead of lying unread
// behind the record that stopped it.
func TestRecoverReopensBeforeUndecodableRecord(t *testing.T) {
	walDev, snapDev := storage.NewFaultDisk(), storage.NewFaultDisk()
	db := newSPDatabase(t, Deferred, 20)
	if err := db.EnableDurability(walDev, snapDev, DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := insertKey(db, 15); err != nil {
		t.Fatal(err)
	}
	if err := db.dur.log.Append(retiredRefreshRecords[0]); err != nil {
		t.Fatal(err)
	}
	wd, sd, err := cleanReboot(walDev, snapDev)
	if err != nil {
		t.Fatal(err)
	}
	rec, info, err := Recover(wd, sd, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.TailDamage != "corrupt" || info.Replayed != 1 {
		t.Fatalf("first recovery %+v, want the commit replayed and a corrupt tail", info)
	}
	if err := insertKey(rec, 16); err != nil {
		t.Fatal(err)
	}
	again, info, err := Recover(wd.DurableDevice(), sd.DurableDevice(), DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.TailDamage != "" || info.Replayed != 2 {
		t.Errorf("second recovery %+v, want both commits replayed and a clean end", info)
	}
	want, err := rec.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := again.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "recovered after a commit over the undecodable record", got, want)
}
