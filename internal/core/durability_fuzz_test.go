package core

import (
	"errors"
	"io"
	"testing"

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
