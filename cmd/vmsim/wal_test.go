package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"viewmat/internal/core"
	"viewmat/internal/storage"
	"viewmat/internal/wal"
)

// TestWALThenRecover runs the -wal demo into a directory and the
// -recover path over what it left: the report names the chain it
// restored from, and the recovered engine answers the demo view exactly
// like an engine that ran the same seeded workload and never stopped.
func TestWALThenRecover(t *testing.T) {
	// Forty commits make the demo's last checkpoint a full rewrite (the
	// deltas since the last full frame outweigh two of it); four more end
	// the chain on a delta frame, which recovery must then apply.
	const ckptEvery, n, commits, perTx, seed = 4, 200, 44, 5, 1
	dir := t.TempDir()
	if err := runWAL(io.Discard, dir, ckptEvery, n, commits, perTx, seed); err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if err := runRecover(&report, dir, ckptEvery); err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`snapshot seq (\d+) \(full frame seq \d+ \+ (\d+) delta frames\), (\d+) records replayed`)
	m := line.FindStringSubmatch(report.String())
	if m == nil {
		t.Fatalf("recover report does not name its chain:\n%s", report.String())
	}
	if m[1] == "0" || m[2] == "0" {
		t.Errorf("recovered from snapshot seq %s + %s delta frames: the demo's checkpoints were not used\n%s", m[1], m[2], report.String())
	}

	oracle, err := demoWorkload(io.Discard, storage.NewFaultDisk(), storage.NewFaultDisk(), ckptEvery, n, commits, perTx, seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	if answers := fmt.Sprintf("view v answers with %d rows", len(want)); !bytes.Contains(report.Bytes(), []byte(answers)) {
		t.Errorf("recover report lacks %q:\n%s", answers, report.String())
	}
	walDev, snapDev, err := openDurableFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer walDev.Close()
	defer snapDev.Close()
	rec, _, err := core.Recover(walDev, snapDev, core.DurabilityOptions{CheckpointEvery: ckptEvery})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("recovered view has %d rows, the uninterrupted run %d; or they differ", len(got), len(want))
	}
}

// TestRecoverRefusesForeignSnapshot: a well-framed snapshot store whose
// frame body is not a snapshot of this version (here: what an older
// build would have written) is refused with the typed error.
func TestRecoverRefusesForeignSnapshot(t *testing.T) {
	dir := t.TempDir()
	dev, err := wal.OpenFile(filepath.Join(dir, snapFileName))
	if err != nil {
		t.Fatal(err)
	}
	store, err := wal.OpenSnapshotStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	oldBody := []byte("\x7f\xff\x81\x03\x01\x01\x0adbSnapshot\x01\xff\x82\x00\x01\x0c\x01\x07Version\x01\x04\x00")
	if err := store.Append(0, wal.FrameFull, oldBody); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	err = runRecover(&report, dir, 4)
	if !errors.Is(err, core.ErrSnapshotCorrupt) {
		t.Fatalf("err = %v, want ErrSnapshotCorrupt; report:\n%s", err, report.String())
	}
	if report.Len() != 0 {
		t.Errorf("a refused recovery reported:\n%s", report.String())
	}
}
