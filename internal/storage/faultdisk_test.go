package storage

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func mustWrite(t *testing.T, d *FaultDisk, p []byte, off int64) {
	t.Helper()
	if _, err := d.WriteAt(p, off); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
}

func durableBytes(t *testing.T, d *FaultDisk) []byte {
	t.Helper()
	surv := d.DurableDevice()
	size, err := surv.Size()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, size)
	if size > 0 {
		if _, err := surv.ReadAt(b, 0); err != nil && !errors.Is(err, io.EOF) {
			t.Fatal(err)
		}
	}
	return b
}

func TestFaultDiskSyncSemantics(t *testing.T) {
	d := NewFaultDisk()
	mustWrite(t, d, []byte("abc"), 0)
	// Unsynced writes are readable but not durable.
	got := make([]byte, 3)
	if _, err := d.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("cache read %q", got)
	}
	if b := durableBytes(t, d); len(b) != 0 {
		t.Fatalf("unsynced bytes leaked into durable image: %q", b)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if b := durableBytes(t, d); string(b) != "abc" {
		t.Fatalf("durable after sync = %q", b)
	}
}

func TestFaultDiskCrashKeepsTornPrefix(t *testing.T) {
	d := NewFaultDisk()
	mustWrite(t, d, []byte("base"), 0)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, d, []byte("XY"), 4)
	mustWrite(t, d, []byte("Z"), 6)
	d.CrashNow(1) // keep only the first byte written since the sync
	if !d.Crashed() {
		t.Fatal("not crashed")
	}
	if _, err := d.WriteAt([]byte("w"), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash: %v", err)
	}
	if b := durableBytes(t, d); string(b) != "baseX" {
		t.Fatalf("survivor = %q, want %q", b, "baseX")
	}
}

// TestFaultDiskCrashSectors: a sector crash keeps the pending sectors
// the mask picks, each with the cache's last bytes there, whatever order
// they were written in, and leaves the others as synced: a lost sector
// past the synced end reads as zeros before a kept one.
func TestFaultDiskCrashSectors(t *testing.T) {
	fill := func(c byte, n int) []byte { return bytes.Repeat([]byte{c}, n) }
	d := NewFaultDisk()
	mustWrite(t, d, fill('s', SectorSize+10), 0) // sectors 0 and 1, synced
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, d, fill('c', 3*SectorSize), SectorSize) // sectors 1–3
	mustWrite(t, d, fill('a', 4), 0)                     // sector 0, written last
	mustWrite(t, d, fill('b', 4), 2*SectorSize)          // sector 2 again
	d.CrashSectors(0b1011)                               // keep the 1st, 2nd and 4th touched: 0, 1, 3
	want := append(append(append(append(fill('a', 4), fill('s', SectorSize-4)...),
		fill('c', SectorSize)...), fill(0, SectorSize)...), fill('c', SectorSize)...)
	if b := durableBytes(t, d); !bytes.Equal(b, want) {
		t.Fatalf("survivor of %d bytes differs from the %d bytes sectors 0, 1 and 3 of the cache over the synced image make", len(b), len(want))
	}
	if _, err := d.WriteAt([]byte("w"), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash: %v", err)
	}
}

func TestFaultDiskInjectedFaults(t *testing.T) {
	boom := errors.New("boom")
	d := NewFaultDisk()
	d.FailWriteAt(2, boom)
	d.TornWriteAt(3, 2)
	d.FailSync(2, boom)

	mustWrite(t, d, []byte("ok"), 0)
	if _, err := d.WriteAt([]byte("no"), 2); !errors.Is(err, boom) {
		t.Fatalf("write 2: %v", err)
	}
	n, err := d.WriteAt([]byte("torn"), 2)
	if n != 2 || !errors.Is(err, ErrInjectedTorn) {
		t.Fatalf("write 3: n=%d err=%v", n, err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if b := durableBytes(t, d); string(b) != "okto" {
		t.Fatalf("durable = %q, want %q", b, "okto")
	}
	if err := d.Sync(); !errors.Is(err, boom) {
		t.Fatalf("sync 2: %v", err)
	}
}

func TestFaultDiskCrashAtSync(t *testing.T) {
	d := NewFaultDisk()
	d.CrashAtSync(2, 0)
	mustWrite(t, d, []byte("one"), 0)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, d, []byte("two"), 3)
	if err := d.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync 2: %v, want ErrCrashed", err)
	}
	if b := durableBytes(t, d); string(b) != "one" {
		t.Fatalf("survivor = %q, want %q", b, "one")
	}
}

func TestFaultDiskTruncate(t *testing.T) {
	d := NewFaultDiskBytes([]byte("0123456789"))
	if err := d.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if b := durableBytes(t, d); string(b) != "0123" {
		t.Fatalf("after shrink: %q", b)
	}
	if err := d.Truncate(6); err != nil {
		t.Fatal(err)
	}
	want := "0123\x00\x00"
	if b := durableBytes(t, d); string(b) != want {
		t.Fatalf("after grow: %q, want %q", b, want)
	}
}

// TestCrashPlanCoordinatesDevices checks a machine-wide crash: the
// syncing device keeps its torn prefix, the other device keeps nothing
// unsynced, and both refuse further I/O.
func TestCrashPlanCoordinatesDevices(t *testing.T) {
	plan := NewCrashPlan(3, 2)
	a, b := NewFaultDisk(), NewFaultDisk()
	plan.Attach(a)
	plan.Attach(b)

	mustWrite(t, a, []byte("aa"), 0)
	if err := a.Sync(); err != nil { // plan sync 1
		t.Fatal(err)
	}
	mustWrite(t, b, []byte("bb"), 0)
	if err := b.Sync(); err != nil { // plan sync 2
		t.Fatal(err)
	}
	mustWrite(t, b, []byte("unsynced"), 2)
	mustWrite(t, a, []byte("torn"), 2)
	if err := a.Sync(); !errors.Is(err, ErrCrashed) { // plan sync 3: crash
		t.Fatalf("crashing sync: %v", err)
	}
	if !plan.Crashed() || !a.Crashed() || !b.Crashed() {
		t.Fatal("crash did not propagate to all devices")
	}
	if err := b.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("peer sync after crash: %v", err)
	}
	if got := durableBytes(t, a); string(got) != "aato" {
		t.Fatalf("syncing device survivor = %q, want %q", got, "aato")
	}
	if got := durableBytes(t, b); string(got) != "bb" {
		t.Fatalf("peer survivor = %q, want %q", got, "bb")
	}
	if n := plan.Syncs(); n != 3 {
		t.Fatalf("plan counted %d syncs, want 3", n)
	}
}
