package core

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"viewmat/internal/tuple"
	"viewmat/internal/wal"
)

// TestDeltaFrameBytes pins what a checkpoint frame weighs on commit-imm
// (n = 20 000, a frame every 8 commits, the WAL and the store on files):
// the full frame EnableDurability writes, and a steady-state delta
// frame. A delta frame changes ~49 of the disk's ~614 pages, but carries
// each as a patch against the previous frame's image — a few dozen bytes
// a page, where whole pages were ~198 KB a frame — and a full frame
// patches every page against zeros, most of a columnar page's bytes. The
// first frames after the load are larger (a leaf's first updates widen
// its id lane, rewriting it); by the 40th they have settled, and the
// bound holds the 40 after that. A return to whole pages fails both
// bounds many times over. The bounds are the measured sizes plus the
// stated margins.
func TestDeltaFrameBytes(t *testing.T) {
	const (
		settle, steady = 40, 40
		fullBound      = 228_047 + 11_000 // measured, +5 %
		meanBound      = 987 + 500        // measured, +0.5 KB
		mostBound      = 1_349 + 1_000    // measured, +1 KB
	)
	c := newCommitImm(t, 20000)
	c.durable(t, t.TempDir(), DurabilityOptions{CheckpointEvery: 8})
	for i := 0; i < 8*(settle+steady); i++ {
		c.commit(t, c.benchKeys(i))
	}
	chain, err := c.db.dur.snaps.Chain()
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1+settle+steady {
		t.Fatalf("chain of %d frames, want the full frame and %d deltas", len(chain), settle+steady)
	}
	full := len(chain[0].Body)
	sum, most := 0, 0
	for _, f := range chain[1+settle:] {
		sum += len(f.Body)
		most = max(most, len(f.Body))
	}
	mean := sum / steady
	t.Logf("full frame %d B over %d pages; steady delta frames %d B on average, %d B at most", full, c.db.disk.TotalPages(), mean, most)
	if full > fullBound {
		t.Errorf("the full frame is %d B, want at most %d", full, fullBound)
	}
	if mean > meanBound || most > mostBound {
		t.Errorf("steady delta frames are %d B on average and %d B at most, want at most %d and %d", mean, most, meanBound, mostBound)
	}
}

// TestCheckpointAllocations pins what one steady-state delta checkpoint
// of commit-imm allocates: the flush, the catalog header, the patches
// and the frame, whose buffer is the previous frame's. Each round runs
// the 8 commits a frame covers and counts the explicit checkpoint after
// them alone. The bound is today's count: it may fall, and must not
// rise. (A frame's runs go into one byte buffer and one run slice,
// which grow by doubling: nothing is allocated a page.) The count is
// process-wide, and a garbage collection that falls inside a checkpoint
// adds a few allocations to it, so the test runs the same 20 rounds on
// three fresh databases and takes the lowest average: a real regression
// raises all three.
func TestCheckpointAllocations(t *testing.T) {
	allocs := math.Inf(1)
	for pass := 0; pass < 3; pass++ {
		allocs = min(allocs, checkpointAllocs(t))
	}
	const max = 71 // with the race detector too
	t.Logf("%.2f allocations a delta checkpoint (race detector: %v)", allocs, raceEnabled())
	if allocs > max {
		t.Errorf("a delta checkpoint allocated %.2f objects, want at most %d", allocs, max)
	}
}

// checkpointAllocs returns the mean allocations of 20 delta checkpoints
// of a fresh commit-imm database, after two that size the reused buffers.
func checkpointAllocs(t *testing.T) float64 {
	const rounds = 20
	c := newCommitImm(t, 20000)
	c.durable(t, t.TempDir(), DurabilityOptions{})
	var total uint64
	var ms runtime.MemStats
	for r := 0; r < rounds+2; r++ {
		for i := 0; i < 8; i++ {
			c.commit(t, c.benchKeys(8*r+i))
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if err := c.db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if r >= 2 {
			total += ms.Mallocs - before
		}
	}
	return float64(total) / rounds
}

// TestRecoverLongChain: patches make delta frames small, so the same
// byte rule lets chains grow long, and recovery must cost what the
// frames carry rather than a pass over the image per frame. A chain of
// 2 000 one-page deltas over a ~600-page image recovers to Save's bytes.
func TestRecoverLongChain(t *testing.T) {
	const deltas = 2000
	db := NewDatabase(Options{PageSize: 4000, PoolFrames: 64})
	schema := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("p", tuple.Int), tuple.Col("s", tuple.String))
	if _, err := db.CreateRelationBTree("r", schema, 0); err != nil {
		t.Fatal(err)
	}
	const rows = 12500
	ids := make([]uint64, rows)
	tx := db.Begin()
	for k := range ids {
		id, err := tx.Insert("r", tuple.I(int64(k)), tuple.I(0), tuple.S(fmt.Sprintf("%064x", k*2654435761)))
		if err != nil {
			t.Fatal(err)
		}
		ids[k] = id
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	(&commitImm{db: db}).durable(t, dir, DurabilityOptions{})
	if pages := db.disk.TotalPages(); pages < 500 || pages > 700 {
		t.Fatalf("the image has %d pages, want ~600", pages)
	}
	for i := 0; i < deltas; i++ {
		k := i * 7919 % rows
		tx := db.Begin()
		id, err := tx.Update("r", tuple.I(int64(k)), ids[k], tuple.I(int64(k)), tuple.I(int64(i%5)), tuple.S(fmt.Sprintf("%064x", k*2654435761)))
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		ids[k] = id
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	chain, err := db.dur.snaps.Chain()
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range chain[1:] {
		_, delta, err := decodeSnapshot(f.Body)
		if err != nil {
			t.Fatal(err)
		}
		pages := 0
		for _, fd := range delta.Files {
			pages += len(fd.Pages)
		}
		if pages != 1 {
			t.Fatalf("delta frame %d carries %d pages, want 1", i+1, pages)
		}
	}
	var dev [2]*wal.FileDevice
	for i, name := range []string{"wal.log", "snapshots.log"} {
		if dev[i], err = wal.OpenFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
		defer dev[i].Close()
	}
	start := time.Now()
	rec, info, err := Recover(dev[0], dev[1], DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("recovered %d pages over %d delta frames in %v", rec.disk.TotalPages(), info.Deltas, time.Since(start))
	if info.Deltas != deltas {
		t.Fatalf("recovered over %d delta frames, want %d", info.Deltas, deltas)
	}
	var want, got bytes.Buffer
	if err := db.Save(&want); err != nil {
		t.Fatal(err)
	}
	if err := rec.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("the recovered engine saves other bytes than the live one")
	}
}
