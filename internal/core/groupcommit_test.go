package core

import (
	"testing"
	"time"

	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// Group commit and the checkpoint written outside the engine lock
// (durability.go): a commit releases the lock before it waits for a
// sync, one sync covers every record appended before it, a read waits
// for the commits it saw, and a frame in flight never truncates a record
// newer than itself. Each test holds a device's syncs (FaultDisk's
// HoldSyncs) to pin the interleaving it checks.

// waitFor polls cond until it holds: for progress a test can see only
// through a counter, such as a device's write count.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// groupCommitDB is newSPDatabase's 25-row table and view v under the
// strategy, with durability on FaultDisks.
func groupCommitDB(t *testing.T, strategy Strategy, checkpointEvery int) (*Database, *storage.FaultDisk, *storage.FaultDisk) {
	t.Helper()
	walDev, snapDev := storage.NewFaultDisk(), storage.NewFaultDisk()
	db := newSPDatabase(t, strategy, 25)
	if err := db.EnableDurability(walDev, snapDev, DurabilityOptions{CheckpointEvery: checkpointEvery}); err != nil {
		t.Fatal(err)
	}
	return db, walDev, snapDev
}

// insertKey commits one row of key k.
func insertKey(db *Database, k int64) error {
	tx := db.Begin()
	if _, err := tx.Insert("r", tuple.I(k), tuple.I(1), tuple.S("x")); err != nil {
		return err
	}
	return tx.Commit()
}

// goInsertKey runs insertKey on a goroutine of its own and hands back
// its error.
func goInsertKey(db *Database, k int64) <-chan error {
	done := make(chan error, 1)
	go func() { done <- insertKey(db, k) }()
	return done
}

// recoverDurable recovers from what a power cut would leave of the
// devices and checks the recovered view v answers as the live one does.
func recoverDurable(t *testing.T, db *Database, walDev, snapDev *storage.FaultDisk) *RecoverInfo {
	t.Helper()
	rec, info, err := Recover(walDev.DurableDevice(), snapDev.DurableDevice(), DurabilityOptions{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	t.Cleanup(func() { rec.assertUnpinned(t) })
	want, err := db.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "recovered view", got, want)
	return info
}

// TestGroupCommitReleasesLockDuringSync: while commit A's sync is held,
// commit B applies and appends its record, which it could not do if A
// still held the engine lock; B's Commit returns only once a sync
// covers B.
func TestGroupCommitReleasesLockDuringSync(t *testing.T) {
	db, walDev, snapDev := groupCommitDB(t, Immediate, 0)
	held, release := walDev.HoldSyncs()
	defer release()
	a := goInsertKey(db, 15)
	<-held
	writes := walDev.Writes()
	b := goInsertKey(db, 16)
	waitFor(t, "commit B's append", func() bool { return walDev.Writes() > writes })
	select {
	case err := <-b:
		t.Fatalf("commit B returned (%v) while the only sync was held", err)
	default:
	}
	release()
	for name, done := range map[string]<-chan error{"A": a, "B": b} {
		if err := <-done; err != nil {
			t.Fatalf("commit %s: %v", name, err)
		}
	}
	if info := recoverDurable(t, db, walDev, snapDev); info.Replayed != 2 {
		t.Errorf("replayed %d records after both commits returned, want 2", info.Replayed)
	}
}

// TestGroupCommitReadWaitsForDurable: a query started while commit A's
// sync is held reads A's row under the read lock, but does not return
// it until A is durable.
func TestGroupCommitReadWaitsForDurable(t *testing.T) {
	db, walDev, snapDev := groupCommitDB(t, Immediate, 0)
	held, release := walDev.HoldSyncs()
	defer release()
	a := goInsertKey(db, 15)
	<-held
	db.statsMu.Lock()
	queries := db.Queries
	db.statsMu.Unlock()
	type answer struct {
		rows []ResultRow
		err  error
	}
	q := make(chan answer, 1)
	go func() {
		rows, err := db.QueryView("v", nil)
		q <- answer{rows, err}
	}()
	waitFor(t, "the query to read", func() bool {
		db.statsMu.Lock()
		defer db.statsMu.Unlock()
		return db.Queries > queries
	})
	select {
	case <-q:
		t.Fatal("the query returned commit A's state before A was durable")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if err := <-a; err != nil {
		t.Fatal(err)
	}
	ans := <-q
	if ans.err != nil {
		t.Fatal(ans.err)
	}
	if len(ans.rows) != 16 {
		t.Errorf("the query saw %d rows, want the 15 seeded in range and A's", len(ans.rows))
	}
	recoverDurable(t, db, walDev, snapDev)
}

// TestGroupCommitConcurrentCommitters: eight committers queued behind
// one held sync share the next one, and every acknowledged commit
// survives a power cut.
func TestGroupCommitConcurrentCommitters(t *testing.T) {
	const clients = 8
	db, walDev, snapDev := groupCommitDB(t, Immediate, 0)
	syncs, writes := walDev.Syncs(), walDev.Writes()
	held, release := walDev.HoldSyncs()
	defer release()
	var done [clients]<-chan error
	for i := range done {
		done[i] = goInsertKey(db, int64(10+i))
	}
	<-held
	waitFor(t, "every commit's append", func() bool { return walDev.Writes() >= writes+clients })
	release()
	for i, d := range done {
		if err := <-d; err != nil {
			t.Fatalf("committer %d: %v", i, err)
		}
	}
	if got := walDev.Syncs() - syncs; got >= clients {
		t.Errorf("%d commits took %d WAL syncs, want fewer", clients, got)
	}
	if info := recoverDurable(t, db, walDev, snapDev); info.Replayed != clients {
		t.Errorf("replayed %d records, want %d", info.Replayed, clients)
	}
}

// TestCheckpointOutsideLockKeepsNewerRecords: a commit made while a
// commit-triggered frame is in flight keeps its record, since the log
// is reset only if its tail has not moved since the frame was encoded;
// recovery skips the records the frame covers and replays the new one;
// and the next quiet checkpoint resets the log: the next append lands
// at offset 0, a reboot before it reads only records the frame covers,
// and one after it reads exactly that append.
func TestCheckpointOutsideLockKeepsNewerRecords(t *testing.T) {
	db, walDev, snapDev := groupCommitDB(t, Immediate, 2)
	if err := insertKey(db, 20); err != nil {
		t.Fatal(err)
	}
	held, release := snapDev.HoldSyncs()
	defer release()
	a := goInsertKey(db, 21) // the second commit: its frame covers seq 2
	<-held
	if err := insertKey(db, 22); err != nil {
		t.Fatalf("commit while the frame is in flight: %v", err)
	}
	release()
	if err := <-a; err != nil {
		t.Fatalf("the checkpointing commit: %v", err)
	}
	if db.dur.log.Offset() == 0 {
		t.Fatal("the checkpoint reset the log over a record newer than its frame")
	}
	info := recoverDurable(t, db, walDev, snapDev)
	if info.SnapshotSeq != 2 || info.Skipped != 2 || info.Replayed != 1 {
		t.Errorf("snapshot seq %d, skipped %d, replayed %d; want 2, 2, 1", info.SnapshotSeq, info.Skipped, info.Replayed)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if off := db.dur.log.Offset(); off != 0 {
		t.Errorf("the quiet checkpoint left the log's tail at %d, want 0", off)
	}
	if seqs := walSeqs(t, walDev.DurableDevice()); len(seqs) == 0 || seqs[len(seqs)-1] > 3 {
		t.Errorf("before the next append the log reads seqs %v, want only records the frame of seq 3 covers", seqs)
	}
	if info := recoverDurable(t, db, walDev, snapDev); info.SnapshotSeq != 3 || info.Replayed != 0 {
		t.Errorf("after the quiet checkpoint: snapshot seq %d, replayed %d; want 3, 0", info.SnapshotSeq, info.Replayed)
	}
	if err := insertKey(db, 23); err != nil {
		t.Fatal(err)
	}
	if seqs := walSeqs(t, walDev.DurableDevice()); len(seqs) != 1 || seqs[0] != 4 {
		t.Errorf("after the next commit the log reads seqs %v, want [4]", seqs)
	}
	if info := recoverDurable(t, db, walDev, snapDev); info.Skipped != 0 || info.Replayed != 1 || info.TailDamage != "" {
		t.Errorf("after the next commit: skipped %d, replayed %d, tail %q; want 0, 1, clean", info.Skipped, info.Replayed, info.TailDamage)
	}
}
