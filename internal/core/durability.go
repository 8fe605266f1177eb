package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"viewmat/internal/storage"
	"viewmat/internal/wal"
)

// This file couples the engine to the durability substrate in
// internal/wal. The design (DESIGN.md §3) in brief:
//
//   - Tx.Commit appends one logical WAL record per transaction — the
//     queued ops with their pre-assigned tuple ids, bracketed by the
//     id-clock values before and after the apply — and syncs before
//     returning. Replay re-executes the record through the same engine
//     code path (applyOpsLocked), so base writes, AD appends, t-lock
//     screening, immediate refreshes and periodic deferred refreshes
//     are all regenerated rather than logged physically.
//
//   - Query-triggered refreshes mutate view state without a commit
//     (AD folds, differential refreshes, snapshot recomputes), so each
//     one appends a refresh record naming the view and the trigger.
//
//   - Catalog changes (create/drop/tuning) are not logged; they force
//     an eager checkpoint instead, so every WAL record replays over a
//     snapshot that already contains the catalog it references.
//
//   - A checkpoint is: serialize the engine with Save, append the
//     snapshot (tagged with the last record's sequence number) to the
//     append-only snapshot store, sync, then truncate the log. A crash
//     between the snapshot sync and the truncate leaves stale records
//     in the log; their sequence numbers are ≤ the snapshot's, and
//     recovery skips them.
//
// None of this touches the simulated Disk or the cost meter: WAL and
// snapshot devices live outside the metered world, so enabling
// durability leaves the paper's accounting byte-identical (the
// fidelity test in durability_test.go pins this).

// durability is the engine's attachment to its WAL and snapshot
// devices. Guarded by Database.mu (records are appended only while the
// engine write lock is held, which also serializes them).
type durability struct {
	log   *wal.Log
	snaps *wal.SnapshotStore
	// seq numbers records monotonically; the snapshot store remembers
	// the seq its snapshot covers, so recovery can skip records that
	// are older than the snapshot it replays over.
	seq              uint64
	checkpointEvery  int
	commitsSinceCkpt int
}

// DurabilityOptions configures EnableDurability and Recover.
type DurabilityOptions struct {
	// CheckpointEvery is the number of committed transactions between
	// automatic snapshot+truncate checkpoints. 0 disables automatic
	// checkpoints; Checkpoint can always be called explicitly.
	CheckpointEvery int
}

// WAL record kinds.
const (
	recCommit  = 1
	recRefresh = 2
)

// Refresh-record triggers.
const (
	// refreshKindStale replays leaderRefresh: evict, then the
	// strategy-appropriate refresh if the view is (still) stale.
	refreshKindStale = 1
	// refreshKindSnapshotForce replays RefreshSnapshot's unconditional
	// recompute.
	refreshKindSnapshotForce = 2
	// refreshKindDeferredNow replays RefreshDeferredNow's idle-time
	// deferred cycle.
	refreshKindDeferredNow = 3
)

// walRecord is the gob-encoded payload of one WAL frame.
type walRecord struct {
	Seq     uint64
	Kind    int
	Commit  *commitRecordDTO
	Refresh *refreshRecordDTO
}

// walOpDTO mirrors txOp with gob-friendly exported fields.
type walOpDTO struct {
	Kind  int
	Rel   string
	Vals  []valueDTO
	Key   *valueDTO
	ID    uint64
	NewID uint64
}

// commitRecordDTO is a transaction's logical log image. ClockBefore is
// the id clock observed under the engine lock before the ops applied;
// replay restores it first so ids allocated *during* the apply (by
// immediate and periodic refreshes) come out identical, then advances
// to ClockAfter.
type commitRecordDTO struct {
	Ops         []walOpDTO
	ClockBefore uint64
	ClockAfter  uint64
}

// refreshRecordDTO logs one query-triggered refresh.
type refreshRecordDTO struct {
	View        string
	Kind        int
	ClockBefore uint64
	ClockAfter  uint64
}

// EnableDurability attaches a WAL device and a snapshot device to the
// engine and writes a baseline checkpoint, so recovery always has a
// snapshot to replay over. From this point every commit and every
// state-mutating refresh is synced to the WAL before it returns.
//
// Durability replays as a serial program: with it enabled, RefreshAll
// runs its units serially regardless of MaxRefreshWorkers, and the
// byte-identical-recovery guarantee assumes transactions are issued
// serially (concurrent use remains safe and logically correct, but
// tuple ids allocated by racing transactions need not replay
// identically).
func (db *Database) EnableDurability(walDev, snapDev storage.Device, opts DurabilityOptions) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.dur != nil {
		return fmt.Errorf("core: durability already enabled")
	}
	log, err := wal.OpenLog(walDev)
	if err != nil {
		return err
	}
	snaps, err := wal.OpenSnapshotStore(snapDev)
	if err != nil {
		return err
	}
	db.dur = &durability{log: log, snaps: snaps, checkpointEvery: opts.CheckpointEvery}
	if err := db.checkpointLocked(); err != nil {
		db.dur = nil
		return err
	}
	return nil
}

// DurabilityEnabled reports whether the engine has a WAL attached.
func (db *Database) DurabilityEnabled() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.dur != nil
}

// Checkpoint forces a snapshot + log-truncation checkpoint now.
func (db *Database) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.dur == nil {
		return fmt.Errorf("core: durability not enabled")
	}
	return db.checkpointLocked()
}

// checkpointLocked runs the checkpoint protocol; caller holds the
// engine write lock and db.dur is non-nil.
func (db *Database) checkpointLocked() error {
	var buf bytes.Buffer
	if err := db.saveLocked(&buf); err != nil {
		return fmt.Errorf("core: checkpoint snapshot: %w", err)
	}
	if err := db.dur.snaps.Append(db.dur.seq, buf.Bytes()); err != nil {
		return fmt.Errorf("core: checkpoint append: %w", err)
	}
	// The snapshot is durable; stale log records (all seq ≤ the
	// snapshot's) can go. A crash before this truncate completes just
	// leaves them to be skipped by seq at recovery.
	if err := db.dur.log.Reset(); err != nil {
		return fmt.Errorf("core: checkpoint log truncate: %w", err)
	}
	db.dur.commitsSinceCkpt = 0
	return nil
}

// catalogCheckpointLocked is the catalog-change hook: DDL and tuning
// changes are snapshotted eagerly instead of logged, so WAL records
// never reference catalog state the recovery snapshot lacks. A no-op
// when durability is off.
func (db *Database) catalogCheckpointLocked() error {
	if db.dur == nil {
		return nil
	}
	return db.checkpointLocked()
}

// appendRecordLocked assigns the next sequence number, gob-encodes the
// record and appends it with a sync — the durability barrier. Caller
// holds the engine write lock.
func (db *Database) appendRecordLocked(rec *walRecord) error {
	d := db.dur
	rec.Seq = d.seq + 1
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return err
	}
	if err := d.log.AppendSync(buf.Bytes()); err != nil {
		return err
	}
	d.seq = rec.Seq
	return nil
}

// logCommitLocked appends a transaction's commit record and runs the
// periodic checkpoint policy. A no-op when durability is off.
func (db *Database) logCommitLocked(ops []txOp, clockBefore uint64) error {
	if db.dur == nil {
		return nil
	}
	rec := &walRecord{Kind: recCommit, Commit: &commitRecordDTO{
		Ops:         opsToDTO(ops),
		ClockBefore: clockBefore,
		ClockAfter:  db.clock.Load(),
	}}
	if err := db.appendRecordLocked(rec); err != nil {
		return fmt.Errorf("core: logging commit: %w", err)
	}
	db.dur.commitsSinceCkpt++
	if db.dur.checkpointEvery > 0 && db.dur.commitsSinceCkpt >= db.dur.checkpointEvery {
		return db.checkpointLocked()
	}
	return nil
}

// logRefreshLocked appends a refresh record. A no-op when durability is
// off.
func (db *Database) logRefreshLocked(view string, kind int, clockBefore uint64) error {
	if db.dur == nil {
		return nil
	}
	rec := &walRecord{Kind: recRefresh, Refresh: &refreshRecordDTO{
		View:        view,
		Kind:        kind,
		ClockBefore: clockBefore,
		ClockAfter:  db.clock.Load(),
	}}
	if err := db.appendRecordLocked(rec); err != nil {
		return fmt.Errorf("core: logging refresh of %q: %w", view, err)
	}
	return nil
}

// RecoverInfo reports what Recover found and did.
type RecoverInfo struct {
	// SnapshotSeq is the sequence number the recovered snapshot covers.
	SnapshotSeq uint64
	// Replayed counts WAL records applied on top of the snapshot.
	Replayed int
	// Skipped counts records older than the snapshot (residue of a
	// crash between a checkpoint's snapshot sync and its log truncate).
	Skipped int
	// TailDamage is "" for a clean log end, "torn" when replay stopped
	// at an incomplete record, "corrupt" at a checksum/decode failure.
	TailDamage string
}

// Recover rebuilds a database from its durability devices: load the
// newest snapshot, replay every WAL record newer than it, and stop
// cleanly at the first torn or corrupt record (the unsynced residue of
// the crash — by the commit barrier, nothing that was acknowledged can
// be in the damaged tail). The damaged tail is then truncated and the
// returned engine continues logging on the same devices. The meter
// starts at zero: recovery is setup, not workload.
func Recover(walDev, snapDev storage.Device, opts DurabilityOptions) (*Database, *RecoverInfo, error) {
	snaps, err := wal.OpenSnapshotStore(snapDev)
	if err != nil {
		return nil, nil, err
	}
	snapSeq, snapBytes, err := snaps.Latest()
	if err != nil {
		return nil, nil, fmt.Errorf("core: recovering: %w", err)
	}
	db, err := Load(bytes.NewReader(snapBytes))
	if err != nil {
		return nil, nil, fmt.Errorf("core: recovering snapshot: %w", err)
	}

	info := &RecoverInfo{SnapshotSeq: snapSeq}
	r, err := wal.NewReader(walDev)
	if err != nil {
		return nil, nil, err
	}
	lastSeq := snapSeq
	db.mu.Lock()
	for {
		payload, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			if errors.Is(err, wal.ErrTorn) {
				info.TailDamage = "torn"
				break
			}
			if errors.Is(err, wal.ErrCorrupt) {
				info.TailDamage = "corrupt"
				break
			}
			db.mu.Unlock()
			return nil, nil, err
		}
		var rec walRecord
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			// The frame passed its checksum but the payload does not
			// decode: damage beyond what the frame layer can detect.
			// Stop replay here like any other damaged tail.
			info.TailDamage = "corrupt"
			break
		}
		if rec.Seq <= snapSeq {
			info.Skipped++
			continue
		}
		if err := db.applyRecordLocked(&rec); err != nil {
			db.mu.Unlock()
			return nil, nil, fmt.Errorf("core: replaying record %d: %w", rec.Seq, err)
		}
		lastSeq = rec.Seq
		info.Replayed++
	}
	db.mu.Unlock()

	// Reattach durability. OpenLog re-scans and truncates the damaged
	// tail, so new appends land right after the last replayed record.
	log, err := wal.OpenLog(walDev)
	if err != nil {
		return nil, nil, err
	}
	db.mu.Lock()
	db.dur = &durability{log: log, snaps: snaps, seq: lastSeq, checkpointEvery: opts.CheckpointEvery}
	db.mu.Unlock()
	db.ResetStats()
	return db, info, nil
}

// applyRecordLocked replays one WAL record through the normal engine
// code paths. Caller holds the engine write lock.
func (db *Database) applyRecordLocked(rec *walRecord) error {
	switch rec.Kind {
	case recCommit:
		c := rec.Commit
		if c == nil {
			return fmt.Errorf("core: commit record %d has no body", rec.Seq)
		}
		db.maxStoreClock(c.ClockBefore)
		ops, err := db.opsFromDTO(c.Ops)
		if err != nil {
			return err
		}
		if err := db.applyOpsLocked(ops); err != nil {
			return err
		}
		db.maxStoreClock(c.ClockAfter)
		return nil
	case recRefresh:
		rr := rec.Refresh
		if rr == nil {
			return fmt.Errorf("core: refresh record %d has no body", rec.Seq)
		}
		vs, ok := db.views[rr.View]
		if !ok {
			return fmt.Errorf("core: refresh record for unknown view %q", rr.View)
		}
		db.maxStoreClock(rr.ClockBefore)
		var err error
		switch rr.Kind {
		case refreshKindStale:
			// Mirror leaderRefresh: the record was only written after an
			// actual refresh, and replay determinism means the view is
			// stale again here; the guard keeps a hypothetical mismatch
			// from mutating state the original run did not.
			if db.viewStale(vs) {
				if err = db.pool.EvictAll(); err == nil {
					err = db.refreshStaleLocked(vs)
				}
			}
		case refreshKindSnapshotForce:
			if err = db.pool.EvictAll(); err == nil {
				err = db.inPhase(PhaseDefRefresh, func() error { return db.recomputeView(vs) })
			}
		case refreshKindDeferredNow:
			if err = db.pool.EvictAll(); err == nil {
				err = db.foldRelationsLocked(vs.def.Relations)
			}
		default:
			err = fmt.Errorf("core: unknown refresh kind %d", rr.Kind)
		}
		if err != nil {
			return err
		}
		db.maxStoreClock(rr.ClockAfter)
		return nil
	default:
		return fmt.Errorf("core: unknown record kind %d", rec.Kind)
	}
}

// maxStoreClock advances the id clock to at least v (never backward —
// a replayed record's clock can trail state already rebuilt).
func (db *Database) maxStoreClock(v uint64) {
	for {
		cur := db.clock.Load()
		if cur >= v {
			return
		}
		if db.clock.CompareAndSwap(cur, v) {
			return
		}
	}
}

func opsToDTO(ops []txOp) []walOpDTO {
	out := make([]walOpDTO, len(ops))
	for i, op := range ops {
		d := walOpDTO{Kind: int(op.kind), Rel: op.rel, ID: op.id, NewID: op.newID}
		for _, v := range op.vals {
			d.Vals = append(d.Vals, valueToDTO(v))
		}
		if op.kind != opInsert {
			k := valueToDTO(op.key)
			d.Key = &k
		}
		out[i] = d
	}
	return out
}

func (db *Database) opsFromDTO(dtos []walOpDTO) ([]txOp, error) {
	ops := make([]txOp, len(dtos))
	for i, d := range dtos {
		if _, ok := db.rels[d.Rel]; !ok {
			return nil, fmt.Errorf("core: WAL op references unknown relation %q", d.Rel)
		}
		op := txOp{kind: txOpKind(d.Kind), rel: d.Rel, id: d.ID, newID: d.NewID}
		switch op.kind {
		case opInsert, opDelete, opUpdate:
		default:
			return nil, fmt.Errorf("core: WAL op of unknown kind %d", d.Kind)
		}
		for _, v := range d.Vals {
			op.vals = append(op.vals, valueFromDTO(v))
		}
		if d.Key != nil {
			op.key = valueFromDTO(*d.Key)
		}
		ops[i] = op
	}
	return ops, nil
}
