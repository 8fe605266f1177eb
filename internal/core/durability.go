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
//     one appends a refresh record naming the view and the trigger. The
//     record is not synced on its own: losing it leaves the view stale
//     but correct, and the log is sequential, so the next commit's sync
//     hardens it before anything that depends on it.
//
//   - Catalog changes (create/drop/tuning) are not logged; they force
//     an eager checkpoint instead, so every WAL record replays over a
//     snapshot that already contains the catalog it references.
//
//   - A checkpoint is: flush the pool, append one frame (tagged with
//     the last record's sequence number) to the append-only snapshot
//     store, sync, forget the disk's recorded changes, then truncate
//     the log. The frame is the catalog header plus either the pages,
//     extents and free lists the disk recorded as changed since the
//     previous frame (a delta frame, the usual case) or the whole disk
//     image (a full frame, exactly Save's output: the first frame, and
//     whenever the deltas since the last full frame outweigh
//     fullRewriteFactor images). A crash between the frame's sync and
//     the truncate leaves stale records in the log; their sequence
//     numbers are ≤ the frame's, and recovery skips them.
//
//   - Recovery reads the last full frame, applies the delta frames
//     after it to the disk image in memory, restores the engine once
//     from the last frame's header, and replays the WAL tail.
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
	// the seq each frame covers, so recovery can skip records that are
	// older than the image it replays over.
	seq              uint64
	checkpointEvery  int
	commitsSinceCkpt int
	// chained is set once the disk's recorded changes are relative to
	// the snapshot store's last frame — after this engine's first
	// durable frame, or after Recover restored from the store — and a
	// checkpoint may therefore be a delta.
	chained bool
}

// DurabilityOptions configures EnableDurability and Recover.
type DurabilityOptions struct {
	// CheckpointEvery is the number of committed transactions between
	// automatic snapshot+truncate checkpoints. 0 disables automatic
	// checkpoints; Checkpoint can always be called explicitly.
	CheckpointEvery int
}

// fullRewriteFactor sets when a checkpoint writes a full frame instead
// of a delta: once the delta frames since the last full frame exceed
// this many disk images. A rewrite of size S thus follows at least 2S
// of deltas, so full frames add at most half again to the delta stream
// (amortised ≤ 1.5× what changed), and recovery never reads more than
// one image plus two images' worth of deltas.
const fullRewriteFactor = 2

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
// engine and writes a baseline checkpoint (a full frame), so recovery
// always has an image to replay over. From this point every commit is
// synced to the WAL before it returns, and every state-mutating refresh
// is logged ahead of the next commit's sync.
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
	kind := wal.FrameDelta
	imageBytes := int64(db.disk.TotalPages()) * int64(db.disk.PageSize())
	if !db.dur.chained || db.dur.snaps.DeltaBytes() > fullRewriteFactor*imageBytes {
		kind = wal.FrameFull
	}
	var buf bytes.Buffer
	if err := db.encodeSnapshotLocked(&buf, kind == wal.FrameDelta); err != nil {
		return fmt.Errorf("core: checkpoint snapshot: %w", err)
	}
	if err := db.dur.snaps.Append(db.dur.seq, kind, buf.Bytes()); err != nil {
		return fmt.Errorf("core: checkpoint append: %w", err)
	}
	// Only now that the frame is durable may the disk forget what it
	// held: after a failed append the next checkpoint's delta must
	// still carry these changes.
	db.disk.ResetChanges()
	db.dur.chained = true
	// Stale log records (all seq ≤ the frame's) can go. A crash before
	// this truncate completes just leaves them to be skipped by seq at
	// recovery.
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
// record and appends it. Commit records sync — the durability barrier;
// refresh records ride the next sync (see the file comment). Caller
// holds the engine write lock.
func (db *Database) appendRecordLocked(rec *walRecord) error {
	d := db.dur
	rec.Seq = d.seq + 1
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return err
	}
	if err := d.log.Append(buf.Bytes()); err != nil {
		return err
	}
	if rec.Kind == recCommit {
		if err := d.log.Sync(); err != nil {
			return err
		}
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
	// SnapshotSeq is the sequence number the recovered image covers:
	// that of the last frame of the chain.
	SnapshotSeq uint64
	// FullSeq is the sequence number of the full frame the chain starts
	// from, and Deltas the number of delta frames applied on top of it.
	FullSeq uint64
	Deltas  int
	// Replayed counts WAL records applied on top of the snapshot.
	Replayed int
	// Skipped counts records older than the snapshot (residue of a
	// crash between a checkpoint's snapshot sync and its log truncate).
	Skipped int
	// TailDamage is "" for a clean log end, "torn" when replay stopped
	// at an incomplete record, "corrupt" at a checksum/decode failure.
	TailDamage string
}

// Recover rebuilds a database from its durability devices: assemble
// the newest image (the last full frame plus the delta frames after
// it), replay every WAL record newer than it, and stop cleanly at the
// first torn or corrupt record (the unsynced residue of
// the crash — by the commit barrier, nothing that was acknowledged can
// be in the damaged tail). The damaged tail is then truncated and the
// returned engine continues logging on the same devices. The meter
// starts at zero: recovery is setup, not workload.
func Recover(walDev, snapDev storage.Device, opts DurabilityOptions) (*Database, *RecoverInfo, error) {
	snaps, err := wal.OpenSnapshotStore(snapDev)
	if err != nil {
		return nil, nil, err
	}
	frames, err := snaps.Chain()
	if err != nil {
		return nil, nil, fmt.Errorf("core: recovering: %w", err)
	}
	db, err := restoreChain(frames)
	if err != nil {
		return nil, nil, fmt.Errorf("core: recovering snapshot: %w", err)
	}
	snapSeq := frames[len(frames)-1].Seq
	info := &RecoverInfo{SnapshotSeq: snapSeq, FullSeq: frames[0].Seq, Deltas: len(frames) - 1}
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
	db.dur = &durability{log: log, snaps: snaps, seq: lastSeq, checkpointEvery: opts.CheckpointEvery, chained: true}
	db.mu.Unlock()
	db.ResetStats()
	return db, info, nil
}

// restoreChain rebuilds the engine a recovery chain describes: the full
// frame's disk image with each delta applied in order, under the last
// frame's catalog header. The restored disk tracks changes from here,
// so WAL replay and later work land in the next delta frame.
func restoreChain(frames []wal.SnapshotFrame) (*Database, error) {
	var (
		snap *dbSnapshot
		img  *storage.DiskImage
	)
	for i, f := range frames {
		var err error
		if snap, err = decodeSnapshot(bytes.NewReader(f.Body)); err != nil {
			return nil, fmt.Errorf("frame %d of %d (seq %d): %w", i+1, len(frames), f.Seq, err)
		}
		switch {
		case i == 0 && f.Kind == wal.FrameFull && snap.Disk != nil:
			img = snap.Disk
		case i > 0 && f.Kind == wal.FrameDelta && snap.Delta != nil:
			var delta *storage.DiskDelta
			if delta, err = storage.DecodeDiskDelta(snap.Delta); err == nil {
				err = img.Apply(delta)
			}
		default:
			err = fmt.Errorf("kind %d does not match its body or its place in the chain", f.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: frame %d of %d (seq %d): %v", ErrSnapshotCorrupt, i+1, len(frames), f.Seq, err)
		}
	}
	disk, err := storage.RestoreDisk(img)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	disk.ResetChanges()
	return restoreDatabase(snap, disk)
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
