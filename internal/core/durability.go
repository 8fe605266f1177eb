package core

import (
	"errors"
	"fmt"
	"io"

	"viewmat/internal/storage"
	"viewmat/internal/tuple"
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
//     the log. The frame is the catalog header plus the pages, extents
//     and free lists the disk recorded as changed — since the previous
//     frame (a delta frame, the usual case) or since the empty disk (a
//     full frame, exactly Save's output: the first frame, and whenever
//     the deltas since the last full frame outweigh fullRewriteFactor
//     images). A crash between the frame's sync and
//     the truncate leaves stale records in the log; their sequence
//     numbers are ≤ the frame's, and recovery skips them.
//
//   - Recovery applies the last full frame and the delta frames after
//     it, in order, to an empty disk image in memory, restores the
//     engine once from the last frame's header, and replays the WAL
//     tail.
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
	recCommit  uint8 = 1
	recRefresh uint8 = 2
	// recRefreshGroup is RefreshAll draining sibling children through one
	// replay of their parent's log. Replay must drain the same group: it
	// draws tuple ids for all of them between the record's two clocks.
	recRefreshGroup uint8 = 3
)

// Refresh-record triggers.
const (
	// refreshKindStale replays leaderRefresh: evict, then the
	// strategy-appropriate refresh if the view is (still) stale.
	refreshKindStale uint8 = 1
	// refreshKindSnapshotForce replays RefreshSnapshot's unconditional
	// recompute.
	refreshKindSnapshotForce uint8 = 2
	// refreshKindDeferredNow replays RefreshDeferredNow's idle-time
	// deferred cycle.
	refreshKindDeferredNow uint8 = 3
)

// walRecord is the payload of one WAL frame. ClockBefore is the id clock
// observed under the engine lock before the work applied; replay
// restores it first so ids allocated *during* the apply (by immediate
// and periodic refreshes) come out identical, then advances to
// ClockAfter.
type walRecord struct {
	seq                     uint64
	kind                    uint8
	clockBefore, clockAfter uint64
	// ops is a commit record's transaction: the queued ops with the ids
	// they were assigned.
	ops []txOp
	// view and trigger are a refresh record's: which view a query
	// refreshed and how (the refreshKind constants).
	view    string
	trigger uint8
	// views are a group refresh record's: the siblings drained together.
	views []string
}

// code walks a record's byte layout: [8 seq][1 kind], then for a commit
// the two clocks and the ops — each in CodeTxOp's layout followed by
// the [8 id] it was assigned (an insert's tuple, an update's
// replacement; a delete assigns none) — for a refresh the view name,
// [1 trigger] and the two clocks, and for a group refresh the view
// names and the two clocks.
func (rec *walRecord) code(c *tuple.Coder) {
	c.U64(&rec.seq)
	c.U8(&rec.kind)
	switch rec.kind {
	case recCommit:
		c.U64(&rec.clockBefore)
		c.U64(&rec.clockAfter)
		tuple.List(c, &rec.ops, minTxOpSize, func(c *tuple.Coder, op *txOp) {
			CodeTxOp(c, (*uint8)(&op.kind), &op.rel, &op.key, &op.id, &op.vals)
			switch op.kind {
			case opInsert:
				c.U64(&op.id)
			case opUpdate:
				c.U64(&op.newID)
			}
		})
	case recRefresh:
		c.Str(&rec.view)
		c.U8(&rec.trigger)
		c.U64(&rec.clockBefore)
		c.U64(&rec.clockAfter)
	case recRefreshGroup:
		tuple.List(c, &rec.views, 1, (*tuple.Coder).Str)
		c.U64(&rec.clockBefore)
		c.U64(&rec.clockAfter)
	default:
		c.Fail("record of unknown kind %d", rec.kind)
	}
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
	body, err := db.snapshotBodyLocked(kind == wal.FrameFull)
	if err != nil {
		return fmt.Errorf("core: checkpoint snapshot: %w", err)
	}
	if err := db.dur.snaps.Append(db.dur.seq, kind, body); err != nil {
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

// appendRecordLocked gives the record the next sequence number and the
// current id clock as its ClockAfter, and appends it. Commit records
// sync — the durability barrier; refresh records ride the next sync
// (see the file comment). Caller holds the engine write lock.
func (db *Database) appendRecordLocked(rec *walRecord) error {
	d := db.dur
	rec.seq, rec.clockAfter = d.seq+1, db.clock.Load()
	enc := tuple.NewEncoder(make([]byte, 0, 256)).Compact()
	rec.code(&enc)
	payload, err := enc.Done()
	if err != nil {
		return err
	}
	if err := d.log.Append(payload); err != nil {
		return err
	}
	if rec.kind == recCommit {
		if err := d.log.Sync(); err != nil {
			return err
		}
	}
	d.seq = rec.seq
	return nil
}

// logCommitLocked appends a transaction's commit record and runs the
// periodic checkpoint policy. A no-op when durability is off.
func (db *Database) logCommitLocked(ops []txOp, clockBefore uint64) error {
	if db.dur == nil {
		return nil
	}
	if err := db.appendRecordLocked(&walRecord{kind: recCommit, ops: ops, clockBefore: clockBefore}); err != nil {
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
func (db *Database) logRefreshLocked(view string, trigger uint8, clockBefore uint64) error {
	if db.dur == nil {
		return nil
	}
	if err := db.appendRecordLocked(&walRecord{kind: recRefresh, view: view, trigger: trigger, clockBefore: clockBefore}); err != nil {
		return fmt.Errorf("core: logging refresh of %q: %w", view, err)
	}
	return nil
}

// logRefreshGroupLocked appends a group refresh record for siblings
// RefreshAll drained together. A no-op when durability is off.
func (db *Database) logRefreshGroupLocked(views []string, clockBefore uint64) error {
	if db.dur == nil {
		return nil
	}
	if err := db.appendRecordLocked(&walRecord{kind: recRefreshGroup, views: views, clockBefore: clockBefore}); err != nil {
		return fmt.Errorf("core: logging refresh of %q: %w", views, err)
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
	// The disk records changes from here, so WAL replay and later work
	// land in the next delta frame.
	db.disk.ResetChanges()
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
		dec := tuple.NewDecoder(payload).Compact()
		rec.code(&dec)
		if _, err := dec.Done(); err != nil {
			// The frame passed its checksum but the payload does not
			// decode: damage beyond what the frame layer can detect.
			// Stop replay here like any other damaged tail.
			info.TailDamage = "corrupt"
			break
		}
		if rec.seq <= snapSeq {
			info.Skipped++
			continue
		}
		if err := db.applyRecordLocked(&rec); err != nil {
			db.mu.Unlock()
			return nil, nil, fmt.Errorf("core: replaying record %d: %w", rec.seq, err)
		}
		lastSeq = rec.seq
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

// applyRecordLocked replays one WAL record through the normal engine
// code paths. Caller holds the engine write lock.
func (db *Database) applyRecordLocked(rec *walRecord) error {
	db.maxStoreClock(rec.clockBefore)
	var err error
	switch rec.kind {
	case recCommit:
		for _, op := range rec.ops {
			if _, ok := db.rels[op.rel]; !ok {
				return fmt.Errorf("core: WAL op references unknown relation %q", op.rel)
			}
		}
		err = db.applyOpsLocked(rec.ops)
	case recRefreshGroup:
		// Mirror runUnitLocked: the parent's own record came first, so it
		// is fresh here and the siblings stand where they stood.
		var group []*viewState
		var parent *viewState
		for _, name := range rec.views {
			vs := db.views[name]
			if vs == nil || db.parentOf(vs) == nil || parent != nil && db.parentOf(vs) != parent {
				return fmt.Errorf("core: group refresh record names %q, not a sibling child view", name)
			}
			group, parent = append(group, vs), db.parentOf(vs)
		}
		if parent == nil {
			return fmt.Errorf("core: empty group refresh record")
		}
		err = db.inPhase(PhaseDefRefresh, func() error { return db.drainChildrenLocked(group, parent) })
	default:
		vs, ok := db.views[rec.view]
		if !ok {
			return fmt.Errorf("core: refresh record for unknown view %q", rec.view)
		}
		switch rec.trigger {
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
			err = fmt.Errorf("core: unknown refresh trigger %d", rec.trigger)
		}
	}
	if err != nil {
		return err
	}
	db.maxStoreClock(rec.clockAfter)
	return nil
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
