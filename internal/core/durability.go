package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"viewmat/internal/frame"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/wal"
)

// This file couples the engine to the durability substrate in
// internal/wal. The design (DESIGN.md §3) in brief:
//
//   - Tx.Commit appends one logical WAL record per transaction — the
//     queued ops with their pre-assigned tuple ids, bracketed by the
//     id-clock values before and after the apply — under the engine
//     lock, releases the lock, and returns once a sync covers the
//     record (group commit, awaitDurable: one sync covers every record
//     appended before it, whichever commit led it). Replay re-executes
//     the record through the same engine code path (applyOpsLocked), so
//     base writes, AD appends, t-lock screening, immediate refreshes and
//     periodic deferred refreshes are all regenerated rather than logged
//     physically. A read waits, after releasing the lock, until the last
//     commit it saw is durable, so no client is shown state a crash
//     could take back.
//
//   - Refreshes outside a commit mutate view state (AD folds,
//     differential refreshes, snapshot recomputes). Each is one unit
//     run by runUnitLocked, which appends a refresh record naming the
//     unit's views; replay hands the record back to runUnitLocked. The
//     record is not synced on its own: losing it leaves the view stale
//     but correct, and the log is sequential, so any later sync hardens
//     it before anything that depends on it.
//
//   - Catalog changes (create/drop/tuning) are not logged; they force
//     an eager checkpoint instead, so every WAL record replays over a
//     snapshot that already contains the catalog it references.
//
//   - A checkpoint has two halves. Under the engine lock, with every
//     operation's pages written back: encode one frame (tagged with the last record's sequence
//     number) and let the disk forget its recorded changes. Then,
//     under the checkpoint mutex alone: append the frame to the
//     append-only snapshot store, sync it, and reset the log if its
//     tail is still where the frame's last record ended — a rewind to
//     offset 0, with no truncate and no sync, while the log fits one
//     page (wal.Log.ResetAt). The frame is
//     the catalog header plus the extents and free lists the disk
//     recorded as changed and a patch of each changed page: the runs of
//     bytes where it differs from its base — the page as the previous
//     frame left it (a delta frame, the usual case; the disk copied it
//     at the page's first mutation since), or zeros (a full frame,
//     exactly Save's output: the first frame, whenever the deltas since
//     the last full frame outweigh fullRewriteFactor of it, and after a
//     frame that failed to land). Under the lock, then, the encode is a
//     diff of the dirty pages against their pre-images, writing a few
//     dozen bytes a page. A commit crossing CheckpointEvery
//     writes its frame after releasing the lock; explicit Checkpoint,
//     DDL and EnableDurability run both halves back to back. Records
//     left in the log — a crash between the frame's sync and the
//     reset, records appended while the frame was in flight, or the
//     stale frames a rewind left behind — with sequence numbers ≤ the
//     frame's are skipped by recovery.
//
//   - Recovery applies the last full frame and the delta frames after
//     it, in order, to an empty disk image in memory, restores the
//     engine once from the last frame's header, and replays the WAL
//     tail. Seqs increase along a log, so a record whose seq does not
//     exceed the one before it is a stale frame of a rewound log and
//     ends it; and they increase by one past the image, so a record
//     that skips a seq follows one the crash lost, and ends it too.
//     The log is reopened where replay stopped.
//
// None of this touches the simulated Disk or the cost meter: WAL and
// snapshot devices live outside the metered world, so enabling
// durability leaves the paper's accounting byte-identical (the
// fidelity test in durability_test.go pins this).

// durability is the engine's attachment to its WAL and snapshot
// devices. log and checkpointEvery never change; each other field
// names its guard: Database.mu, syncMu, ckptMu, or atomic.
type durability struct {
	log             *wal.Log
	checkpointEvery int

	// Guarded by Database.mu, whose write side appends every record and
	// so also orders them. lastCommit is the seq of the last commit
	// record appended, the one a read waits for.
	lastCommit       uint64
	commitsSinceCkpt int

	// Atomic. seq numbers records monotonically: it is the seq of the
	// last record appended, stored under Database.mu once its Append
	// returned. The snapshot store remembers the seq each frame covers,
	// so recovery can skip records that are older than the image it
	// replays over.
	seq atomic.Uint64

	// syncMu admits one group-commit sync at a time. durable, atomic so
	// that a covered waiter need not take syncMu, is stored only under
	// it: every record up to durable has been synced.
	syncMu  sync.Mutex
	durable atomic.Uint64

	// ckptMu is taken when a frame is encoded, under Database.mu, and
	// released once it is written, so frames land in encode order. It
	// guards snaps, chained and frameBuf.
	ckptMu sync.Mutex
	snaps  *wal.SnapshotStore
	// frameBuf is the last frame's buffer, which the next frame is
	// encoded into once it has been written.
	frameBuf []byte
	// chained is set while the disk's recorded changes are relative to
	// the snapshot store's last frame — after this engine's frame
	// landed, or after Recover restored from the store — and a
	// checkpoint may therefore be a delta.
	chained bool
}

// DurabilityOptions configures EnableDurability and Recover.
type DurabilityOptions struct {
	// CheckpointEvery is the number of committed transactions between
	// automatic snapshot+reset checkpoints. 0 disables automatic
	// checkpoints; Checkpoint can always be called explicitly.
	CheckpointEvery int
}

// fullRewriteFactor sets when a checkpoint writes a full frame instead
// of a delta: once the delta frames since the last full frame exceed
// this many times its bytes (wal.SnapshotStore.FullBytes) — the image
// as the store holds it, every page patched against zeros, which
// pages × page size would overstate several times over. A rewrite of
// size S thus follows at least 2S of deltas, so full frames add at most
// half again to the delta stream (amortised ≤ 1.5× what changed), and
// recovery never reads more than one image plus two images' worth of
// deltas.
const fullRewriteFactor = 2

// WAL record kinds. 2 and 3 were the per-trigger refresh record and the
// sibling-group refresh record of earlier builds; the numbers stay
// retired so that a log written then is refused as an unknown kind
// rather than misread as a unit.
const (
	recCommit  uint8 = 1
	recRefresh uint8 = 4
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
	// views and force are a refresh record's: the refreshUnit that ran,
	// its views by name.
	views []string
	force bool
}

// code walks a record's byte layout: [8 seq][1 kind], then for a commit
// the two clocks and the ops — each in CodeTxOp's layout followed by
// the [8 id] it was assigned (an insert's tuple, an update's
// replacement; a delete assigns none) — and for a refresh the view
// names, [1 force] and the two clocks.
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
		tuple.List(c, &rec.views, 1, (*tuple.Coder).Str)
		c.Bool(&rec.force)
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
// is logged ahead of the next sync.
//
// Durability replays as a serial program: with it enabled, RefreshAll
// runs its units serially regardless of MaxRefreshWorkers, and the
// byte-identical-recovery guarantee assumes transactions are issued
// serially (concurrent use remains safe and logically correct, but
// tuple ids allocated by racing transactions need not replay
// identically).
func (db *Database) EnableDurability(walDev, snapDev storage.Device, opts DurabilityOptions) error {
	db.lock()
	defer db.mu.Unlock()
	if db.dur != nil {
		return fmt.Errorf("core: durability already enabled")
	}
	// The engine's history starts here: a used device's records have
	// no frame to replay over, and a rewound log must not leave them
	// behind its own.
	if err := walDev.Truncate(0); err != nil {
		return err
	}
	if err := walDev.Sync(); err != nil {
		return err
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

// Checkpoint forces a snapshot + log-reset checkpoint now.
func (db *Database) Checkpoint() error {
	db.lock()
	defer db.mu.Unlock()
	if db.dur == nil {
		return fmt.Errorf("core: durability not enabled")
	}
	return db.checkpointLocked()
}

// checkpointLocked runs both halves of the checkpoint back to back;
// caller holds the engine write lock and db.dur is non-nil.
func (db *Database) checkpointLocked() error {
	f, err := db.encodeFrameLocked()
	if err != nil {
		return err
	}
	return db.dur.writeFrame(f)
}

// ckptFrame is a checkpoint encoded and not yet written.
type ckptFrame struct {
	seq  uint64
	kind wal.FrameKind
	buf  []byte
	// logEnd is the log's tail at the encode: where the frame's last
	// record ended.
	logEnd int64
}

// encodeFrameLocked is the checkpoint's first half: it takes ckptMu,
// which writeFrame releases, and encodes the frame. Once it returns
// the disk's recorded changes are the frame's to carry. Caller holds
// the engine write lock and db.dur is non-nil.
func (db *Database) encodeFrameLocked() (ckptFrame, error) {
	d := db.dur
	d.ckptMu.Lock()
	kind := wal.FrameDelta
	if !d.chained || d.snaps.DeltaBytes() > fullRewriteFactor*d.snaps.FullBytes() {
		kind = wal.FrameFull
	}
	buf, err := db.snapshotBodyLocked(kind == wal.FrameFull, d.frameBuf, wal.FrameReserve)
	if err != nil {
		d.ckptMu.Unlock()
		return ckptFrame{}, fmt.Errorf("core: checkpoint snapshot: %w", err)
	}
	db.disk.ResetChanges()
	d.commitsSinceCkpt = 0
	return ckptFrame{seq: d.seq.Load(), kind: kind, buf: buf, logEnd: d.log.Offset()}, nil
}

// writeFrame is the checkpoint's second half, which needs no engine
// lock: append and sync the frame, then reset the log unless a record
// arrived since the encode. The reset rewinds a log that fits one page
// and truncates a larger one (wal.Log.ResetAt), so it is usually no
// device call at all. It releases ckptMu.
func (d *durability) writeFrame(f ckptFrame) error {
	defer d.ckptMu.Unlock()
	err := d.snaps.AppendFramed(f.seq, f.kind, f.buf)
	d.frameBuf = f.buf
	if err != nil {
		// The disk already forgot what this frame carried, and a delta
		// against a frame that never landed cannot be applied: the next
		// frame is full.
		d.chained = false
		return fmt.Errorf("core: checkpoint append: %w", err)
	}
	d.chained = true
	// Stale log records (all seq ≤ the frame's) can go. A crash before
	// appends overwrite them just leaves them to be skipped by seq at
	// recovery.
	if err := d.log.ResetAt(f.logEnd); err != nil {
		return fmt.Errorf("core: checkpoint log reset: %w", err)
	}
	return nil
}

// catalogCheckpointLocked is the catalog-change hook: DDL and tuning
// changes are snapshotted eagerly instead of logged, so WAL records
// never reference catalog state the recovery snapshot lacks. The
// change's operation has ended first, so every page it wrote is written,
// and charged, by the change that wrote it.
func (db *Database) catalogCheckpointLocked() error {
	if db.dur == nil {
		return nil
	}
	return db.checkpointLocked()
}

// appendRecordLocked gives the record the next sequence number and the
// current id clock as its ClockAfter, and appends it without a sync: a
// commit waits for one in awaitDurable, a refresh record rides the
// next (see the file comment). The record is encoded behind room for
// its frame header, with spare room for the zero header the log may
// write behind it, and handed to the log as it is. Caller holds the
// engine write lock.
func (db *Database) appendRecordLocked(rec *walRecord) error {
	d := db.dur
	rec.seq, rec.clockAfter = d.seq.Load()+1, db.clock.Load()
	enc := tuple.NewEncoder(make([]byte, frame.HeaderSize, frame.HeaderSize+256+frame.HeaderSize)).Compact()
	rec.code(&enc)
	f, err := enc.Done()
	if err != nil {
		return err
	}
	if err := d.log.AppendFramed(f); err != nil {
		return err
	}
	d.seq.Store(rec.seq)
	if rec.kind == recCommit {
		d.lastCommit = rec.seq
	}
	return nil
}

// awaitDurable returns once every record up to seq is synced: group
// commit. The first waiter to take syncMu notes the last record
// appended, syncs, and marks everything up to it durable; the waiters
// queued behind it find their record covered, or lead the next sync
// for the records appended during this one. Needs no engine lock, and
// is one atomic load when seq is durable already. A nil d (durability
// off) has nothing to wait for.
func (d *durability) awaitDurable(seq uint64) error {
	if d == nil || d.durable.Load() >= seq {
		return nil
	}
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	if d.durable.Load() >= seq {
		return nil
	}
	upTo := d.seq.Load()
	if err := d.log.Sync(); err != nil {
		return err
	}
	d.durable.Store(upTo)
	return nil
}

// commitWait is what a commit still owes its caller once the engine
// lock is released: a sync covering its record, and the checkpoint
// frame it encoded, if it crossed CheckpointEvery. The zero value (no
// durability) owes nothing.
type commitWait struct {
	d     *durability
	seq   uint64
	frame ckptFrame
}

// settle waits for the commit's record to be durable, then writes its
// frame. The frame is written even when the sync failed: ckptMu must
// be released, and the frame holds nothing the log would not. The
// first error is returned.
func (w commitWait) settle() error {
	if w.d == nil {
		return nil
	}
	err := w.d.awaitDurable(w.seq)
	if err != nil {
		err = fmt.Errorf("core: logging commit: %w", err)
	}
	if w.frame.buf != nil {
		if ferr := w.d.writeFrame(w.frame); err == nil {
			err = ferr
		}
	}
	return err
}

// logCommitLocked appends a transaction's commit record and runs the
// periodic checkpoint policy, encoding the frame when the commit
// crosses CheckpointEvery; the returned commitWait does the rest after
// the lock is released. A no-op when durability is off.
func (db *Database) logCommitLocked(ops []txOp, clockBefore uint64) (commitWait, error) {
	d := db.dur
	if d == nil {
		return commitWait{}, nil
	}
	if err := db.appendRecordLocked(&walRecord{kind: recCommit, ops: ops, clockBefore: clockBefore}); err != nil {
		return commitWait{}, fmt.Errorf("core: logging commit: %w", err)
	}
	w := commitWait{d: d, seq: d.lastCommit}
	d.commitsSinceCkpt++
	if d.checkpointEvery > 0 && d.commitsSinceCkpt >= d.checkpointEvery {
		f, err := db.encodeFrameLocked()
		if err != nil {
			// The record is appended: the commit still waits for its sync.
			return w, err
		}
		w.frame = f
	}
	return w, nil
}

// logRefreshLocked appends the refresh record of a unit that ran. A
// no-op when durability is off.
func (db *Database) logRefreshLocked(u refreshUnit, clockBefore uint64) error {
	if db.dur == nil {
		return nil
	}
	rec := walRecord{kind: recRefresh, views: u.names(), force: u.force, clockBefore: clockBefore}
	if err := db.appendRecordLocked(&rec); err != nil {
		return fmt.Errorf("core: logging refresh of %q: %w", rec.views, err)
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
	// Skipped counts records older than the snapshot: the residue of a
	// crash between a checkpoint's snapshot sync and the appends after
	// its log reset, the stale frames of a rewound log.
	Skipped int
	// TailDamage is "" for a clean log end (the device's end, a zero
	// header, or a record whose seq does not exceed the previous
	// record's), "torn" when replay stopped at an incomplete record or
	// at one whose seq skips past the next, "corrupt" at a
	// checksum/decode failure.
	TailDamage string
}

// Recover rebuilds a database from its durability devices: assemble
// the newest image (the last full frame plus the delta frames after
// it), replay every WAL record newer than it, and stop at the log's
// end: the first torn or corrupt record (the unsynced residue of the
// crash — by the commit barrier, nothing that was acknowledged can be
// in the damaged tail), or the first record whose seq does not exceed
// the previous record's (a stale frame of a rewound log, behind a
// record whose zero header the crash tore off). The returned engine
// continues logging on the same devices from where replay stopped, so
// no later append lands behind a stale frame. The meter starts at
// zero: recovery is setup, not workload.
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
	seqs, lastSeq := wal.NewSeqs(snapSeq), snapSeq
	var end int64 // where replay stopped: the next append's offset
	db.lock()
	for {
		end = r.Offset()
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
		if ok, torn := seqs.Next(rec.seq); !ok {
			// A stale frame ends the log cleanly; a record past one
			// that never landed (the crash kept a later write of an
			// overwrite and lost an earlier one) ends it torn.
			if torn {
				info.TailDamage = "torn"
			}
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

	// Reattach durability where replay stopped, so new appends land
	// right after the last record read.
	log, err := wal.OpenLogAt(walDev, end)
	if err != nil {
		return nil, nil, err
	}
	d := &durability{log: log, snaps: snaps, checkpointEvery: opts.CheckpointEvery, chained: true}
	d.seq.Store(lastSeq)
	d.durable.Store(lastSeq)
	db.lock()
	db.dur = d
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
		err = db.run(opWhat{kind: "commit", tx: rec.ops}, func(o *op) error { return o.applyOpsLocked(rec.ops) })
	case recRefresh:
		u := refreshUnit{force: rec.force}
		for _, name := range rec.views {
			vs, ok := db.views[name]
			if !ok {
				return fmt.Errorf("core: refresh record for unknown view %q", name)
			}
			u.views = append(u.views, vs)
		}
		err = db.run(opWhat{kind: "refresh"}, func(o *op) error { return o.runUnitLocked(u) })
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
