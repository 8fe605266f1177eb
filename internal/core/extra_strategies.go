package core

import "fmt"

// This file implements the two further view-refresh mechanisms the
// paper's introduction surveys beyond its three contenders:
//
//   - Database snapshots [Adib80, Lind86]: a stored copy of the view
//     that is periodically refreshed by full recomputation. Reads
//     between refreshes may be stale — that is the mechanism's
//     contract — which is why the paper analyzes it separately from
//     the always-consistent strategies.
//
//   - Buneman–Clemons recompute-on-demand [Bune79]: every tuple a
//     commit writes is screened (the per-tuple two-stage test); when
//     screening cannot rule out that one changes the view, the view is
//     marked dirty and completely recomputed before its next read.
//     [Bune79]'s per-command readily-ignorable-update test has no
//     input here: a Tx writes whole rows, naming no written columns.
//     Updates are as cheap as possible; refreshes are as expensive as
//     possible.
//
// Both reuse the materialized store and the screening machinery; they
// differ from immediate/deferred only in when and how the copy is
// rebuilt.

// Additional strategies (extending the paper's three).
const (
	// Snapshot keeps a periodically recomputed copy; reads may be
	// stale by up to the refresh interval.
	Snapshot Strategy = iota + 100
	// RecomputeOnDemand recomputes the whole view before a read
	// whenever some screened update might have changed it [Bune79].
	RecomputeOnDemand
)

// SetSnapshotInterval sets how many commits may pass before a snapshot
// view is refreshed at the next query (0 = refresh on every query,
// making it a full-recompute analogue of deferred maintenance).
// Applies only to Snapshot views.
func (db *Database) SetSnapshotInterval(view string, commits int) error {
	db.lock()
	defer db.mu.Unlock()
	vs, ok := db.views[view]
	if !ok {
		return fmt.Errorf("core: unknown view %q", view)
	}
	if vs.strategy != Snapshot {
		return fmt.Errorf("core: view %q is not a snapshot view", view)
	}
	if commits < 0 {
		return fmt.Errorf("core: negative snapshot interval")
	}
	vs.snapshotEvery = commits
	return db.catalogCheckpointLocked()
}

// RefreshSnapshot forces an immediate full recomputation of a snapshot
// view (the DBA's "refresh snapshot" command of [Lind86]). A snapshot
// over a view is rebuilt from that view brought current first, like
// every other refresh of a child.
func (db *Database) RefreshSnapshot(view string) error {
	return db.refreshNow(view, Snapshot)
}

// recomputeView rebuilds a view's stored copy from the current
// contents of its source: truncate, then repopulate — every page of the
// old copy is dropped and the new copy written out, which is exactly
// the "completely recomputed" cost profile of [Bune79].
func (db *op) recomputeView(vs *viewState) error {
	defer func() { vs.refreshes++ }()
	if err := db.newStoreLocked(vs); err != nil {
		return err
	}
	if err := db.fillStoreLocked(vs); err != nil {
		return err
	}
	// A recompute restarts the view's delta-log history: children can no
	// longer interpret positions in the old log, so bump the generation
	// (they will recompute from the fresh copy on their next refresh).
	if len(db.children[vs.def.Name]) > 0 || len(vs.deltaLog) > 0 {
		vs.logGen++
		vs.logStart = vs.logEnd()
		vs.deltaLog = nil
	}
	// A child's recompute read the parent's current rows, which covers
	// everything logged so far.
	if p := db.parentOf(vs); p != nil {
		vs.parentPos, vs.parentGen = p.logEnd(), p.logGen
	}
	vs.staleCommits = 0
	vs.dirty = false
	return nil
}
