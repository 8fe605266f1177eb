package core

import "fmt"

// §4 of the paper asks when a deferred view should best be refreshed
// and concludes that waiting as long as possible minimizes I/O (the
// Yao triangle inequality), but notes two useful variations: refresh
// on a period shorter than on-demand (bounding AD growth and read
// latency), and refresh during idle time so queries find the view
// already current. Both are implemented here on top of the deferred
// machinery; the on-demand default stays untouched.

// SetDeferredRefreshEvery makes a deferred view refresh after every n
// commits that touched its relations, in addition to the on-demand
// refresh at query time. n = 0 restores pure on-demand refresh.
//
// n = 1 approximates immediate maintenance built from deferred parts
// (every transaction is followed by an AD read, fold and differential
// refresh) and exists mostly for the ablation benchmarks; small n > 1
// trades extra refresh I/O for bounded AD size and faster queries.
func (db *Database) SetDeferredRefreshEvery(view string, n int) error {
	db.lock()
	defer db.mu.Unlock()
	vs, ok := db.views[view]
	if !ok {
		return fmt.Errorf("core: unknown view %q", view)
	}
	if vs.strategy != Deferred {
		return fmt.Errorf("core: view %q is not deferred", view)
	}
	if n < 0 {
		return fmt.Errorf("core: negative refresh period")
	}
	vs.refreshEvery = n
	return db.catalogCheckpointLocked()
}

// RefreshDeferredNow runs the deferred refresh cycle for a view
// immediately — the §4 "idle CPU and disk time" optimization: a query
// arriving after an idle-time refresh finds the view current and pays
// only the read.
func (db *Database) RefreshDeferredNow(view string) error {
	return db.refreshNow(view, Deferred)
}

// runPeriodicDeferredRefresh is called at the end of Commit: deferred
// views whose refresh period has elapsed (noteCommitLocked counted this
// commit) refresh — in name order, like every other commit-time
// refresh, so replay reproduces the ids they draw.
func (db *op) runPeriodicDeferredRefresh() error {
	var due []*viewState
	for _, vs := range db.views {
		if vs.strategy == Deferred && vs.refreshEvery != 0 && vs.staleCommits >= vs.refreshEvery {
			due = append(due, vs)
		}
	}
	sortViewsByName(due)
	for _, vs := range due {
		if err := db.refreshStaleLocked(vs, false); err != nil {
			return err
		}
		vs.staleCommits = 0
	}
	return nil
}
