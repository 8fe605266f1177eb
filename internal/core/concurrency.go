package core

import (
	"fmt"
	"strings"
	"sync"

	"viewmat/internal/storage"
)

// This file implements the engine's concurrency machinery beyond the
// plain reader/writer lock in Database.mu:
//
//   - acquireFresh: the read path's staleness test (viewStale,
//     strategy.go) decides whether a query can stay on the shared lock
//     or must upgrade to a refresh,
//   - refreshStale: a per-view single-flight latch, so N queries
//     arriving at the same stale deferred view trigger exactly one
//     differential refresh while the other N−1 wait for its result,
//   - RefreshAll: the §4 "idle time" refresh generalized to the whole
//     catalog, with independent stale views refreshed in parallel by a
//     bounded worker pool (Options.MaxRefreshWorkers),
//   - runUnitLocked: the one function through which every refresh
//     outside a commit runs and is logged — the leader's, RefreshAll's,
//     an explicit RefreshSnapshot or RefreshDeferredNow, and WAL replay
//     of any of them.
//
// The paper's deferred strategy wins precisely when many update
// transactions interleave with occasional view reads; these pieces are
// what let that regime actually run concurrently instead of being
// simulated one operation at a time.

// refreshFlight is one in-flight single-flight refresh: the leader
// closes done after storing err; waiters block on done and share err.
type refreshFlight struct {
	done chan struct{}
	err  error
}

// acquireFresh returns the view with the engine read lock held,
// refreshing it first (through the single-flight path) if it is stale,
// and the operation the read runs in. On success the caller holds db.mu's
// read lock and must release it and end the operation. A read that led
// the refresh goes on on the refresh's pool, whose frames are the
// refresh's pages — the accounting of the paper's refresh-then-read
// query — unless a writer took the lock in between: then the refresh
// ends as an operation of its own, and the read starts on a cold pool,
// so a carried pool never holds a page a later writer changed.
func (db *Database) acquireFresh(name string) (*viewState, *op, error) {
	var led *op
	for {
		db.mu.RLock()
		vs, ok := db.views[name]
		fresh := ok && !db.viewStale(vs)
		if led != nil && (!fresh || led.gen != db.writes) {
			if _, err := led.end(opWhat{kind: "refresh", view: name}); err != nil {
				db.mu.RUnlock()
				return nil, nil, err
			}
			led = nil
		}
		if fresh {
			if led == nil {
				led = db.begin()
			}
			led.locked()
			return vs, led, nil
		}
		db.mu.RUnlock()
		if !ok {
			return nil, nil, fmt.Errorf("core: unknown view %q", name)
		}
		var err error
		if led, err = db.refreshStale(name); err != nil {
			return nil, nil, err
		}
		if led != nil && db.afterLead != nil {
			db.afterLead()
		}
	}
}

// refreshStale brings the named view current under the engine write
// lock, coalescing concurrent callers: the first caller becomes the
// leader and performs the refresh; callers arriving while it runs wait
// on its latch and share its error instead of queueing for the write
// lock to redo work that is already done. The leader gets the refresh's
// operation back, not yet ended; a waiter, and a leader that found
// nothing to refresh, get nil.
func (db *Database) refreshStale(name string) (*op, error) {
	db.flightMu.Lock()
	if fl, ok := db.inflight[name]; ok {
		db.flightMu.Unlock()
		db.flightWaiters.Add(1)
		<-fl.done
		return nil, fl.err
	}
	fl := &refreshFlight{done: make(chan struct{})}
	db.inflight[name] = fl
	db.flightMu.Unlock()

	o, err := db.leaderRefresh(name)
	fl.err = err

	db.flightMu.Lock()
	delete(db.inflight, name)
	db.flightMu.Unlock()
	close(fl.done)
	return o, err
}

// leaderRefresh is the single-flight leader's work: take the write
// lock, re-check staleness (a commit-time periodic refresh or an
// earlier leader may have run meanwhile), and refresh, on a cold pool.
// The pool's dirty frames are written back before the lock is let go,
// so the images other readers read in place are current.
func (db *Database) leaderRefresh(name string) (*op, error) {
	db.lock()
	defer db.mu.Unlock()
	vs, ok := db.views[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown view %q", name)
	}
	if !db.viewStale(vs) {
		// A caller that saw the view stale but reached the latch only after
		// the refresh it would have joined was over has led nothing.
		return nil, nil
	}
	db.flightLeaders.Add(1)
	o := db.begin()
	o.locked()
	err := o.runUnitLocked(refreshUnit{views: []*viewState{vs}})
	if err == nil {
		err = o.pool.FlushAll()
	}
	if err != nil {
		o.end(opWhat{kind: "refresh", view: name})
		return nil, err
	}
	return o, nil
}

// refreshNow is an explicit refresh of one view of the given strategy
// (RefreshSnapshot, RefreshDeferredNow): an operation of its own, like a
// query-triggered one, and forced — the caller's say-so stands in for
// the strategy's trigger.
func (db *Database) refreshNow(view string, want Strategy) error {
	db.lock()
	defer db.mu.Unlock()
	vs, ok := db.views[view]
	if !ok {
		return fmt.Errorf("core: unknown view %q", view)
	}
	if vs.strategy != want {
		return fmt.Errorf("core: view %q is not a %s view", view, want)
	}
	return db.run(opWhat{kind: "refresh", view: view}, func(o *op) error {
		return o.runUnitLocked(refreshUnit{views: []*viewState{vs}, force: true})
	})
}

// refreshUnit is one refresh outside a commit, and exactly what a
// refresh WAL record holds: the views brought current, in order, and
// whether the strategy's own staleness test is skipped. RefreshAll
// schedules units that are independent of each other — a deferred
// connected component (represented by one of its views: its fold pulls
// in the rest through shared hypothetical relations), a batch of stale
// snapshot/recompute views over the same relation list, or sibling
// children standing at one position of their parent's delta log; a
// query's read-time refresh and an explicit refresh are units of one
// view.
type refreshUnit struct {
	views []*viewState
	force bool
}

// names are the unit's views as a record and a stat name them.
func (u refreshUnit) names() []string {
	out := make([]string, len(u.views))
	for i, vs := range u.views {
		out[i] = vs.def.Name
	}
	return out
}

// RefreshUnitStat records one RefreshAll unit's work: the views it was
// scheduled under, the metered I/O spanning its refresh, and the join
// delta-expansion passes it ran — its own, however workers interleave.
// Tests and the scheduler-quality assertions consume this instead of
// wall-clock time.
type RefreshUnitStat struct {
	Views      []string
	IO         storage.Stats
	DeltaScans int64
}

// LastRefreshUnits returns the per-unit stats of the most recent
// RefreshAll (nil if none ran or nothing was stale).
func (db *Database) LastRefreshUnits() []RefreshUnitStat {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	out := make([]RefreshUnitStat, len(db.lastRefreshUnits))
	copy(out, db.lastRefreshUnits)
	return out
}

// RefreshAll brings every stale materialized view current — the §4
// idle-time refresh for the whole catalog, so subsequent queries find
// their views fresh and pay only the read. Independent stale units
// (views sharing no base relation, directly or transitively) are
// refreshed in parallel by up to MaxRefreshWorkers workers, each unit an
// operation of its own; refreshed serially, they share the RefreshAll's
// operation, as they share its cold start. Deferred views connected
// through shared hypothetical relations refresh together as one unit —
// and share delta sub-plans within it — exactly as a query-triggered
// refresh would. Child views then drain their parents' delta logs level
// by level, serially, in the RefreshAll's operation: each level depends
// on the one above, so the topological barrier is inherent, and
// parents' logs mutate as children drain.
func (db *Database) RefreshAll() error {
	db.lock()
	defer db.mu.Unlock()
	units := db.staleUnitsLocked()
	if len(units) == 0 && !db.anyStaleChildLocked() {
		return nil
	}
	var stats []RefreshUnitStat
	defer func() {
		db.statsMu.Lock()
		db.lastRefreshUnits = stats
		db.statsMu.Unlock()
	}()
	workers := db.maxRefreshWorkers
	if db.dur != nil {
		// WAL replay is a serial program: with durability on, units
		// refresh serially so the log's record order fully determines
		// the recovered state (see durability.go).
		workers = 1
	}
	return db.run(opWhat{kind: "refresh-all"}, func(o *op) error {
		o.locked()
		if err := o.runUnitsLocked(units, workers, &stats); err != nil {
			return err
		}
		for _, level := range db.childLevelsLocked() {
			if err := o.runUnitsLocked(db.staleChildUnitsLocked(level), 1, &stats); err != nil {
				return err
			}
		}
		return nil
	})
}

// runUnitsLocked refreshes the units on up to workers goroutines, each
// unit an operation of its own, or in order in the caller's operation
// (workers ≤ 1), appending one stat per unit. After a failure no further
// unit starts on that schedule.
func (db *op) runUnitsLocked(units []refreshUnit, workers int, stats *[]RefreshUnitStat) error {
	out := make([]RefreshUnitStat, len(units))
	errs := make([]error, len(units))
	if workers > len(units) {
		workers = len(units)
	}
	if workers <= 1 {
		for i, u := range units {
			before, scans := db.scope.Snapshot(), db.scans
			errs[i] = db.runUnitLocked(u)
			out[i] = RefreshUnitStat{Views: u.names(), IO: db.scope.Snapshot().Sub(before), DeltaScans: db.scans - scans}
			if errs[i] != nil {
				break
			}
		}
	} else {
		run := func(i int) bool {
			u := db.begin()
			errs[i] = u.runUnitLocked(units[i])
			out[i] = RefreshUnitStat{Views: units[i].names(), DeltaScans: u.scans}
			var err error
			out[i].IO, err = u.end(opWhat{kind: "unit", view: strings.Join(out[i].Views, ",")})
			if errs[i] == nil {
				errs[i] = err
			}
			return errs[i] == nil
		}
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ok := true
				for i := range jobs {
					if ok { // drain remaining jobs after a failure
						ok = run(i)
					}
				}
			}()
		}
		for i := range units {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	*stats = append(*stats, out...)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runUnitLocked is the one refresh entry outside a commit: every live
// caller (a query's single-flight leader, RefreshAll, RefreshSnapshot,
// RefreshDeferredNow) and WAL replay run a unit here and nowhere else.
// The refresh mutates durable state outside a commit, so it is logged
// as it ran, bracketed by the id clock before and after; replay hands
// the record's unit back to this function, which applies the same
// deltas and draws the same tuple ids (logging is a no-op without a
// WAL — during replay, and the only case in which RefreshAll's workers
// run this concurrently).
//
// Siblings standing at one position of their fresh parent's log drain
// it together, as one refresh group sharing one replay of the suffix;
// anything else is brought current view by view, in order, by the
// strategy's rule.
func (db *op) runUnitLocked(u refreshUnit) error {
	clockBefore := db.clock.Load()
	if parent := db.siblingParentLocked(u.views); parent != nil {
		err := db.inPhase(PhaseDefRefresh, func() error { return db.drainChildrenLocked(u.views, parent) })
		if err != nil {
			return err
		}
	} else {
		for _, vs := range u.views {
			if err := db.refreshStaleLocked(vs, u.force); err != nil {
				return err
			}
		}
	}
	return db.logRefreshLocked(u, clockBefore)
}

// siblingParentLocked returns the view whose delta log the views drain
// together — they are two or more differential children of it, all at
// one log position, and it is fresh — or nil.
func (db *Database) siblingParentLocked(views []*viewState) *viewState {
	if len(views) < 2 {
		return nil
	}
	parent := db.parentOf(views[0])
	if parent == nil || db.viewStale(parent) {
		return nil
	}
	at := logPositionOf(views[0])
	for _, vs := range views {
		if pos := logPositionOf(vs); !vs.row().delta || pos != at {
			return nil
		}
	}
	return parent
}

// anyStaleChildLocked reports whether the hierarchy pass has work.
func (db *Database) anyStaleChildLocked() bool {
	for _, vs := range db.views {
		if db.parentOf(vs) != nil && db.viewStale(vs) {
			return true
		}
	}
	return false
}

// staleUnitsLocked returns the independent stale top-level refresh
// units (children refresh in the hierarchy phase, after their parents):
// each connected component of deferred views (over shared relations)
// with pending HR changes, plus the stale rebuilt-at-read views batched
// by their relation list (so recomputes over the same base scan
// back-to-back rather than racing for its pages). Units touch disjoint
// base files — deferred components by construction, recomputes because
// the conflict rule rejects base-file readers sharing a relation with
// deferred views — so they are safe to refresh in parallel. Caller
// holds the write lock.
func (db *Database) staleUnitsLocked() []refreshUnit {
	var units []refreshUnit
	seen := map[*viewState]bool{}
	batchIdx := map[string]int{}
	for _, n := range db.viewNamesLocked() {
		vs := db.views[n]
		row := vs.row()
		switch {
		case db.parentOf(vs) != nil:
			// Refreshed in the hierarchy phase.
		case row.wrapsHR:
			if seen[vs] {
				continue
			}
			_, component, pending := db.hrComponentLocked(vs.def.Relations[0])
			for _, other := range component {
				seen[other] = true
			}
			if len(pending) > 0 {
				units = append(units, refreshUnit{views: []*viewState{vs}})
			}
		case row.rebuilds() && db.viewStale(vs):
			key := strings.Join(vs.def.Relations, "\x00")
			i, ok := batchIdx[key]
			if !ok {
				i = len(units)
				batchIdx[key] = i
				units = append(units, refreshUnit{})
			}
			units[i].views = append(units[i].views, vs)
		}
	}
	return units
}

// SetMaxRefreshWorkers rebounds RefreshAll's worker pool (≤ 1 =
// serial); see Options.MaxRefreshWorkers.
func (db *Database) SetMaxRefreshWorkers(n int) {
	db.lock()
	db.maxRefreshWorkers = n
	db.mu.Unlock()
}

// ViewStats is what a view reports about its maintenance.
type ViewStats struct {
	// Stale reports whether a query against the view would trigger
	// refresh work right now.
	Stale bool
	// Refreshes counts the materialization refreshes (deferred
	// differential refreshes or full recomputes) the view has undergone.
	Refreshes int
	// DeltaLogLen is how many unconsumed entries the view's delta log
	// holds for the views defined over it.
	DeltaLogLen int
	// StaleCommits counts the commits that touched the view's base
	// relations since its last refresh: a snapshot view's staleness, a
	// periodically refreshed deferred view's progress to its next one.
	StaleCommits int
}

// ViewStats reports the named view's maintenance state.
func (db *Database) ViewStats(name string) (ViewStats, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	vs, ok := db.views[name]
	if !ok {
		return ViewStats{}, fmt.Errorf("core: unknown view %q", name)
	}
	return ViewStats{
		Stale:        db.viewStale(vs),
		Refreshes:    vs.refreshes,
		DeltaLogLen:  len(vs.deltaLog),
		StaleCommits: vs.staleCommits,
	}, nil
}
