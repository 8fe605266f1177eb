package core

import "viewmat/internal/storage"

// Health is a point-in-time snapshot of the engine's externally
// observable state, assembled for serving-layer health/stats endpoints
// (cmd/viewmatd exposes it over the wire). Counters are read under the
// same guards their writers use, so a snapshot taken under concurrent
// load is internally consistent per field, though fields sampled at
// slightly different instants may straddle an in-flight operation.
type Health struct {
	// Relations and Views count catalog objects.
	Relations int
	Views     int
	// Queries and Commits are the engine's lifetime operation counters
	// (reset by ResetStats).
	Queries int
	Commits int
	// Meter is the current metered cost snapshot.
	Meter storage.Stats
	// PoolResident is the frames held by the pools of the operations
	// running now, 0 when the engine is idle; PoolCapacity is the frame
	// capacity of one operation's pool.
	PoolResident int
	PoolCapacity int
	// Durable reports whether a WAL is attached.
	Durable bool
	// RefreshLeaders and RefreshWaiters count single-flight refreshes
	// led vs joined.
	RefreshLeaders int64
	RefreshWaiters int64
}

// Health returns a snapshot of engine state for monitoring.
func (db *Database) Health() Health {
	h := Health{
		Meter:        db.meter.Snapshot(),
		PoolResident: db.arena.Resident(),
		PoolCapacity: db.arena.Capacity(),
	}
	h.RefreshLeaders, h.RefreshWaiters = db.flightLeaders.Load(), db.flightWaiters.Load()
	db.mu.RLock()
	h.Relations = len(db.rels)
	h.Views = len(db.views)
	h.Durable = db.dur != nil
	db.mu.RUnlock()
	db.statsMu.Lock()
	h.Queries = db.Queries
	h.Commits = db.Commits
	db.statsMu.Unlock()
	return h
}
