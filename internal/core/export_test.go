package core

import (
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// Accessors only the tests read, and the per-view read-outs ViewStats
// folds together, under the names the tests use.

func (db *Database) Disk() *storage.Disk { return db.disk }

func (db *Database) DurabilityEnabled() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.dur != nil
}

func (db *Database) ViewIsStale(name string) (bool, error) {
	s, err := db.ViewStats(name)
	return s.Stale, err
}

func (db *Database) ViewRefreshes(name string) (int, error) {
	s, err := db.ViewStats(name)
	return s.Refreshes, err
}

func (db *Database) ViewDeltaLogLen(name string) (int, error) {
	s, err := db.ViewStats(name)
	return s.DeltaLogLen, err
}

func (db *Database) SnapshotStaleness(name string) (int, error) {
	s, err := db.ViewStats(name)
	return s.StaleCommits, err
}

// assertUnpinned fails the test if the pools of the database hold any
// frame with no operation running: an operation ended with a pin still
// held, and its pool was left as it was.
func (db *Database) assertUnpinned(t interface {
	Helper()
	Errorf(format string, args ...any)
}) {
	t.Helper()
	if n := db.arena.Resident(); n != 0 {
		t.Errorf("core: pin leak: %d frame(s) held with no operation running", n)
	}
}

// withPool runs fn, a test's hand on the pages, on the pool of an
// operation of its own under the write lock.
func (db *Database) withPool(fn func(p *storage.Pool) error) error {
	db.lock()
	defer db.mu.Unlock()
	return db.run(opWhat{kind: "test"}, func(o *op) error { return fn(o.pool) })
}

// lookupKey returns rel's rows of clustering key v, read in an operation
// of its own.
func (db *Database) lookupKey(rel string, v tuple.Value) (tps []tuple.Tuple, err error) {
	r, _ := db.Relation(rel)
	err = db.withPool(func(p *storage.Pool) (err error) {
		tps, err = r.LookupKey(p, v)
		return err
	})
	return tps, err
}
