package core

import (
	"fmt"
	"sort"

	"viewmat/internal/hr"
	"viewmat/internal/relation"
	"viewmat/internal/tuple"
)

// Heavy-light partitioning of skewed update streams, after the
// heavy-light decomposition of [AbKo19] (PAPERS.md): on a relation
// wrapped by a hypothetical relation (i.e. feeding deferred views),
// keys whose observed update frequency crosses a threshold take the
// eager path — the write lands directly in the base file and the
// affected deferred views refresh differentially inside the commit —
// while the long tail keeps accumulating lazily in the AD file and
// folds in on the next refresh. Under a zipfian stream the hot keys
// are a handful, so the eager work per commit stays tiny, and the AD
// file (whose scan cost every deferred refresh pays) stops growing
// with the hot keys' traffic.
//
// Correctness around the two paths meeting on one key is ordered by
// the HR's Bloom filter: a key with any entry pending in the AD file
// tests MayContain and is forced light, so same-key operations are
// never reordered across the paths (false positives just stay light —
// conservative). The filter resets on fold, re-opening the eager path
// each refresh cycle. Relations feeding a deferred join view opt out:
// the join delta expansion reconstructs pre-transaction states from
// the AD file, which the eager path bypasses.

// hlTracker observes one relation's per-key update frequencies and
// classifies keys as heavy once their share of the stream crosses the
// threshold. Counts are part of the engine state: they persist in
// checkpoints so WAL replay classifies identically.
type hlTracker struct {
	threshold float64
	minTotal  int64
	total     int64
	counts    map[string]int64
	heavyOps  int64
	lightOps  int64
}

// observe records one operation on key and reports whether the key is
// currently heavy. The minTotal warmup keeps early commits from
// promoting keys on tiny samples.
func (t *hlTracker) observe(key tuple.Value) bool {
	k := key.String()
	t.counts[k]++
	t.total++
	return t.total >= t.minTotal && float64(t.counts[k]) >= t.threshold*float64(t.total)
}

// EnableHeavyLight turns on heavy-light partitioning for a base
// relation: keys carrying at least threshold (0 < threshold ≤ 1) of
// the relation's observed operations — measured after minTotal
// operations — are maintained eagerly through the delta path.
// workload.SuggestThreshold derives a threshold from a sample stream.
func (db *Database) EnableHeavyLight(rel string, threshold float64, minTotal int) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.rels[rel]; !ok {
		return fmt.Errorf("core: unknown relation %q", rel)
	}
	if threshold <= 0 || threshold > 1 {
		return fmt.Errorf("core: heavy-light threshold %v outside (0, 1]", threshold)
	}
	db.heavy[rel] = &hlTracker{
		threshold: threshold,
		minTotal:  int64(minTotal),
		counts:    map[string]int64{},
	}
	// Classification state steers future commits; checkpoint so replay
	// starts from the same counts.
	return db.catalogCheckpointLocked()
}

// DisableHeavyLight removes the relation's tracker; subsequent commits
// take the lazy path uniformly.
func (db *Database) DisableHeavyLight(rel string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.heavy[rel]; !ok {
		return nil
	}
	delete(db.heavy, rel)
	return db.catalogCheckpointLocked()
}

// HeavyLightStat reports one tracked relation's classification state.
type HeavyLightStat struct {
	Rel       string
	Threshold float64
	Total     int64
	HeavyOps  int64 // operations routed eagerly to the base file
	LightOps  int64 // operations accumulated lazily in the AD file
	HotKeys   []string
}

// HeavyLightStats returns per-relation heavy-light state, sorted by
// relation name; HotKeys lists the keys currently over threshold,
// sorted.
func (db *Database) HeavyLightStats() []HeavyLightStat {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]HeavyLightStat, 0, len(db.heavy))
	for _, n := range sortedKeys(db.heavy) {
		t := db.heavy[n]
		st := HeavyLightStat{
			Rel:       n,
			Threshold: t.threshold,
			Total:     t.total,
			HeavyOps:  t.heavyOps,
			LightOps:  t.lightOps,
		}
		if t.total >= t.minTotal {
			for k, c := range t.counts {
				if float64(c) >= t.threshold*float64(t.total) {
					st.HotKeys = append(st.HotKeys, k)
				}
			}
			sort.Strings(st.HotKeys)
		}
		out = append(out, st)
	}
	return out
}

// relFeedsDeferredJoinLocked reports whether any deferred join view
// depends on the relation — the case where eager base writes would
// invalidate the join delta expansion's epoch reconstruction.
func (db *Database) relFeedsDeferredJoinLocked(rel string) bool {
	for _, vs := range db.views {
		if vs.strategy != Deferred || vs.def.Kind != Join {
			continue
		}
		for _, rn := range vs.def.Relations {
			if rn == rel {
				return true
			}
		}
	}
	return false
}

// hlRouter is applyOpsLocked's per-commit routing state: it memoizes
// the join-view check per relation and records which tuple ids went
// eagerly so the post-screen refresh can restrict marked deltas to
// the heavy subset.
type hlRouter struct {
	db          *Database
	joinBlocked map[string]bool
	heavyIDs    map[uint64]bool
}

func (db *Database) newHLRouter() *hlRouter {
	return &hlRouter{db: db, joinBlocked: map[string]bool{}, heavyIDs: map[uint64]bool{}}
}

// routeHeavy decides one operation's path. The relation must be
// HR-wrapped for the decision to matter; untracked or unwrapped
// relations always answer false (the pre-existing paths).
func (r *hlRouter) routeHeavy(rel string, h *hr.HR, key tuple.Value) bool {
	t := r.db.heavy[rel]
	if t == nil {
		return false
	}
	hot := t.observe(key)
	if h == nil {
		return false
	}
	if !hot {
		t.lightOps++
		return false
	}
	jb, ok := r.joinBlocked[rel]
	if !ok {
		jb = r.db.relFeedsDeferredJoinLocked(rel)
		r.joinBlocked[rel] = jb
	}
	if jb || h.Filter().MayContain(key.String()) {
		t.lightOps++
		return false
	}
	t.heavyOps++
	return true
}

// insertKey extracts the clustering-key value of an insert op.
func insertKey(r *relation.Relation, vals []tuple.Value) tuple.Value {
	return vals[r.KeyCol()]
}

// heavySlots filters a view's marked per-slot deltas down to the
// tuples that took the eager path this commit. The light remainder
// stays pending in the AD file for the next deferred refresh.
func heavySlots(slots map[int]*deltas, heavyIDs map[uint64]bool) map[int]*deltas {
	out := map[int]*deltas{}
	for slot, d := range slots {
		hd := &deltas{}
		for _, tp := range d.adds {
			if heavyIDs[tp.ID] {
				hd.adds = append(hd.adds, tp)
			}
		}
		for _, tp := range d.dels {
			if heavyIDs[tp.ID] {
				hd.dels = append(hd.dels, tp)
			}
		}
		if len(hd.adds)+len(hd.dels) > 0 {
			out[slot] = hd
		}
	}
	return out
}
