// Package hr implements hypothetical relations (Hanson §2.2), the
// change-capture substrate of deferred view maintenance: every update
// to a base relation is recorded in a combined differential file AD
// (clustered hashing on the relation key, one "role" attribute marking
// appended vs. deleted), reads go through a Bloom filter so tuples not
// touched since the last refresh cost no extra I/O, and the net change
// sets A-net and D-net are computed on demand for the differential
// view-update algorithm.
//
// The true value of the relation is (R ∪ A) − D. After a deferred
// refresh consumes the net changes, the HR is reset:
//
//	R := (R ∪ A) − D,  A := ∅,  D := ∅
package hr

import (
	"fmt"

	"viewmat/internal/bloom"
	"viewmat/internal/hashidx"
	"viewmat/internal/relation"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// Role values stored in the AD file's extra column.
const (
	RoleAppended int64 = 0
	RoleDeleted  int64 = 1
)

// HR is a hypothetical relation: a base relation plus its differential
// file. Not safe for concurrent use.
type HR struct {
	base   *relation.Relation
	ad     *hashidx.Index
	filter *bloom.Filter
	pool   *storage.Pool
}

// Config sizes the differential machinery.
type Config struct {
	// ADBuckets is the number of primary bucket pages for the AD file.
	// The paper sizes AD at 2u tuples between refreshes; one bucket per
	// expected page keeps chains short. Defaults to 4.
	ADBuckets int
	// BloomKeys is the expected number of distinct keys in AD between
	// refreshes (used to size the filter). Defaults to 1024.
	BloomKeys int
	// BloomFPRate is the target false-positive rate. Defaults to 0.01,
	// the "arbitrarily small by increasing m" knob of [Seve76].
	BloomFPRate float64
}

// ADMeta is the persistent metadata of the differential file.
type ADMeta = hashidx.Meta

// ADMeta returns the differential file's persistent metadata.
func (h *HR) ADMeta() ADMeta { return h.ad.Meta() }

// Open reattaches an HR to its AD file on a restored disk. The Bloom
// filter is rebuilt by scanning the AD contents (a metered scan —
// loading is setup, so callers reset the meter afterwards).
func Open(disk *storage.Disk, pool *storage.Pool, base *relation.Relation, cfg Config, m ADMeta) (*HR, error) {
	if cfg.BloomKeys <= 0 {
		cfg.BloomKeys = 1024
	}
	if cfg.BloomFPRate <= 0 {
		cfg.BloomFPRate = 0.01
	}
	ad, err := hashidx.Open(pool, disk.Open(base.Name()+".ad"), base.KeyCol(), m)
	if err != nil {
		return nil, err
	}
	h := &HR{base: base, ad: ad, filter: bloom.NewForRate(cfg.BloomKeys, cfg.BloomFPRate), pool: pool}
	entries, err := h.adEntries()
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		h.filter.Add(h.bloomKey(e.Vals[base.KeyCol()]))
	}
	return h, nil
}

// New wraps a base relation in HR change capture. The AD file lives in
// the same disk under "<name>.ad".
func New(disk *storage.Disk, pool *storage.Pool, base *relation.Relation, cfg Config) (*HR, error) {
	if cfg.ADBuckets <= 0 {
		cfg.ADBuckets = 4
	}
	if cfg.BloomKeys <= 0 {
		cfg.BloomKeys = 1024
	}
	if cfg.BloomFPRate <= 0 {
		cfg.BloomFPRate = 0.01
	}
	ad, err := hashidx.New(pool, disk.Open(base.Name()+".ad"), base.KeyCol(), cfg.ADBuckets)
	if err != nil {
		return nil, err
	}
	return &HR{
		base:   base,
		ad:     ad,
		filter: bloom.NewForRate(cfg.BloomKeys, cfg.BloomFPRate),
		pool:   pool,
	}, nil
}

// Base returns the wrapped base relation.
func (h *HR) Base() *relation.Relation { return h.base }

// ADLen returns the number of entries in the differential file.
func (h *HR) ADLen() int { return h.ad.Len() }

// ADPages returns the AD file's page count (unmetered).
func (h *HR) ADPages() int { return h.ad.Pages() }

// Filter exposes the Bloom filter (for diagnostics and tests).
func (h *HR) Filter() *bloom.Filter { return h.filter }

// adTuple builds the AD entry for tp with the given role: the base
// tuple's values plus the role column, same id.
func adTuple(tp tuple.Tuple, role int64) tuple.Tuple {
	vals := make([]tuple.Value, 0, len(tp.Vals)+1)
	vals = append(vals, tp.Vals...)
	vals = append(vals, tuple.I(role))
	return tuple.Tuple{ID: tp.ID, Vals: vals}
}

// stripRole converts an AD entry back to a base tuple.
func stripRole(tp tuple.Tuple) tuple.Tuple {
	return tuple.Tuple{ID: tp.ID, Vals: tp.Vals[:len(tp.Vals)-1]}
}

func role(tp tuple.Tuple) int64 { return tp.Vals[len(tp.Vals)-1].Int() }

// bloomKey is the filter's key of a key value: its canonical form, so
// −0 and +0 (which tuple.Equal matches) are one key.
func (h *HR) bloomKey(v tuple.Value) string { return tuple.Canonical(v).String() }

// Append records the insertion of tp: one AD entry with role appended.
// The tuple's id must be fresh (engine-assigned from the monotonic
// clock).
func (h *HR) Append(tp tuple.Tuple) error {
	if err := h.base.Schema().Validate(tp.Vals); err != nil {
		return fmt.Errorf("hr %s: %w", h.base.Name(), err)
	}
	if err := h.ad.Insert(adTuple(tp, RoleAppended)); err != nil {
		return err
	}
	h.filter.Add(h.bloomKey(tp.Vals[h.base.KeyCol()]))
	return nil
}

// Delete records the deletion of the visible tuple with the given key
// value and id. The tuple's current version is located (through the
// Bloom filter) and its value is recorded in AD with role deleted, per
// §2.2.1: "a copy of its value, including the id it had in R or A, is
// placed in D".
func (h *HR) Delete(keyVal tuple.Value, id uint64) (tuple.Tuple, bool, error) {
	cur, ok, err := h.getVisible(keyVal, id)
	if err != nil || !ok {
		return tuple.Tuple{}, ok, err
	}
	if err := h.ad.Insert(adTuple(cur, RoleDeleted)); err != nil {
		return tuple.Tuple{}, false, err
	}
	h.filter.Add(h.bloomKey(keyVal))
	return cur, true, nil
}

// Update replaces the visible tuple (keyVal, id) with newTp (which must
// carry a fresh id): old value to D, new value to A. With clustered
// hashing on an unchanged key, both AD entries land on the same chain,
// which is the ≤3-I/O update walkthrough of §2.2.2.
func (h *HR) Update(keyVal tuple.Value, id uint64, newTp tuple.Tuple) (tuple.Tuple, bool, error) {
	if err := h.base.Schema().Validate(newTp.Vals); err != nil {
		return tuple.Tuple{}, false, fmt.Errorf("hr %s: %w", h.base.Name(), err)
	}
	old, ok, err := h.Delete(keyVal, id)
	if err != nil || !ok {
		return tuple.Tuple{}, ok, err
	}
	if err := h.Append(newTp); err != nil {
		return tuple.Tuple{}, false, err
	}
	return old, true, nil
}

// getVisible fetches the current version of (keyVal, id) from the true
// relation (R ∪ A) − D, consulting the Bloom filter first.
func (h *HR) getVisible(keyVal tuple.Value, id uint64) (tuple.Tuple, bool, error) {
	if h.filter.MayContain(h.bloomKey(keyVal)) {
		entries, err := h.ad.Lookup(keyVal)
		if err != nil {
			return tuple.Tuple{}, false, err
		}
		deleted := false
		var appended *tuple.Tuple
		for i := range entries {
			if entries[i].ID != id {
				continue
			}
			if role(entries[i]) == RoleDeleted {
				deleted = true
			} else {
				s := stripRole(entries[i])
				appended = &s
			}
		}
		if deleted {
			return tuple.Tuple{}, false, nil
		}
		if appended != nil {
			return *appended, true, nil
		}
	}
	return h.base.Get(keyVal, id)
}

// ReadKey returns all visible tuples with the given key value:
// (base ∪ A) − D restricted to the key. When the Bloom filter proves
// the key untouched, only the base is read — the [Seve76] fast path.
func (h *HR) ReadKey(keyVal tuple.Value) ([]tuple.Tuple, error) {
	baseTuples, err := h.base.LookupKey(keyVal)
	if err != nil {
		return nil, err
	}
	if !h.filter.MayContain(h.bloomKey(keyVal)) {
		return baseTuples, nil
	}
	entries, err := h.ad.Lookup(keyVal)
	if err != nil {
		return nil, err
	}
	deleted := map[uint64]bool{}
	var appended []tuple.Tuple
	for _, e := range entries {
		if role(e) == RoleDeleted {
			deleted[e.ID] = true
		} else {
			appended = append(appended, stripRole(e))
		}
	}
	out := make([]tuple.Tuple, 0, len(baseTuples)+len(appended))
	for _, tp := range baseTuples {
		if !deleted[tp.ID] {
			out = append(out, tp)
		}
	}
	for _, tp := range appended {
		if !deleted[tp.ID] {
			out = append(out, tp)
		}
	}
	return out, nil
}

// NetChanges reads the whole AD file (the C_ADread of the cost model)
// and returns the net change sets:
//
//	A-net = appended entries whose id was not subsequently deleted
//	D-net = deleted entries whose id was not appended this epoch
//	        (i.e. deletions of tuples that were in R at epoch start)
//
// An append followed by a delete of the same id cancels out of both
// sets; an update contributes its old value to D-net (or cancels an
// epoch-local append) and its new value to A-net.
func (h *HR) NetChanges() (anet, dnet []tuple.Tuple, err error) {
	entries, err := h.adEntries()
	if err != nil {
		return nil, nil, err
	}
	deletedIDs := map[uint64]bool{}
	appendedIDs := map[uint64]bool{}
	for _, e := range entries {
		if role(e) == RoleDeleted {
			deletedIDs[e.ID] = true
		} else {
			appendedIDs[e.ID] = true
		}
	}
	for _, e := range entries {
		switch role(e) {
		case RoleAppended:
			if !deletedIDs[e.ID] {
				anet = append(anet, stripRole(e))
			}
		case RoleDeleted:
			if !appendedIDs[e.ID] {
				dnet = append(dnet, stripRole(e))
			}
		}
	}
	return anet, dnet, nil
}

// adEntries reads the whole AD file (one metered read per page) and
// gathers its entries.
func (h *HR) adEntries() ([]tuple.Tuple, error) {
	batches, _, err := h.ad.ScanAllBatches(0, nil)
	if err != nil {
		return nil, err
	}
	var out []tuple.Tuple
	for _, b := range batches {
		out = b.AppendTuples(out, 0)
	}
	return out, nil
}

// Fold applies the differential file to the base relation and resets
// the HR: R := (R ∪ A) − D, A := ∅, D := ∅, Bloom filter cleared. The
// deferred strategy calls this right after a refresh has consumed
// NetChanges, so the next epoch starts empty.
func (h *HR) Fold() error {
	anet, dnet, err := h.NetChanges()
	if err != nil {
		return err
	}
	return h.FoldWith(anet, dnet)
}

// FoldWith is Fold with net changes the caller already computed via
// NetChanges, so the AD file is read once per refresh — the model
// charges C_ADread a single time even when several views share the
// relation (§4's shared-refresh observation).
func (h *HR) FoldWith(anet, dnet []tuple.Tuple) error {
	for _, tp := range dnet {
		if _, ok, err := h.base.Delete(tp.Vals[h.base.KeyCol()], tp.ID); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("hr %s: D-net tuple %v missing from base", h.base.Name(), tp)
		}
	}
	for _, tp := range anet {
		if err := h.base.Insert(tp); err != nil {
			return err
		}
	}
	if err := h.ad.Truncate(); err != nil {
		return err
	}
	h.filter.Reset()
	return nil
}
