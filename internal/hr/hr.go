// Package hr implements hypothetical relations (Hanson §2.2), the
// change-capture substrate of deferred view maintenance: every update
// to a base relation is recorded in a combined differential file AD
// (clustered hashing on the relation key, one "role" attribute marking
// appended vs. deleted), a deletion finds the version it deletes through
// a Bloom filter so tuples not touched since the last refresh cost no
// extra I/O, and the net change sets A-net and D-net are computed on
// demand for the differential view-update algorithm.
//
// The true value of the relation is (R ∪ A) − D. After a deferred
// refresh consumes the net changes, the HR is reset:
//
//	R := (R ∪ A) − D,  A := ∅,  D := ∅
//
// The reset of A and D frees the AD file's pages and writes none
// (hashidx.Index.Truncate); the next epoch's first entry in each bucket
// allocates the bucket's page without reading it.
package hr

import (
	"errors"
	"fmt"

	"viewmat/internal/bloom"
	"viewmat/internal/btree"
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
}

// bloomFPRate is the Bloom filter's target false-positive rate, the
// "arbitrarily small by increasing m" knob of [Seve76].
const bloomFPRate = 0.01

// withDefaults returns c with each field left unset given its default.
func (c Config) withDefaults() Config {
	if c.ADBuckets <= 0 {
		c.ADBuckets = 4
	}
	if c.BloomKeys <= 0 {
		c.BloomKeys = 1024
	}
	return c
}

// ADMeta is the persistent metadata of the differential file.
type ADMeta = hashidx.Meta

// ADMeta returns the differential file's persistent metadata.
func (h *HR) ADMeta() ADMeta { return h.ad.Meta() }

// Open reattaches an HR to its AD file on a restored disk. The Bloom
// filter is rebuilt by scanning the AD contents (a metered scan —
// loading is setup, so callers reset the meter afterwards).
func Open(disk *storage.Disk, pool *storage.Pool, base *relation.Relation, cfg Config, m ADMeta) (*HR, error) {
	cfg = cfg.withDefaults()
	ad, err := hashidx.Open(disk.Open(base.Name()+".ad"), base.KeyCol(), m)
	if err != nil {
		return nil, err
	}
	h := &HR{base: base, ad: ad, filter: bloom.NewForRate(cfg.BloomKeys, bloomFPRate)}
	entries, err := h.adEntries(pool)
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
	cfg = cfg.withDefaults()
	ad, err := hashidx.New(pool, disk.Open(base.Name()+".ad"), base.KeyCol(), cfg.ADBuckets)
	if err != nil {
		return nil, err
	}
	return &HR{
		base:   base,
		ad:     ad,
		filter: bloom.NewForRate(cfg.BloomKeys, bloomFPRate),
	}, nil
}

// ADLen returns the number of entries in the differential file.
func (h *HR) ADLen() int { return h.ad.Len() }

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

// ApplyRun is the HR's one write: it records a signed batch in stream
// order, after validating every insert, and returns how many rows it
// recorded: all of them, or those before the one that failed. Row i is
// an insertion when signs[i] is non-negative or signs is nil: one AD
// entry with role appended, whose id must be fresh (engine-assigned from
// the monotonic clock). Otherwise it is the deletion of the visible
// tuple its key value and id name: that tuple's current version is
// located (through the Bloom filter) and recorded in AD with role
// deleted, per §2.2.1 ("a copy of its value, including the id it had in
// R or A, is placed in D"); one not visible is btree.ErrAbsent. Each
// entry goes to AD as its own hashidx.Index.ApplyRun, so a deletion sees
// the entries the batch recorded before it. With a non-nil cut, each
// deleted version is appended to *cut. An update is the pair of its old
// row's delete and its new row's insert: with clustered hashing on an
// unchanged key, both AD entries land on the same chain, the ≤3-I/O
// update walkthrough of §2.2.2.
func (h *HR) ApplyRun(p *storage.Pool, rows []tuple.Tuple, signs []int8, cut *[]tuple.Tuple) (int, error) {
	for i, tp := range rows {
		if signs != nil && signs[i] < 0 {
			continue
		}
		if err := h.base.Schema().Validate(tp.Vals); err != nil {
			return 0, fmt.Errorf("hr %s: %w", h.base.Name(), err)
		}
	}
	for i, tp := range rows {
		key := tp.Vals[h.base.KeyCol()]
		entry, entryRole := tp, RoleAppended
		if signs != nil && signs[i] < 0 {
			cur, ok, err := h.getVisible(p, key, tp.ID)
			if err == nil && !ok {
				err = fmt.Errorf("%w (%s, id %d)", btree.ErrAbsent, key, tp.ID)
			}
			if err != nil {
				return i, err
			}
			entry, entryRole = cur, RoleDeleted
		}
		if _, err := h.ad.ApplyRun(p, []tuple.Tuple{adTuple(entry, entryRole)}, nil, nil); err != nil {
			return i, err
		}
		h.filter.Add(h.bloomKey(key))
		if entryRole == RoleDeleted && cut != nil {
			*cut = append(*cut, entry)
		}
	}
	return len(rows), nil
}

// getVisible fetches the current version of (keyVal, id) from the true
// relation (R ∪ A) − D, consulting the Bloom filter first.
func (h *HR) getVisible(p *storage.Pool, keyVal tuple.Value, id uint64) (tuple.Tuple, bool, error) {
	if h.filter.MayContain(h.bloomKey(keyVal)) {
		entries, err := h.ad.Lookup(p, keyVal)
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
	return h.base.Get(p, keyVal, id, false) // the fold rewrites the leaf
}

// NetChanges reads the AD file — each page that holds entries, the
// C_ADread of the cost model; a bucket with no page costs nothing, and a
// walk of the page directory skips an empty bucket page unread — and
// returns the net change sets:
//
//	A-net = appended entries whose id was not subsequently deleted
//	D-net = deleted entries whose id was not appended this epoch
//	        (i.e. deletions of tuples that were in R at epoch start)
//
// An append followed by a delete of the same id cancels out of both
// sets; an update contributes its old value to D-net (or cancels an
// epoch-local append) and its new value to A-net.
func (h *HR) NetChanges(p *storage.Pool) (anet, dnet []tuple.Tuple, err error) {
	entries, err := h.adEntries(p)
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

// adEntries reads the AD file (one metered read per page that holds
// entries) and gathers its entries.
func (h *HR) adEntries(p *storage.Pool) ([]tuple.Tuple, error) {
	batches, _, err := h.ad.ScanAllBatches(p, 0, nil)
	if err != nil {
		return nil, err
	}
	var out []tuple.Tuple
	for _, b := range batches {
		out = b.AppendTuples(out, 0)
	}
	return out, nil
}

// FoldWith applies the differential file to the base relation and
// resets the HR: R := (R ∪ A) − D, A := ∅, D := ∅, Bloom filter
// cleared. The deferred strategy calls it right after a refresh has
// consumed NetChanges, with those net changes, so the next epoch starts
// empty and an AD file that holds entries is read once per refresh —
// the model charges C_ADread a single time even when several views
// share the relation (§4's shared-refresh observation). An HR whose AD
// file holds none (ADLen 0) is neither read nor folded: the refresh
// skips it. D-net (each row named by its key and id) and then A-net go
// to the base as one signed batch (relation.Relation.ApplyRun), so an
// updated row's delete and insert share one visit to its leaf. The
// reset frees every page of the AD file and reads or writes none: the
// fold's I/O is the base relation's alone.
func (h *HR) FoldWith(p *storage.Pool, anet, dnet []tuple.Tuple) error {
	rows := append(append(make([]tuple.Tuple, 0, len(dnet)+len(anet)), dnet...), anet...)
	signs := make([]int8, len(rows))
	for i := range dnet {
		signs[i] = -1
	}
	n, err := h.base.ApplyRun(p, rows, signs, -1, nil)
	if errors.Is(err, btree.ErrAbsent) {
		return fmt.Errorf("hr %s: D-net tuple %v missing from base", h.base.Name(), rows[n])
	}
	if err != nil {
		return err
	}
	if err := h.ad.Truncate(p); err != nil {
		return err
	}
	h.filter.Reset()
	return nil
}
