// Package relation ties an access method to a schema: a Relation is a
// named, schema-checked clustered store (B+-tree or hash) with optional
// unclustered secondary indexes.
//
// The paper's setup (§3.1) maps directly onto this package: R and R1
// are relations clustered by B+-tree on the view-predicate field, R2 is
// clustered by hashing on the join field, and the Model-1 "unclustered"
// query-modification plan uses a secondary index on a non-clustering
// column.
package relation

import (
	"fmt"
	"slices"

	"viewmat/internal/btree"
	"viewmat/internal/colpage"
	"viewmat/internal/hashidx"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// Kind selects the clustering access method.
type Kind int

const (
	// ClusteredBTree clusters tuples in a B+-tree on the key column.
	ClusteredBTree Kind = iota
	// ClusteredHash clusters tuples by hashing on the key column.
	ClusteredHash
)

// Relation is a stored relation. Not safe for concurrent use.
type Relation struct {
	name   string
	schema *tuple.Schema
	keyCol int
	kind   Kind

	bt *btree.Tree
	hx *hashidx.Index
	// full is the clustering store's ScanAll: the leaf chain, or every
	// bucket chain.
	full func(p *storage.Pool, prune []colpage.Atom) (*colpage.Scan, error)

	disk        *storage.Disk
	secondaries []*Secondary // in column order
}

// Secondary is an unclustered index: a B+-tree of pointer entries
// (indexed value, primary key value, tuple id). A lookup finds pointer
// entries by indexed value and then fetches each tuple through the
// clustering index — the random-page behaviour the paper prices with
// y(N, b, ·) for the unclustered plan.
type Secondary struct {
	col int
	bt  *btree.Tree
}

// NewBTree creates a relation clustered by B+-tree on keyCol.
func NewBTree(disk *storage.Disk, pool *storage.Pool, name string, schema *tuple.Schema, keyCol int) (*Relation, error) {
	if keyCol < 0 || keyCol >= len(schema.Cols) {
		return nil, fmt.Errorf("relation %s: key column %d out of range", name, keyCol)
	}
	bt, err := btree.New(pool, disk.Open(name+".btree"), keyCol)
	if err != nil {
		return nil, err
	}
	return &Relation{
		name: name, schema: schema, keyCol: keyCol, kind: ClusteredBTree,
		bt: bt, full: bt.ScanAll, disk: disk,
	}, nil
}

// NewHash creates a relation clustered by hashing on keyCol with the
// given number of primary bucket pages.
func NewHash(disk *storage.Disk, pool *storage.Pool, name string, schema *tuple.Schema, keyCol, buckets int) (*Relation, error) {
	if keyCol < 0 || keyCol >= len(schema.Cols) {
		return nil, fmt.Errorf("relation %s: key column %d out of range", name, keyCol)
	}
	hx, err := hashidx.New(pool, disk.Open(name+".hash"), keyCol, buckets)
	if err != nil {
		return nil, err
	}
	return &Relation{
		name: name, schema: schema, keyCol: keyCol, kind: ClusteredHash,
		hx: hx, full: hx.ScanAll, disk: disk,
	}, nil
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation schema.
func (r *Relation) Schema() *tuple.Schema { return r.schema }

// KeyCol returns the clustering column.
func (r *Relation) KeyCol() int { return r.keyCol }

// Kind returns the clustering access method.
func (r *Relation) Kind() Kind { return r.kind }

// Len returns the number of stored tuples.
func (r *Relation) Len() int {
	if r.kind == ClusteredBTree {
		return r.bt.Len()
	}
	return r.hx.Len()
}

// Pages returns the data pages occupied (leaf pages for a B+-tree,
// chain pages for hashing); unmetered.
func (r *Relation) Pages() int {
	if r.kind == ClusteredBTree {
		return r.bt.LeafPages()
	}
	return r.hx.Pages()
}

// IndexHeight returns the B+-tree height above the leaves (the paper's
// Hvi); 1 is reported for hash clustering (one directory probe).
func (r *Relation) IndexHeight() int {
	if r.kind == ClusteredBTree {
		return r.bt.Height() - 1
	}
	return 1
}

// ApplyRun is the relation's one write: it applies a signed batch in
// stream order — row i deleted when signs[i] is negative (its clustering
// key and id name it; its other columns are not read), inserted
// otherwise; nil signs insert every row — after validating every insert,
// and returns how many rows it applied: all of them, or those before the
// one that failed. A delete of a row the relation does not hold is
// btree.ErrAbsent. An update is the pair of its old row's delete and its
// new row's insert. With a non-nil cut, every row a delete removes is
// appended to *cut, whole, in stream order.
//
// Each file takes the batch whole. The clustering store goes first: a
// B+-tree as one btree.Tree.ApplyRun, plain (countCol < 0) or counted
// (countCol ≥ 0; see there: it returns at the first row it leaves to the
// caller), a hash file as one hashidx.Index.ApplyRun. Then each secondary
// index, in column order, takes one ApplyRun of the pointer entries of
// the rows the store applied, a delete's built from the row it cut. A
// pointer entry is a subset of a row that already fit a page, so an index
// cannot refuse a row its clustering store took. A counted batch only a
// B+-tree without secondary indexes serves; any other relation applies
// none of its rows.
func (r *Relation) ApplyRun(p *storage.Pool, tps []tuple.Tuple, signs []int8, countCol int, cut *[]tuple.Tuple) (int, error) {
	if countCol >= 0 && (r.kind != ClusteredBTree || len(r.secondaries) > 0) {
		return 0, nil
	}
	for i, tp := range tps {
		if signs != nil && signs[i] < 0 {
			continue
		}
		if err := r.schema.Validate(tp.Vals); err != nil {
			return 0, fmt.Errorf("relation %s: %w", r.name, err)
		}
	}
	if r.secondaries != nil && cut == nil {
		cut = new([]tuple.Tuple) // the rows the indexes' deletes name
	}
	from := 0
	if cut != nil {
		from = len(*cut)
	}
	var n int
	var err error
	if r.kind == ClusteredBTree {
		n, err = r.bt.ApplyRun(p, tps, signs, countCol, cut)
	} else {
		n, err = r.hx.ApplyRun(p, tps, signs, cut)
	}
	if signs != nil {
		signs = signs[:n]
	}
	var ptrs []tuple.Tuple
	for _, sec := range r.secondaries {
		ptrs = ptrs[:0]
		cuts := (*cut)[from:]
		for i, tp := range tps[:n] {
			if signs != nil && signs[i] < 0 {
				tp, cuts = cuts[0], cuts[1:]
			}
			ptrs = append(ptrs, pointerEntry(tp, sec.col, r.keyCol))
		}
		if _, err := sec.bt.ApplyRun(p, ptrs, signs, -1, nil); err != nil {
			return n, err
		}
	}
	return n, err
}

// Get fetches the tuple with the clustering-key value and id; build is
// btree.Tree.Get's (a hash chain keeps no lanes).
func (r *Relation) Get(p *storage.Pool, keyVal tuple.Value, id uint64, build bool) (tuple.Tuple, bool, error) {
	if r.kind == ClusteredBTree {
		return r.bt.Get(p, keyVal, id, build)
	}
	return r.hx.Get(p, keyVal, id)
}

// LookupKey returns all tuples whose clustering key equals v.
func (r *Relation) LookupKey(p *storage.Pool, v tuple.Value) ([]tuple.Tuple, error) {
	if r.kind == ClusteredHash {
		return r.hx.Lookup(p, v)
	}
	return gather(r.bt.ScanBatches(p, pred.PointRange(v), nil))
}

// gather drains a range scan into tuples, for the callers that act on
// whole rows: point lookups and the secondary-index pointer walk.
func gather(it *colpage.Scan, err error) ([]tuple.Tuple, error) {
	if err != nil {
		return nil, err
	}
	var out []tuple.Tuple
	for !it.Done() {
		b := &vec.Batch{}
		if err := it.Fill(b, vec.DefaultBatchSize); err != nil {
			return nil, err
		}
		out = b.AppendTuples(out, 0)
	}
	return out, nil
}

// IterBatches returns a columnar iterator over the clustering range
// (B+-tree only); rg nil means everything. Prune atoms let full scans
// skip pages whose zone maps disprove them (see btree.ScanBatches).
func (r *Relation) IterBatches(p *storage.Pool, rg *pred.Range, prune []colpage.Atom) (*colpage.Scan, error) {
	if r.kind != ClusteredBTree {
		return nil, fmt.Errorf("relation %s: iterator requires B+-tree clustering", r.name)
	}
	return r.bt.ScanBatches(p, rg, prune)
}

// ScanAllBatches reads every tuple (sequential scan: every data page
// read) decoded straight into columnar batches of up to size rows —
// minus any pages the prune atoms' zone maps disprove, which are
// skipped unread and reported in pruned, and minus the rows of the pages
// read that the atoms reject, which are counted on the batches
// (vec.Batch.Dropped) instead of decoded.
func (r *Relation) ScanAllBatches(p *storage.Pool, size int, prune []colpage.Atom) ([]*vec.Batch, int64, error) {
	s, err := r.full(p, prune)
	if err != nil {
		return nil, 0, err
	}
	return s.Drain(size)
}

// --- secondary indexes ----------------------------------------------------

// pointerEntry builds the secondary-index entry for tp: (indexed value,
// primary key value, id), with the entry's own id equal to the tuple's.
func pointerEntry(tp tuple.Tuple, col, keyCol int) tuple.Tuple {
	return tuple.New(tp.ID, tp.Vals[col], tp.Vals[keyCol])
}

// AddSecondary builds an unclustered index on col from the current
// contents, as one batch of their pointer entries. It is an error to
// index the clustering column (use the clustered index) or to index a
// column twice.
func (r *Relation) AddSecondary(p *storage.Pool, col int) error {
	if col == r.keyCol {
		return fmt.Errorf("relation %s: column %d is the clustering key", r.name, col)
	}
	if r.HasSecondary(col) {
		return fmt.Errorf("relation %s: column %d already has a secondary index", r.name, col)
	}
	bt, err := btree.New(p, r.disk.Open(fmt.Sprintf("%s.sec%d", r.name, col)), 0)
	if err != nil {
		return err
	}
	all, _, err := r.ScanAllBatches(p, 0, nil)
	if err != nil {
		return err
	}
	var ptrs []tuple.Tuple
	for _, b := range all {
		for i := 0; i < b.NumRows(); i++ {
			ptrs = append(ptrs, pointerEntry(b.TupleAt(0, i), col, r.keyCol))
		}
	}
	if _, err := bt.ApplyRun(p, ptrs, nil, -1, nil); err != nil {
		return err
	}
	r.secondaries = append(r.secondaries, &Secondary{col: col, bt: bt})
	slices.SortFunc(r.secondaries, func(a, b *Secondary) int { return a.col - b.col })
	return nil
}

// secondary returns the secondary index on col, or nil.
func (r *Relation) secondary(col int) *Secondary {
	for _, sec := range r.secondaries {
		if sec.col == col {
			return sec
		}
	}
	return nil
}

// HasSecondary reports whether col has a secondary index.
func (r *Relation) HasSecondary(col int) bool { return r.secondary(col) != nil }

// LookupSecondary finds tuples whose col value lies in rg via the
// unclustered index: a range scan of pointer entries followed by one
// clustered fetch per pointer — the per-tuple random I/O the paper's
// unclustered plan pays.
func (r *Relation) LookupSecondary(p *storage.Pool, col int, rg *pred.Range) ([]tuple.Tuple, error) {
	sec := r.secondary(col)
	if sec == nil {
		return nil, fmt.Errorf("relation %s: no secondary index on column %d", r.name, col)
	}
	ptrs, err := gather(sec.bt.ScanBatches(p, rg, nil))
	if err != nil {
		return nil, err
	}
	out := make([]tuple.Tuple, 0, len(ptrs))
	for _, ptr := range ptrs {
		tp, found, err := r.Get(p, ptr.Vals[1], ptr.ID, true)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, fmt.Errorf("relation %s: dangling secondary pointer id %d", r.name, ptr.ID)
		}
		out = append(out, tp)
	}
	return out, nil
}
