// Package hashidx implements a clustered hashing access method over the
// simulated disk: a fixed directory of buckets, each a chain of pages
// holding full tuples whose key column hashes to the bucket.
//
// The paper assigns this structure to R2 ("clustered hashing on join
// field", §3.1) and to the differential file AD ("clustered hashing
// access method on the key", §2.2.2). Its property of interest is that
// an update which does not change the key lands on the same page as the
// old tuple, which is what caps HR maintenance at three I/Os per update
// (§2.2.2's I/O walkthrough).
//
// New allocates every primary bucket page up front, as a statically
// hashed file is built. Truncate, the differential file's reset after a
// refresh, works like a file truncation: it frees every chain page
// without reading or writing one, and leaves each bucket with no page.
// The first insert into such a bucket allocates its page, which is born
// dirty and never read; a read or a delete of such a bucket reads
// nothing.
package hashidx

import (
	"fmt"
	"hash/fnv"

	"viewmat/internal/btree"
	"viewmat/internal/colpage"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// chainPages is the type byte of a chain page, which is a colpage data
// page: the codec, the page→lanes decode, the page directory and the
// scan that walks it live there, shared with btree's leaves.
const chainPages colpage.PageType = 5

// noPage is the page number of a bucket that has no chain page: every
// bucket after a Truncate, until an insert allocates its page. Meta
// carries it like any page number.
const noPage = ^storage.PageNum(0)

// Index is a clustered hash index storing full tuples. Not safe for
// concurrent use.
type Index struct {
	file    *storage.File
	dir     *colpage.Directory // every chain page's link and zone maps
	keyCol  int
	buckets []storage.PageNum // each bucket's first page, or noPage
	heads   []storage.PageNum // the buckets' pages that are not noPage, in bucket order
	count   int
	edit    node // the page a write is editing, its lanes reused write to write
}

// node is a decoded chain page.
type node = colpage.DataPage

// Meta is an index's persistent metadata: the primary bucket page
// numbers (noPage for a bucket with none) and the live tuple count.
type Meta struct {
	Buckets []storage.PageNum
	Count   int
}

// Meta returns the index's persistent metadata.
func (ix *Index) Meta() Meta {
	return Meta{Buckets: append([]storage.PageNum(nil), ix.buckets...), Count: ix.count}
}

// Open attaches to an existing index stored in file, trusting
// caller-supplied metadata (from a prior Meta call), and rebuilds the
// page directory from the file's images. A bucket may have no page; one
// that names a page the directory holds no chain page for is refused.
func Open(file *storage.File, keyCol int, m Meta) (*Index, error) {
	if len(m.Buckets) == 0 || m.Count < 0 {
		return nil, fmt.Errorf("hashidx: invalid metadata %+v", m)
	}
	dir := colpage.NewDirectory(chainPages, file)
	for _, pn := range m.Buckets {
		if pn == noPage {
			continue
		}
		e, err := dir.Lookup(pn)
		if err != nil {
			return nil, fmt.Errorf("hashidx: bucket page %d: %w", pn, err)
		}
		if e == nil {
			return nil, fmt.Errorf("hashidx: bucket page %d is no chain page", pn)
		}
	}
	ix := &Index{file: file, dir: dir, keyCol: keyCol, buckets: append([]storage.PageNum(nil), m.Buckets...), count: m.Count}
	ix.findHeads()
	return ix, nil
}

// New creates an index with the given number of primary bucket pages,
// clustered on keyCol. Primary pages are pre-allocated, matching a
// statically-hashed file; growth beyond them forms overflow chains.
func New(pool *storage.Pool, file *storage.File, keyCol, numBuckets int) (*Index, error) {
	if numBuckets < 1 {
		numBuckets = 1
	}
	ix := &Index{file: file, dir: colpage.NewDirectory(chainPages, file), keyCol: keyCol, buckets: make([]storage.PageNum, numBuckets)}
	for i := range ix.buckets {
		fr, err := pool.Alloc(file)
		if err != nil {
			return nil, err
		}
		ix.encodeNode(fr, &node{})
		fr.MarkDirty()
		ix.buckets[i] = fr.PageNum()
		if err := pool.Release(fr); err != nil {
			return nil, err
		}
	}
	ix.findHeads()
	return ix, nil
}

// findHeads lists the buckets' pages, skipping the buckets with none, in
// the list's own array once it has grown to hold them all.
func (ix *Index) findHeads() {
	ix.heads = ix.heads[:0]
	for _, pn := range ix.buckets {
		if pn != noPage {
			ix.heads = append(ix.heads, pn)
		}
	}
}

// Len returns the number of tuples stored.
func (ix *Index) Len() int { return ix.count }

// Buckets returns the number of primary buckets.
func (ix *Index) Buckets() int { return len(ix.buckets) }

// KeyCol returns the clustering column.
func (ix *Index) KeyCol() int { return ix.keyCol }

// encodeNode writes the chain page over the frame's bytes and records its
// link and zone maps in the directory. The caller has checked that it
// fits (node.Size).
func (ix *Index) encodeNode(fr *storage.Frame, n *node) {
	ix.dir.Encode(fr.PageNum(), fr.Data, n)
}

// bucketFor hashes a key value to a bucket: its canonical form, so
// every value tuple.Equal matches (−0 and +0, NaNs of any payload)
// hashes alike.
func (ix *Index) bucketFor(v tuple.Value) int {
	h := fnv.New64a()
	h.Write(tuple.AppendValue(nil, tuple.Canonical(v)))
	return int(h.Sum64() % uint64(len(ix.buckets)))
}

// decode decodes a chain page into n, for an edit or a lookup. Its rows,
// which reach the engine from snapshot files, must have the key column.
func (ix *Index) decode(page []byte, n *node) error {
	if err := chainPages.DecodePage(page, n); err != nil {
		return err
	}
	if len(n.IDs) > 0 && ix.keyCol >= len(n.Cols) {
		return fmt.Errorf("hashidx: chain rows of %d columns have no key column %d", len(n.Cols), ix.keyCol)
	}
	return nil
}

// ApplyRun applies a signed batch of rows in stream order, one chain
// walk a row: row i is deleted when signs[i] is negative (its key column
// and id name it; its other columns are not read) and inserted otherwise
// (nil signs: every row is inserted). It returns how many rows it
// applied: all of them, or those before the one that failed. An insert
// goes on the first page of its bucket's chain with room for it, or on
// an overflow page linked to the chain's end, or, in a bucket with no
// page, on a page it allocates for the bucket; a delete cuts its row
// from the page that holds it, and a row the index does not hold is
// btree.ErrAbsent. With a non-nil cut, every row a delete cuts is
// appended to *cut, whole. Each chain page a walk inspects costs one
// metered read, the page it edits or allocates one write when its scope
// closes.
func (ix *Index) ApplyRun(p *storage.Pool, rows []tuple.Tuple, signs []int8, cut *[]tuple.Tuple) (int, error) {
	for i, tp := range rows {
		if err := ix.walk(p, tp, signs == nil || signs[i] >= 0, cut); err != nil {
			return i, err
		}
	}
	return len(rows), nil
}

// walk applies one row, an insert when plus: it decodes the pages of
// the row's bucket chain in turn onto the reused lanes until one takes
// the row, and encodes that page back.
func (ix *Index) walk(p *storage.Pool, tp tuple.Tuple, plus bool, cut *[]tuple.Tuple) error {
	if plus && !colpage.FitsAlone(tp, p.PageSize()) {
		return fmt.Errorf("hashidx: tuple of %d bytes exceeds page capacity", tp.EncodedSize())
	}
	v := tp.Vals[ix.keyCol]
	n := &ix.edit
	b := ix.bucketFor(v)
	pn := ix.buckets[b]
	if pn == noPage {
		if !plus {
			return fmt.Errorf("%w (id %d)", btree.ErrAbsent, tp.ID)
		}
		fr, err := ix.newPage(p, tp)
		if err != nil {
			return err
		}
		ix.buckets[b] = fr.PageNum()
		ix.findHeads()
		return p.Release(fr)
	}
	for {
		fr, err := p.Get(ix.file, pn)
		if err != nil {
			return err
		}
		if err := ix.decode(fr.Data, n); err != nil {
			p.Release(fr)
			return err
		}
		if ix.take(n, tp, plus, len(fr.Data), cut) {
			ix.encodeNode(fr, n)
			fr.MarkDirty()
			return p.Release(fr)
		}
		if n.HasNext {
			pn = n.Next
			if err := p.Release(fr); err != nil {
				return err
			}
			continue
		}
		if !plus {
			if err := p.Release(fr); err != nil {
				return err
			}
			// The key value stays out of the message: boxing it would
			// move every caller's rows to the heap.
			return fmt.Errorf("%w (id %d)", btree.ErrAbsent, tp.ID)
		}
		// Allocate an overflow page and link it.
		ofr, err := ix.newPage(p, tp)
		if err != nil {
			p.Release(fr)
			return err
		}
		n.Next, n.HasNext = ofr.PageNum(), true
		ix.encodeNode(fr, n)
		fr.MarkDirty()
		if err := p.Release(ofr); err != nil {
			p.Release(fr)
			return err
		}
		return p.Release(fr)
	}
}

// newPage allocates a chain page that holds tp alone and links nowhere,
// and returns it pinned: born dirty, never read.
func (ix *Index) newPage(p *storage.Pool, tp tuple.Tuple) (*storage.Frame, error) {
	fr, err := p.Alloc(ix.file)
	if err != nil {
		return nil, err
	}
	var o node
	o.InsertRow(0, tp)
	ix.encodeNode(fr, &o)
	fr.MarkDirty()
	ix.count++
	return fr, nil
}

// take applies row tp to the decoded chain page n when the page can take
// it — an insert that keeps the page within pageSize bytes, or a delete
// of a row the page holds — and reports whether it did; n is as it was
// when it did not.
func (ix *Index) take(n *node, tp tuple.Tuple, plus bool, pageSize int, cut *[]tuple.Tuple) bool {
	if plus {
		last := len(n.IDs)
		n.InsertRow(last, tp)
		if n.Size() > pageSize {
			n.DeleteRow(last)
			return false
		}
		ix.count++
		return true
	}
	v := tp.Vals[ix.keyCol]
	for i := range n.IDs {
		if n.IDs[i] == tp.ID && n.Cols[ix.keyCol].Compare(i, v) == 0 {
			if cut != nil {
				*cut = append(*cut, n.Row(i))
			}
			n.DeleteRow(i)
			ix.count--
			return true
		}
	}
	return false
}

// matches walks the chain of v's bucket (one metered read per chain
// page, none for a bucket with no page) and hands fn each row whose key
// column equals v, on the page's decoded lanes, which fn must not keep.
func (ix *Index) matches(p *storage.Pool, v tuple.Value, fn func(rows *colpage.Lanes, i int)) error {
	pn := ix.buckets[ix.bucketFor(v)]
	if pn == noPage {
		return nil
	}
	var n node // not ix.edit: a read may run beside another
	for {
		var next storage.PageNum
		hasNext := false
		err := p.Read(ix.file, pn, func(page []byte) error {
			if err := ix.decode(page, &n); err != nil {
				return err
			}
			for i := range n.IDs {
				if n.Cols[ix.keyCol].Compare(i, v) == 0 {
					fn(&n.Lanes, i)
				}
			}
			next, hasNext = n.Next, n.HasNext
			return nil
		})
		if err != nil || !hasNext {
			return err
		}
		pn = next
	}
}

// Lookup returns all tuples whose key column equals v, walking the
// bucket's chain (one metered read per chain page).
func (ix *Index) Lookup(p *storage.Pool, v tuple.Value) ([]tuple.Tuple, error) {
	var out []tuple.Tuple
	err := ix.matches(p, v, func(rows *colpage.Lanes, i int) { out = append(out, rows.Row(i)) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Get returns the tuple with key value v and the given id: a walk of the
// whole chain, as Lookup's, that boxes that row alone.
func (ix *Index) Get(p *storage.Pool, v tuple.Value, id uint64) (tuple.Tuple, bool, error) {
	var found tuple.Tuple
	ok := false
	err := ix.matches(p, v, func(rows *colpage.Lanes, i int) {
		if !ok && rows.IDs[i] == id {
			found, ok = rows.Row(i), true
		}
	})
	if err != nil {
		return tuple.Tuple{}, false, err
	}
	return found, ok, nil
}

// Pages returns the total chain pages (primary + overflow), the page
// directory's count; it reads no page and charges nothing.
func (ix *Index) Pages() int { return ix.dir.Pages() }

// Truncate removes every tuple: the HR reset (A := ∅, D := ∅). Like a
// file truncation it reads and writes no page. It follows each bucket's
// chain by the links in the page directory and frees every page of it:
// the page's frame is discarded unwritten, the page freed on disk and
// dropped from the directory. Every bucket is then left with no page.
func (ix *Index) Truncate(p *storage.Pool) error {
	for b, pn := range ix.buckets {
		for more := pn != noPage; more; {
			e, err := ix.dir.Lookup(pn)
			if err != nil {
				return err
			}
			if e == nil {
				return fmt.Errorf("hashidx: bucket %d's chain reaches page %d, which is no chain page", b, pn)
			}
			next, hasNext := e.Next, e.HasNext
			p.Discard(ix.file, pn)
			ix.file.Free(pn)
			ix.dir.Drop(pn)
			pn, more = next, hasNext
		}
		ix.buckets[b] = noPage
	}
	ix.heads = ix.heads[:0]
	ix.count = 0
	return nil
}

// --- scans ---------------------------------------------------------------

// ScanAll returns a scan of every tuple in the index, bucket chain after
// bucket chain (colpage.Scan) over the buckets that have a page: one
// metered read per page, except the pages the prune atoms' zone maps
// disprove, which a readahead walk skips unread. Order is arbitrary but
// deterministic. The scan must be drained or dropped before the index is
// written again.
func (ix *Index) ScanAll(p *storage.Pool, prune []colpage.Atom) (*colpage.Scan, error) {
	return ix.dir.ScanChains(p, ix.heads, ix.keyCol, prune)
}

// ScanAllBatches drains ScanAll into columnar batches of up to size
// rows and reports the pages it pruned. The HR differential file is
// scanned this way by every deferred refresh (NetChanges).
func (ix *Index) ScanAllBatches(p *storage.Pool, size int, prune []colpage.Atom) ([]*vec.Batch, int64, error) {
	s, err := ix.ScanAll(p, prune)
	if err != nil {
		return nil, 0, err
	}
	return s.Drain(size)
}
