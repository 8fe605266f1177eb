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
package hashidx

import (
	"fmt"
	"hash/fnv"

	"viewmat/internal/colpage"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// chainPages is the type byte of a chain page, which is a colpage data
// page: the codec, the page→lanes decode and the page directory live
// there, shared with btree's leaves.
const chainPages colpage.PageType = 5

// Index is a clustered hash index storing full tuples. Not safe for
// concurrent use.
type Index struct {
	pool    *storage.Pool
	file    *storage.File
	dir     *colpage.Directory // every chain page's link and zone maps
	keyCol  int
	buckets []storage.PageNum
	count   int
}

// node is a decoded chain page.
type node = colpage.DataPage

// Meta is an index's persistent metadata: the primary bucket page
// numbers and the live tuple count.
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
// page directory from the file's images.
func Open(pool *storage.Pool, file *storage.File, keyCol int, m Meta) (*Index, error) {
	if len(m.Buckets) == 0 || m.Count < 0 {
		return nil, fmt.Errorf("hashidx: invalid metadata %+v", m)
	}
	for _, pn := range m.Buckets {
		if _, err := file.Peek(pn); err != nil {
			return nil, fmt.Errorf("hashidx: bucket page %d missing: %w", pn, err)
		}
	}
	return &Index{pool: pool, file: file, dir: colpage.NewDirectory(chainPages, file), keyCol: keyCol, buckets: append([]storage.PageNum(nil), m.Buckets...), count: m.Count}, nil
}

// New creates an index with the given number of primary bucket pages,
// clustered on keyCol. Primary pages are pre-allocated, matching a
// statically-hashed file; growth beyond them forms overflow chains.
func New(pool *storage.Pool, file *storage.File, keyCol, numBuckets int) (*Index, error) {
	if numBuckets < 1 {
		numBuckets = 1
	}
	ix := &Index{pool: pool, file: file, dir: colpage.NewDirectory(chainPages, file), keyCol: keyCol, buckets: make([]storage.PageNum, numBuckets)}
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
	return ix, nil
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

// Insert adds a tuple, placing it on the first chain page with space
// (allocating an overflow page if the chain is full). Each chain page
// inspected costs one metered read; the modified page costs one write.
func (ix *Index) Insert(tp tuple.Tuple) error {
	if !colpage.FitsAlone(tp, ix.pool.PageSize()) {
		return fmt.Errorf("hashidx: tuple of %d bytes exceeds page capacity", tp.EncodedSize())
	}
	pn := ix.buckets[ix.bucketFor(tp.Vals[ix.keyCol])]
	for {
		fr, err := ix.pool.Get(ix.file, pn)
		if err != nil {
			return err
		}
		n, err := chainPages.DecodePage(fr.Data)
		if err != nil {
			ix.pool.Release(fr)
			return err
		}
		n.Tuples = append(n.Tuples, tp)
		if n.Size() <= len(fr.Data) {
			ix.encodeNode(fr, n)
			fr.MarkDirty()
			ix.count++
			return ix.pool.Release(fr)
		}
		n.Tuples = n.Tuples[:len(n.Tuples)-1]
		if n.HasNext {
			pn = n.Next
			if err := ix.pool.Release(fr); err != nil {
				return err
			}
			continue
		}
		// Allocate an overflow page and link it.
		ofr, err := ix.pool.Alloc(ix.file)
		if err != nil {
			ix.pool.Release(fr)
			return err
		}
		ix.encodeNode(ofr, &node{Tuples: []tuple.Tuple{tp}})
		ofr.MarkDirty()
		n.Next, n.HasNext = ofr.PageNum(), true
		ix.encodeNode(fr, n)
		fr.MarkDirty()
		ix.count++
		if err := ix.pool.Release(ofr); err != nil {
			ix.pool.Release(fr)
			return err
		}
		return ix.pool.Release(fr)
	}
}

// Lookup returns all tuples whose key column equals v, walking the
// bucket's chain (one metered read per chain page).
func (ix *Index) Lookup(v tuple.Value) ([]tuple.Tuple, error) {
	var out []tuple.Tuple
	pn := ix.buckets[ix.bucketFor(v)]
	for {
		var next storage.PageNum
		hasNext := false
		err := ix.pool.Read(ix.file, pn, func(page []byte) error {
			n, err := chainPages.DecodePage(page)
			if err != nil {
				return err
			}
			for _, tp := range n.Tuples {
				if tuple.Equal(tp.Vals[ix.keyCol], v) {
					out = append(out, tp.Clone())
				}
			}
			next, hasNext = n.Next, n.HasNext
			return nil
		})
		if err != nil {
			return nil, err
		}
		if !hasNext {
			return out, nil
		}
		pn = next
	}
}

// Get returns the tuple with key value v and the given id.
func (ix *Index) Get(v tuple.Value, id uint64) (tuple.Tuple, bool, error) {
	matches, err := ix.Lookup(v)
	if err != nil {
		return tuple.Tuple{}, false, err
	}
	for _, tp := range matches {
		if tp.ID == id {
			return tp, true, nil
		}
	}
	return tuple.Tuple{}, false, nil
}

// Delete removes the tuple with key value v and the given id and
// returns it, reporting whether it was found.
func (ix *Index) Delete(v tuple.Value, id uint64) (tuple.Tuple, bool, error) {
	pn := ix.buckets[ix.bucketFor(v)]
	for {
		fr, err := ix.pool.Get(ix.file, pn)
		if err != nil {
			return tuple.Tuple{}, false, err
		}
		n, err := chainPages.DecodePage(fr.Data)
		if err != nil {
			ix.pool.Release(fr)
			return tuple.Tuple{}, false, err
		}
		for i, tp := range n.Tuples {
			if tp.ID == id && tuple.Equal(tp.Vals[ix.keyCol], v) {
				n.Tuples = append(n.Tuples[:i], n.Tuples[i+1:]...)
				ix.encodeNode(fr, n)
				fr.MarkDirty()
				ix.count--
				return tp, true, ix.pool.Release(fr)
			}
		}
		hasNext, next := n.HasNext, n.Next
		if err := ix.pool.Release(fr); err != nil {
			return tuple.Tuple{}, false, err
		}
		if !hasNext {
			return tuple.Tuple{}, false, nil
		}
		pn = next
	}
}

// Pages returns the total chain pages (primary + overflow), unmetered.
func (ix *Index) Pages() int {
	total := 0
	for _, bpn := range ix.buckets {
		pn := bpn
		for {
			total++
			var next storage.PageNum
			hasNext := false
			if err := ix.file.View(pn, func(page []byte) error {
				if n, err := chainPages.DecodePage(page); err == nil {
					next, hasNext = n.Next, n.HasNext
				}
				return nil
			}); err != nil {
				return total
			}
			if !hasNext {
				break
			}
			pn = next
		}
	}
	return total
}

// Truncate removes every tuple but keeps the primary buckets, freeing
// overflow pages. This is the HR reset (A := ∅, D := ∅) fast path.
func (ix *Index) Truncate() error {
	for _, bpn := range ix.buckets {
		fr, err := ix.pool.Get(ix.file, bpn)
		if err != nil {
			return err
		}
		n, err := chainPages.DecodePage(fr.Data)
		if err != nil {
			ix.pool.Release(fr)
			return err
		}
		overflow := []storage.PageNum{}
		next, hasNext := n.Next, n.HasNext
		ix.encodeNode(fr, &node{})
		fr.MarkDirty()
		if err := ix.pool.Release(fr); err != nil {
			return err
		}
		for hasNext {
			overflow = append(overflow, next)
			if err := ix.pool.Read(ix.file, next, func(page []byte) error {
				on, err := chainPages.DecodePage(page)
				if err != nil {
					return err
				}
				next, hasNext = on.Next, on.HasNext
				return nil
			}); err != nil {
				return err
			}
		}
		for _, pn := range overflow {
			ix.pool.Discard(ix.file, pn)
			ix.file.Free(pn)
			ix.dir.Drop(pn)
		}
	}
	ix.count = 0
	return nil
}

// --- batch scans ---------------------------------------------------------

// batchFiller packs the rows of scanned chain pages that the atoms keep
// into batches of up to size rows: a page that fits the current batch
// whole decodes straight onto it, one that straddles a batch boundary
// decodes onto the staging lanes and moves on in runs. The count of rows
// the atoms drop rides on the batch being filled.
type batchFiller struct {
	size  int
	atoms []colpage.Atom
	out   []*vec.Batch
	cur   *vec.Batch
	stage colpage.Lanes // reused from page to page
}

func (f *batchFiller) addPage(page []byte) error {
	direct, dropped, err := chainPages.Take(page, f.atoms, f.cur, f.size, &f.stage)
	f.cur.Dropped += dropped
	if err != nil || direct {
		return err
	}
	for lo, n := 0, len(f.stage.IDs); lo < n; {
		if f.cur.NumRows() >= f.size {
			f.out = append(f.out, f.cur)
			f.cur = &vec.Batch{}
		}
		hi := min(n, lo+f.size-f.cur.NumRows())
		if err := f.stage.MoveRows(f.cur, lo, hi); err != nil {
			return err
		}
		lo = hi
	}
	f.stage.Reset()
	return nil
}

// batches returns everything packed so far.
func (f *batchFiller) batches() []*vec.Batch { return vec.AppendFilled(f.out, f.cur) }

// ScanAllBatches returns every tuple in the index decoded straight into
// columnar batches of up to size rows, bucket by bucket (one metered
// read per page). Order is arbitrary but deterministic. When the index
// has no overflow chains, buckets are fetched in batched runs of
// consecutive pages (primary buckets are allocated sequentially by
// New), which meters identically — one read per page, in the same page
// order — but pays the simulated I/O latency once per run instead of
// once per page. The HR differential file is scanned this way by every
// deferred refresh (NetChanges), so delta scans get the readahead too.
//
// Pages a prune atom's zone map disproves are skipped unread and
// uncharged (counted in pruned). Pruning applies only on the batched
// no-overflow fast path against a clean on-disk image; the chain-
// following fallback reads (and charges) every page. Either walk tests
// the rows of every page it reads against the atoms before decoding
// them, and fills only those that pass (see batchFiller).
func (ix *Index) ScanAllBatches(size int, prune []colpage.Atom) ([]*vec.Batch, int64, error) {
	if size < 1 {
		size = vec.DefaultBatchSize
	}
	if out, pruned, ok, err := ix.scanBatchedCols(size, prune); err != nil {
		return nil, 0, err
	} else if ok {
		return out, pruned, nil
	}
	fill := batchFiller{size: size, atoms: prune, cur: &vec.Batch{}}
	for _, bpn := range ix.buckets {
		pn := bpn
		for {
			var next storage.PageNum
			hasNext := false
			if err := ix.pool.Read(ix.file, pn, func(page []byte) error {
				next, hasNext = colpage.PageLink(page)
				return fill.addPage(page)
			}); err != nil {
				return nil, 0, err
			}
			if !hasNext {
				break
			}
			pn = next
		}
	}
	return fill.batches(), 0, nil
}

// scanBatchedCols is the readahead fast path of ScanAllBatches. It
// applies only when the file holds exactly the primary buckets (no
// overflow pages anywhere — overflow would interleave chain walks
// between bucket reads, changing the access order the plain walk
// produces) and the pool is large enough that a briefly-pinned window
// cannot starve eviction. ok reports whether the fast path ran. When
// prune atoms are given and the on-disk image is clean, each run's
// pages are looked up in the page directory first and pages whose zone
// maps disprove the atoms are excluded from the batch read — the run
// never speculatively pins them. The row test reads the page the pool
// hands the read (a dirty frame's bytes, or the image), so it stays armed
// over dirty frames.
func (ix *Index) scanBatchedCols(size int, prune []colpage.Atom) (out []*vec.Batch, pruned int64, ok bool, err error) {
	w := colpage.Window(ix.pool)
	if w == 0 || len(ix.buckets) < 2 || ix.file.NumPages() != len(ix.buckets) {
		return nil, 0, false, nil
	}
	fill := batchFiller{size: size, atoms: prune, cur: &vec.Batch{}}
	if ix.file.HasDirtyFrames() {
		prune = nil // the on-disk zone maps may be stale; read everything
	}
	fetch := make([]storage.PageNum, 0, w)
	for start := 0; start < len(ix.buckets); {
		// Maximal run of consecutive bucket pages, clamped to the window.
		end := start + 1
		for end < len(ix.buckets) && end-start < w && ix.buckets[end] == ix.buckets[end-1]+1 {
			end++
		}
		fetch = fetch[:0]
		for _, pn := range ix.buckets[start:end] {
			skip := false
			if len(prune) > 0 {
				// Only overflow-free columnar pages prune; anything odd
				// (a page the directory has none for, a footer that does
				// not parse) is read on the charged path instead.
				e, err := ix.dir.Lookup(pn)
				if err != nil {
					return nil, 0, false, err
				}
				if e != nil && !e.HasNext {
					skip, _ = e.Prunable(prune)
				}
			}
			if skip {
				pruned++
			} else {
				fetch = append(fetch, pn)
			}
		}
		start = end
		if len(fetch) == 0 {
			continue
		}
		fallback := false
		if err := ix.pool.ReadBatch(ix.file, fetch, func(_ int, page []byte) error {
			if fallback {
				return nil
			}
			if _, hasNext := colpage.PageLink(page); hasNext && page[0] == byte(chainPages) {
				// Metadata said no overflow but the page links onward;
				// retry as a plain walk (fetched pages stay resident, so
				// its reads mostly hit).
				fallback = true
				return nil
			}
			return fill.addPage(page)
		}); err != nil {
			return nil, 0, false, err
		}
		if fallback {
			return nil, 0, false, nil
		}
	}
	return fill.batches(), pruned, true, nil
}
