package colpage

import (
	"fmt"
	"slices"
	"sort"

	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// Scan reads chains of an access method's data pages — a B+-tree's leaf
// chain from the leaf a descent found (Directory.Scan), a hash file's
// bucket chains from the head of each bucket that has a page
// (Directory.ScanChains) — chain after chain, each page down its forward
// link, decoding the pages straight to columnar form. It holds no pins
// between Fill calls; each page is fetched (and charged) once per visit.
//
// One rule arms readahead and pruning (window): a full scan (nil range)
// of a clean file — one with no dirty frame — in a pool with room for a
// window. Such a scan walks the chains in the file's page directory —
// links and zone maps in memory, no page opened — a window of pages at a
// time, and fetches each window through Pool.ReadBatch: every page of the chains
// is read eventually anyway, so the window meters the same one read per
// page while paying the simulated I/O latency once per window instead of
// once per page. Pages that hold no row, and pages whose zone maps
// disprove the prune atoms, are skipped there: never pinned, never
// charged, counted as pruned so plans can report them. Every other scan
// — a range scan, whose early end at Hi would make a prefetched page a
// read the plain walk never charges; a scan over dirty frames, whose
// directory entries the images do not yet say; a scan in a tiny pool —
// follows the links of the pages it reads, one charged Read a page, and
// prunes nothing.
//
// A B+-tree's leaf chain in a clean file is read through the leaves'
// kept lanes (kept.go): each leaf is decoded whole by the first read of
// its bytes, on any path, and kept beside them (storage.Pool.Derive), so
// every later read of the same image opens no page byte. A leaf a chain-
// following read takes is not copied at all: Fill cuts its runs straight
// from the kept lanes. A hash file's chains, and a file holding a dirty
// frame, are decoded page by page: a page the scan wants whole — any
// page of a full scan, an interior leaf of a range scan — straight onto
// the batch being filled when it fits; every other page (the rest of a
// window once the batch is full, the leaves a range cuts) onto the
// scan's staging lanes, from which Fill moves it on in runs of rows.
//
// A range scan, over one chain sorted on its key column, works per leaf,
// not per row: the rows a leaf keeps are found by binary search over its
// sorted key lane (keptRun), and a Fill that starts an empty batch sizes
// the batch's lanes once for the rows the range can still hand it, read
// from the directory (reserve). A full scan does neither.
//
// Every page a full scan reads, on either path, has its rows tested
// against the atoms before they are gathered: a leaf read through kept
// lanes on those lanes, any other page on its encoded lanes, only its
// survivors then decoded (DecodeWhere). The encoded test reads the page
// the pool hands the read — the frame's bytes for a page a writer holds
// dirty, the image otherwise — so dirty frames do not disarm it;
// zone-map pruning comes first, so a pruned leaf is neither read nor
// decoded. Only the rows that pass are filled; the count of the rest
// rides on the filled batch (vec.Batch.Dropped).
type Scan struct {
	dir     *Directory
	pool    *storage.Pool
	keyCol  int
	rg      *pred.Range
	prune   []Atom // full scans: zone-map pruning and the row test
	dropped int    // rows the atoms dropped, not yet on a filled batch
	cur     cursor
	done    bool
	all     bool   // the range keeps every row: no key is looked at
	keep    bool   // a B+-tree's leaf chain: read through kept lanes while clean
	stage   Lanes  // rows a decode or a window gathered, not yet handed out
	rows    *Lanes // the rows handed out from idx on: stage, or a leaf's kept lanes
	idx     int
	pruned  int64
	// The pages walkAhead found to fetch, reused window to window; not
	// referenced once the loadPage call that filled it returns.
	fetch []storage.PageNum
	// The kept leaves a load read and the rows of each it takes, gathered
	// once the load has read them all (gather); sels holds the selections
	// the load made itself. Both are reused load to load.
	picks []pick
	sels  []int
}

// cursor is a scan's place: the page it reads next, while more, and the
// heads of the chains after that page's.
type cursor struct {
	pn    storage.PageNum
	more  bool
	heads []storage.PageNum
}

// follow moves c past a page whose forward link is (next, hasNext): down
// its chain, or to the head of the next chain.
func (c *cursor) follow(next storage.PageNum, hasNext bool) {
	switch {
	case hasNext:
		c.pn = next
	case len(c.heads) > 0:
		c.pn, c.heads = c.heads[0], c.heads[1:]
	default:
		c.more = false
	}
}

// Scan opens a scan of the chain from page first over rows whose column
// keyCol lies in rg (nil means all; a range needs the chain sorted on
// keyCol, and first the leaf that may hold its Lo). Prune atoms apply
// only to full scans: a range scan already ends early, and pruning
// mid-range could skip the page holding the range's end. It reads the
// first page (on a full scan, the first window) before it returns; Fill
// skips that leaf's rows below the range. The atoms may be kept beside
// the leaves the scan selects on (kept.publish): the caller never changes
// them.
func (d *Directory) Scan(pool *storage.Pool, first storage.PageNum, keyCol int, rg *pred.Range, prune []Atom) (*Scan, error) {
	return d.open(pool, cursor{pn: first, more: true}, keyCol, rg, prune, true)
}

// ScanChains opens a full scan of the chains headed by each page of
// heads, in order, pruned by the atoms; with no head it reads nothing
// and is done. The scan reads heads as it goes and keeps no copy: the
// caller leaves the list alone while the scan is open.
func (d *Directory) ScanChains(pool *storage.Pool, heads []storage.PageNum, keyCol int, prune []Atom) (*Scan, error) {
	var c cursor
	if len(heads) > 0 {
		c = cursor{pn: heads[0], more: true, heads: heads[1:]}
	}
	return d.open(pool, c, keyCol, nil, prune, false)
}

// open starts a scan at cursor c; keep has the clean file's pages read
// through kept lanes.
func (d *Directory) open(pool *storage.Pool, c cursor, keyCol int, rg *pred.Range, prune []Atom, keep bool) (*Scan, error) {
	s := &Scan{dir: d, pool: pool, keyCol: keyCol, rg: rg, all: rg == nil || rg.Unbounded(), keep: keep, cur: c}
	s.rows = &s.stage
	if rg == nil {
		s.prune = prune
	}
	return s, s.loadPage(nil, 0)
}

// Pruned returns the number of pages skipped via zone maps so far.
func (s *Scan) Pruned() int64 { return s.pruned }

// Done reports exhaustion.
func (s *Scan) Done() bool { return s.done }

// Fill appends rows to b (slot-0-only shape) until the batch holds max
// rows or the scan is exhausted; check Done afterwards. Whenever the
// rows read so far run out it reads on at once, full batch or not, so
// the pool sees the page requests at the same points of the scan
// whatever the batch size. The rows the prune atoms dropped since the
// last Fill are added to b.Dropped.
func (s *Scan) Fill(b *vec.Batch, max int) error {
	defer func() { b.Dropped, s.dropped = b.Dropped+s.dropped, 0 }()
	if !s.all && b.NumRows() == 0 {
		if err := s.reserve(b, max); err != nil {
			return err
		}
	}
	for !s.done {
		n := len(s.rows.IDs)
		if s.idx >= n {
			if err := s.loadPage(b, max); err != nil {
				return err
			}
			continue
		}
		lo, hi, past := s.idx, n, false
		if !s.all {
			keys, err := s.keys(s.rows.Cols)
			if err != nil {
				return err
			}
			lo, hi, past = keptRun(keys, s.rg, s.idx, n)
		}
		if lo < hi {
			room := max - b.NumRows()
			if room <= 0 {
				s.idx = lo
				return nil // batch full; resume here next call
			}
			take := min(hi-lo, room)
			if err := s.rows.MoveRows(b, lo, lo+take); err != nil {
				return err
			}
			if take < hi-lo {
				s.idx = lo + take
				return nil
			}
		}
		s.idx, s.done = hi, past
	}
	return nil
}

// Drain fills batches of up to size rows (size < 1: the default) until
// the scan is exhausted and returns them with the pages it pruned.
func (s *Scan) Drain(size int) ([]*vec.Batch, int64, error) {
	if size < 1 {
		size = vec.DefaultBatchSize
	}
	var out []*vec.Batch
	for !s.done {
		b := &vec.Batch{}
		if err := s.Fill(b, size); err != nil {
			return nil, 0, err
		}
		out = vec.AppendFilled(out, b)
	}
	return out, s.pruned, nil
}

// keys returns the key column of scanned rows, which stored bytes may
// not have.
func (s *Scan) keys(cols []vec.Col) (*vec.Col, error) {
	if s.keyCol >= len(cols) {
		return nil, fmt.Errorf("colpage: rows of %d columns have no key column %d", len(cols), s.keyCol)
	}
	return &cols[s.keyCol], nil
}

// reserve sizes an empty batch's lanes, on a bounded range scan, for
// the rows this Fill can hand it: the read rows not yet handed out
// plus the rows of the leaves after them whose key zone does not start
// beyond Hi, at most max — read from the directory, not the pages. It
// reserves nothing unless the range runs on past the leaf read last, so
// a point lookup allocates what it did without it. The count is a hint: a
// dirty frame's entry can make it loose, never wrong, and it moves no
// page request.
func (s *Scan) reserve(b *vec.Batch, max int) error {
	n := len(s.rows.IDs)
	if s.idx >= n || !s.cur.more {
		return nil
	}
	keys, err := s.keys(s.rows.Cols)
	if err != nil || beyondHi(keys, s.rg, n-1) {
		return err
	}
	rows := 0
	for c := s.cur; c.more && n-s.idx+rows < max; {
		e, err := s.dir.Lookup(c.pn)
		if err != nil {
			return err
		}
		if e == nil {
			break
		}
		z, ok := e.Zones()
		if !ok || s.keyCol >= len(z.Cols) || !z.Cols[s.keyCol].Present {
			break
		}
		if s.rg.Hi != nil && pastHi(s.rg, tuple.Compare(z.Cols[s.keyCol].Min, *s.rg.Hi)) {
			break
		}
		rows += z.N
		c.follow(e.Next, e.HasNext)
	}
	if rows > 0 {
		b.Reserve(s.rows.Cols, min(n-s.idx+rows, max))
	}
	return nil
}

// keptRun finds in key cells [from, to) the next run of rows the range
// keeps, rows [lo, hi): those in [from, lo) it excludes (below Lo on
// the scan's first leaf, or equal to a ≠ constant). past reports that
// row hi lies beyond Hi, which ends the scan.
//
// A leaf's key lane is sorted under tuple.Compare, a total order, so
// without ≠ constants the kept rows are one run, found by two binary
// searches: lo is the first row not below Lo, hi the first beyond Hi. A
// leaf whose first and last rows both lie in the range — every interior
// leaf — is kept whole after two compares.
func keptRun(keys *vec.Col, rg *pred.Range, from, to int) (lo, hi int, past bool) {
	if from >= to || rg.HasExclusions() {
		return keptRunRows(keys, rg, from, to)
	}
	if !belowLo(keys, rg, from) && !beyondHi(keys, rg, to-1) {
		return from, to, false
	}
	lo = from + sort.Search(to-from, func(k int) bool { return !belowLo(keys, rg, from+k) })
	hi = from + sort.Search(to-from, func(k int) bool { return beyondHi(keys, rg, from+k) })
	// An empty range (Lo beyond Hi) can put a row beyond Hi before the
	// first not below Lo: the scan ends there.
	return min(lo, hi), hi, hi < to
}

// keptRunRows is keptRun row by row, boxing every key: any lane, any
// range.
func keptRunRows(keys *vec.Col, rg *pred.Range, from, to int) (lo, hi int, past bool) {
	beyond := func(v tuple.Value) bool {
		if rg.Hi == nil {
			return false
		}
		c := tuple.Compare(v, *rg.Hi)
		return c > 0 || (c == 0 && !rg.HiInc)
	}
	for lo = from; lo < to; lo++ {
		v := keys.Value(lo)
		if beyond(v) {
			return lo, lo, true
		}
		if rg.Contains(v) {
			break
		}
	}
	for hi = lo; hi < to; hi++ {
		v := keys.Value(hi)
		if beyond(v) {
			return lo, hi, true
		}
		if !rg.Contains(v) {
			break
		}
	}
	return lo, hi, false
}

// belowLo reports whether key cell i lies below the range's Lo.
func belowLo(keys *vec.Col, rg *pred.Range, i int) bool {
	if rg.Lo == nil {
		return false
	}
	c := keys.Compare(i, *rg.Lo)
	return c < 0 || (c == 0 && !rg.LoInc)
}

// beyondHi reports whether key cell i lies beyond the range's Hi.
func beyondHi(keys *vec.Col, rg *pred.Range, i int) bool {
	return rg.Hi != nil && pastHi(rg, keys.Compare(i, *rg.Hi))
}

// pastHi reports whether a value that compares c against the range's Hi
// lies beyond it.
func pastHi(rg *pred.Range, c int) bool { return c > 0 || (c == 0 && !rg.HiInc) }

// loadPage reads the next page — on a readahead scan, the next window
// of pages — once every row read before it has been handed out. b is
// the batch being filled (nil at open), max its row limit.
func (s *Scan) loadPage(b *vec.Batch, max int) error {
	s.stage.Reset()
	s.rows, s.idx = &s.stage, 0
	for {
		if !s.cur.more {
			s.done = true
			return nil
		}
		if w := s.window(); w > 0 {
			cont, ok, err := s.walkAhead(w)
			if err != nil {
				return err
			}
			if ok {
				// The walk owns the cursor: the fetched pages' own links
				// may point at pruned pages and must not steer the scan.
				s.cur = cont
				if len(s.fetch) == 0 {
					continue // whole window pruned; maybe exhausted now
				}
				return s.fetchPages(s.fetch, b, max)
			}
		}
		// Charged, chain-following load.
		next, hasNext, err := s.readPage(s.cur.pn, b, max)
		s.cur.follow(next, hasNext)
		return err
	}
}

// window is the one rule that arms readahead and pruning: the number of
// pages a walk may fetch at once, 0 when the scan must follow the chain
// page by page instead. It arms only on a full scan of a clean file (the
// clean-file rule, which also sends reads through kept lanes), in a pool
// large enough for a window. The directory does hold a dirty frame's
// link and zones, but it is consulted only while the file is clean
// (Directory): pruning on a dirty frame's zones would skip pages an image
// walk read, and so move the metered count.
//
// A window stays well under the pool capacity, so the briefly pinned
// window can never force out its own pages or exhaust eviction
// candidates (the batch eviction pass then picks exactly the victims an
// incremental walk would); a pool of under eight frames has no room.
func (s *Scan) window() int {
	w := min(s.pool.Capacity()/4, 32)
	if w < 2 || s.rg != nil || !s.dir.clean() {
		return 0
	}
	return w
}

// takePage decodes a data page the pool is reading — on a full scan, the
// rows the prune atoms keep: straight onto b when the data page rule
// allows it and the range keeps every row of the page; onto the staging
// lanes otherwise.
func (s *Scan) takePage(page []byte, b *vec.Batch, max int) error {
	mark := 0
	if b != nil {
		mark = b.NumRows()
	}
	direct, dropped, err := s.dir.typ.Take(page, s.prune, b, max, &s.stage)
	s.dropped += dropped
	if err != nil || !direct || s.all || b.NumRows() == mark {
		return err
	}
	keys, err := s.keys(b.Slots[0])
	if err != nil {
		return err
	}
	if lo, hi, past := keptRun(keys, s.rg, mark, b.NumRows()); lo != mark || hi != b.NumRows() || past {
		// The range cuts this leaf (its last, usually): take it back
		// and let Fill move the kept runs.
		b.Truncate(mark)
		_, _, err = s.dir.typ.Take(page, nil, nil, 0, &s.stage)
	}
	return err
}

// readPage reads one page with a plain charged Read — through its kept
// lanes by the clean-file rule — and returns its forward link. A leaf's
// kept lanes are handed out in place, with the link kept beside them, so
// a kept read opens no page byte: Fill cuts its runs from them, and only
// a full scan's atoms gather the rows they keep first.
func (s *Scan) readPage(pn storage.PageNum, b *vec.Batch, max int) (next storage.PageNum, hasNext bool, err error) {
	err = s.dir.read(s.pool, pn, s.keep, true, func(page []byte, k *kept) error {
		if k == nil {
			next, hasNext = PageLink(page)
			return s.takePage(page, b, max)
		}
		next, hasNext = k.next, k.hasNext
		if len(s.prune) > 0 {
			hit, err := s.pick(k, checking())
			if hit {
				keptSelected.Add(1)
			}
			if err != nil {
				return err
			}
			return s.gather(b, max)
		}
		s.rows = &k.Lanes
		return nil
	})
	return next, hasNext, err
}

// pick adds a leaf's kept lanes to the load's picks, with the rows of
// them the prune atoms select: the leaf's selection slot's when it holds
// these atoms, so no cell is tested; otherwise selected now, in the
// load's selection storage, and offered to the slot (kept.publish). check
// has a hit compared with a fresh selection.
func (s *Scan) pick(k *kept, check bool) (hit bool, err error) {
	var sel []int // nil: every row
	if len(s.prune) > 0 {
		if sel, hit, err = k.selection(s.prune, check); err != nil {
			return hit, err
		}
		if !hit {
			n := len(s.sels)
			s.sels = slices.Grow(s.sels, len(k.IDs))
			var won bool
			if sel, won = k.publish(s.prune, k.selectRows(s.prune, s.sels[n:])); !won {
				s.sels = s.sels[:n+len(sel)]
			}
		}
	}
	s.picks = append(s.picks, pick{k: k, sel: sel})
	return hit, nil
}

// gather takes the rows of the load's picks, in order, as takePage takes
// a page's: onto b's slot-0 lanes when nothing is staged and all of them
// fit below max rows, onto the staging lanes otherwise — each lane grown
// once for all of them.
func (s *Scan) gather(b *vec.Batch, max int) error {
	if len(s.picks) == 0 {
		return nil
	}
	rows := 0
	for _, p := range s.picks {
		rows += p.rows()
	}
	_, dropped, err := take(nil, rows, nil, s.picks, b, max, &s.stage)
	s.dropped += dropped
	s.picks, s.sels = s.picks[:0], s.sels[:0]
	return err
}

// walkAhead walks the chains from the cursor in the directory — links,
// row counts and zone maps in memory, no page opened — splitting the next
// window of up to w pages into pages to fetch (s.fetch) and pages that
// hold no row or whose zone maps disprove the prune atoms (skipped,
// counted as pruned, never read). A window runs on from the end of one
// chain to the head of the next. On return with ok, the cursor
// continuation cont is owned by the walk: it points past every examined
// page. A walk that meets a page the directory has no
// data page for, or whose zone maps do not parse, before committing any
// prune returns !ok so the charged chain-following path takes over from
// the cursor; after a prune, it stops at that page and lets the charged
// path surface the real error there. err is a test binary's directory
// check failing.
func (s *Scan) walkAhead(w int) (cont cursor, ok bool, err error) {
	c := s.cur
	prunedN := 0
	s.fetch = s.fetch[:0]
	for {
		e, err := s.dir.Lookup(c.pn)
		if err != nil {
			return cursor{}, false, err
		}
		skip := false
		if e != nil {
			if skip = e.Empty(); !skip {
				skip, err = e.Prunable(s.prune)
			}
		}
		if e == nil || err != nil {
			// Truncated or foreign chain, or a footer that does not parse.
			return c, prunedN > 0, nil
		}
		if skip {
			prunedN++
			s.pruned++
		} else {
			s.fetch = append(s.fetch, c.pn)
		}
		c.follow(e.Next, e.HasNext)
		if !c.more || len(s.fetch) == w {
			return c, true, nil
		}
	}
}

// fetchPages reads the walked window as one pool batch — one combined
// latency sleep, the metered reads of a page-by-page walk. Each page is
// released as soon as its rows are taken, so the window holds no pins
// afterwards. A B+-tree's window is read through the leaves' kept lanes
// (a window arms only on a clean file): each leaf's lanes are built on
// its first read, and reused until its image changes. The window's kept
// leaves are selected first and gathered together once the window is
// read, so the batch's lanes grow once a window, by the rows selected.
func (s *Scan) fetchPages(pns []storage.PageNum, b *vec.Batch, max int) error {
	if !s.keep {
		return s.pool.ReadBatch(s.dir.file, pns, func(_ int, page []byte) error {
			return s.takePage(page, b, max)
		})
	}
	var builds, reuses, hits int64
	check := checking()
	err := s.pool.DeriveBatch(s.dir.file, pns, func(_ int, page []byte, d any) (any, error) {
		k, built, err := s.dir.typ.lanesOf(page, d, check, true)
		switch {
		case err != nil:
			return nil, err
		case k == nil: // not this deriver's: decode as any other page, in order
			if err := s.gather(b, max); err != nil {
				return d, err
			}
			return d, s.takePage(page, b, max)
		case built:
			builds++
		default:
			reuses++
		}
		hit, err := s.pick(k, check)
		if hit {
			hits++
		}
		return k, err
	})
	keptBuilt.Add(builds)
	keptReused.Add(reuses)
	keptSelected.Add(hits)
	if err != nil {
		return err
	}
	return s.gather(b, max)
}
