// Package btree implements a clustered B+-tree over the simulated disk:
// full tuples live in the leaves, ordered by one key column (with the
// tuple id as a tiebreaker so duplicate key values are supported), and
// leaves are forward-linked for range scans.
//
// This is the access method the paper assumes for the base relation R
// (and R1) and for materialized views: "clustered B+-tree on field used
// in view predicate" (§3.1). All page traffic is charged through the
// buffer pool, so the tree's I/O behaviour — height-many reads per
// descent, read+write per updated leaf, leaf-chain reads per scanned
// page — is what the cost formulas price at C2 per page.
package btree

import (
	"cmp"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"viewmat/internal/colpage"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

const pageInternal = 2

// leafPages is the type byte of a leaf, which is a colpage data page:
// the codec, the page→lanes decode, the page directory and the scan
// that walks it live there, shared with hashidx's chain pages.
const leafPages colpage.PageType = 4

// leafNode is the decoded form of a leaf page.
type leafNode = colpage.DataPage

// Tree is a clustered B+-tree. Not safe for concurrent use; the engine
// serializes operations (the paper's model is single-user).
type Tree struct {
	file   *storage.File
	dir    *colpage.Directory // every leaf's link and zone maps
	keyCol int
	root   storage.PageNum
	height int // levels including the leaf level
	count  int // live tuples

	// An apply visit's leaves, their buffers reused visit to visit.
	open []openLeaf
}

// key orders leaf entries: by column value, then by tuple id.
type key struct {
	val tuple.Value
	id  uint64
}

func (k key) less(o key) bool { return k.compare(o) < 0 }

func (k key) compare(o key) int {
	if c := tuple.Compare(k.val, o.val); c != 0 {
		return c
	}
	return cmp.Compare(k.id, o.id)
}

func keyOf(t tuple.Tuple, keyCol int) key { return key{val: t.Vals[keyCol], id: t.ID} }

// internalNode is the decoded form of an internal page: children[i]
// covers keys in [seps[i-1], seps[i]) with seps[-1] = −inf.
type internalNode struct {
	children []storage.PageNum
	seps     []key // len = len(children)-1
}

// Meta is a tree's persistent metadata: everything beyond the page
// file needed to reopen it.
type Meta struct {
	Root   storage.PageNum
	Height int
	Count  int
}

// Meta returns the tree's persistent metadata.
func (t *Tree) Meta() Meta {
	return Meta{Root: t.root, Height: t.height, Count: t.count}
}

// Open attaches to an existing tree stored in file, trusting the
// caller-supplied metadata (from a prior Meta call), and rebuilds the leaf
// directory from the file's images.
func Open(file *storage.File, keyCol int, m Meta) (*Tree, error) {
	if m.Height < 1 || m.Count < 0 {
		return nil, fmt.Errorf("btree: invalid metadata %+v", m)
	}
	if err := file.View(m.Root, func([]byte) error { return nil }); err != nil {
		return nil, fmt.Errorf("btree: root page missing: %w", err)
	}
	return &Tree{file: file, dir: colpage.NewDirectory(leafPages, file), keyCol: keyCol, root: m.Root, height: m.Height, count: m.Count}, nil
}

// New creates an empty tree whose leaves are clustered on keyCol.
func New(pool *storage.Pool, file *storage.File, keyCol int) (*Tree, error) {
	t := &Tree{file: file, dir: colpage.NewDirectory(leafPages, file), keyCol: keyCol, height: 1}
	fr, err := pool.Alloc(file)
	if err != nil {
		return nil, err
	}
	t.root = fr.PageNum()
	t.encodeLeaf(fr, &leafNode{})
	fr.MarkDirty()
	return t, pool.Release(fr)
}

// Height returns the number of levels in the tree including the leaf
// level. The paper's Hvi ("height not including the data pages") is
// Height()−1.
func (t *Tree) Height() int { return t.height }

// Len returns the number of tuples stored.
func (t *Tree) Len() int { return t.count }

// LeafPages returns the number of leaf pages (the paper's view size in
// blocks), the leaf directory's count; it reads no page and charges
// nothing.
func (t *Tree) LeafPages() int { return t.dir.Pages() }

// KeyCol returns the clustering column.
func (t *Tree) KeyCol() int { return t.keyCol }

// --- page codecs ---------------------------------------------------------

func encodeKey(dst []byte, k key) []byte {
	dst = tuple.AppendValue(dst, k.val)
	return binary.BigEndian.AppendUint64(dst, k.id)
}

func decodeKey(src []byte) (key, int, error) {
	v, n, err := tuple.DecodeValue(src)
	if err != nil {
		return key{}, 0, err
	}
	if len(src) < n+8 {
		return key{}, 0, fmt.Errorf("btree: truncated key id")
	}
	return key{val: v, id: binary.BigEndian.Uint64(src[n:])}, n + 8, nil
}

func keySize(k key) int { return tuple.ValueSize(k.val) + 8 }

// encodeLeaf writes the leaf over the frame's bytes and records its link
// and zone maps in the directory. The caller has checked that it fits
// (leafNode.Size).
func (t *Tree) encodeLeaf(fr *storage.Frame, n *leafNode) {
	t.dir.Encode(fr.PageNum(), fr.Data, n)
}

// internal layout: [1 type][2 count=children][4 child0][key1][4 child1]...
const internalHeader = 3

func encodeInternal(page []byte, n *internalNode) {
	page[0] = pageInternal
	binary.BigEndian.PutUint16(page[1:], uint16(len(n.children)))
	off := internalHeader
	binary.BigEndian.PutUint32(page[off:], uint32(n.children[0]))
	off += 4
	for i, sep := range n.seps {
		b := encodeKey(page[off:off], sep)
		off += len(b)
		binary.BigEndian.PutUint32(page[off:], uint32(n.children[i+1]))
		off += 4
	}
	for i := off; i < len(page); i++ {
		page[i] = 0
	}
}

// internalSize is the encoded size of an internal page; one of more
// children than its 16-bit count holds fits no page.
func internalSize(n *internalNode) int {
	if len(n.children) > math.MaxUint16 {
		return math.MaxInt
	}
	sz := internalHeader + 4
	for _, sep := range n.seps {
		sz += keySize(sep) + 4
	}
	return sz
}

// internalChildren checks an internal page's header and returns its
// child count. Pages reach the engine from snapshot files, i.e. from
// outside, so the type byte and every read are checked.
func internalChildren(page []byte) (int, error) {
	if len(page) < internalHeader {
		return 0, fmt.Errorf("btree: internal page of %d bytes", len(page))
	}
	if page[0] != pageInternal {
		return 0, fmt.Errorf("btree: page type %d is not an internal page", page[0])
	}
	cnt := int(binary.BigEndian.Uint16(page[1:]))
	if cnt < 1 {
		return 0, fmt.Errorf("btree: internal page with %d children", cnt)
	}
	return cnt, nil
}

// decodeInternal decodes an internal page, checking every read. A split
// edits the node it returns; a descent reads the one Pool.Derive keeps
// beside the page's image (deriveNode).
func decodeInternal(page []byte) (*internalNode, error) {
	n := &internalNode{}
	if err := n.decode(page); err != nil {
		return nil, err
	}
	return n, nil
}

// decode decodes an internal page into n, reusing its slices.
func (n *internalNode) decode(page []byte) error {
	cnt, err := internalChildren(page)
	if err != nil {
		return err
	}
	n.children, n.seps = slices.Grow(n.children[:0], cnt), slices.Grow(n.seps[:0], cnt-1)
	off := internalHeader
	for i := 0; i < cnt; i++ {
		if i > 0 {
			k, used, err := decodeKey(page[off:])
			if err != nil {
				return fmt.Errorf("btree: internal sep %d: %w", i, err)
			}
			off += used
			n.seps = append(n.seps, k)
		}
		if len(page)-off < 4 {
			return fmt.Errorf("btree: internal page truncated at child %d", i)
		}
		n.children = append(n.children, storage.PageNum(binary.BigEndian.Uint32(page[off:])))
		off += 4
	}
	return nil
}

// equal reports whether n and o route every key alike: the same children
// behind separators that compare equal.
func (n *internalNode) equal(o *internalNode) bool {
	return slices.Equal(n.children, o.children) &&
		slices.EqualFunc(n.seps, o.seps, func(a, b key) bool { return a.compare(b) == 0 })
}

// fence is the key range [lo, hi) a leaf covers, read off the separators
// on either side of it on the way down: every key inside it is routed to
// that leaf. A missing bound is −∞ (lo) or +∞ (hi).
type fence struct {
	lo, hi       key
	hasLo, hasHi bool
}

// holds reports whether k lies inside the fence.
func (f *fence) holds(k key) bool {
	return (!f.hasLo || !k.less(f.lo)) && (!f.hasHi || k.less(f.hi))
}

// --- descent -------------------------------------------------------------

// findLeaf descends from the root to the leaf covering k — a nil k is
// −∞, the leftmost leaf — and returns its page number (metered: one
// read per level unless cached).
func (t *Tree) findLeaf(p *storage.Pool, k *key) (storage.PageNum, error) {
	return t.descend(p, k, nil)
}

// descend is findLeaf. Each internal page is decoded and checked once per
// image: the node is kept beside the page's bytes (storage.Pool.Derive)
// and every later descent binary-searches it, so once the nodes are kept a
// descent allocates nothing. With o, an apply visit's leaf, it notes there
// the internal pages it passes, root first, and the leaf's fence.
func (t *Tree) descend(p *storage.Pool, k *key, o *openLeaf) (storage.PageNum, error) {
	if o != nil {
		o.path, o.fence = o.path[:0], fence{}
	}
	pn := t.root
	for {
		v, err := p.Derive(t.file, pn, deriveNode)
		if err != nil {
			return 0, err
		}
		n, _ := v.(*internalNode)
		if n == nil {
			return pn, nil
		}
		i := 0 // a nil k goes to the first child
		if k != nil {
			i = n.childFor(*k)
		}
		if o != nil {
			o.path = append(o.path, pn)
			// Intersect the fence with [seps[i-1], seps[i]).
			f := &o.fence
			if i > 0 && (!f.hasLo || f.lo.less(n.seps[i-1])) {
				f.lo, f.hasLo = n.seps[i-1], true
			}
			if i < len(n.seps) && (!f.hasHi || n.seps[i].less(f.hi)) {
				f.hi, f.hasHi = n.seps[i], true
			}
		}
		pn = n.children[i]
	}
}

// deriveNode is descend's storage.Pool.Derive function: the node of an
// internal page, kept, or none for a leaf. The page type is read first: a
// leaf derives nothing here, whatever a scan keeps beside it (its lanes,
// colpage.Scan), and a value on an internal page that is not a node is
// not this deriver's to use. A page that fails to decode fails the
// descent and keeps nothing, so it fails every descent after.
func deriveNode(page []byte, d any) (any, error) {
	if page[0] == byte(leafPages) {
		return nil, nil
	}
	if n, ok := d.(*internalNode); ok {
		if checkDerived() {
			return n, checkNode(n, page)
		}
		return n, nil
	}
	n, err := decodeInternal(page)
	if err != nil {
		return nil, err
	}
	return n, nil
}

// checkDerived turns on, in every test binary that is not running
// benchmarks, the check that each kept node a descent is handed equals a
// fresh decode of the bytes it stands for — that whatever changed those
// bytes dropped it. A benchmark leaves it off, so its profile shows the
// descent a server runs.
var checkDerived = sync.OnceValue(func() bool {
	if !testing.Testing() {
		return false
	}
	bench := flag.Lookup("test.bench")
	return bench == nil || bench.Value.String() == ""
})

// fresh is checkNode's node, its slices reused so that the check
// allocates nothing on Int and Float keys.
var fresh struct {
	sync.Mutex
	n internalNode
}

// checkNode decodes page afresh and compares n, the node kept for it.
func checkNode(n *internalNode, page []byte) error {
	fresh.Lock()
	defer fresh.Unlock()
	if err := fresh.n.decode(page); err != nil {
		return fmt.Errorf("btree: a kept node stands for an internal page that does not decode: %w", err)
	}
	if !n.equal(&fresh.n) {
		return fmt.Errorf("btree: kept node %v disagrees with its image's %v", *n, fresh.n)
	}
	return nil
}

// decodeLeaf decodes a leaf page into leaf, for an edit.
func (t *Tree) decodeLeaf(page []byte, leaf *leafNode) error {
	if err := leafPages.DecodePage(page, leaf); err != nil {
		return err
	}
	return t.hasKey(&leaf.Lanes)
}

// hasKey checks that a leaf's rows, which reach the engine from snapshot
// files, have the key column.
func (t *Tree) hasKey(leaf *colpage.Lanes) error {
	if len(leaf.IDs) > 0 && t.keyCol >= len(leaf.Cols) {
		return fmt.Errorf("btree: leaf rows of %d columns have no key column %d", len(leaf.Cols), t.keyCol)
	}
	return nil
}

// leafFind returns the index of the first row of the leaf whose key is
// ≥ k, and whether that row's key is k: a binary search over the key and
// id lanes.
func leafFind(leaf *colpage.Lanes, k key, keyCol int) (int, bool) {
	at := func(i int) int {
		if c := leaf.Cols[keyCol].Compare(i, k.val); c != 0 {
			return c
		}
		return cmp.Compare(leaf.IDs[i], k.id)
	}
	i := sort.Search(len(leaf.IDs), func(i int) bool { return at(i) >= 0 })
	return i, i < len(leaf.IDs) && at(i) == 0
}

// --- apply ---------------------------------------------------------------

// ErrAbsent reports a delete whose row the tree does not hold.
var ErrAbsent = errors.New("btree: delete of an absent row")

// openLeaf is a leaf an apply visit holds: its page, pinned, and its rows
// decoded; the internal pages above it, root first, and its fence; and
// what the rows applied to it owe: the rows they added (less those they
// cut), and whether any edited it.
type openLeaf struct {
	pn     storage.PageNum
	fr     *storage.Frame
	leaf   leafNode
	path   []storage.PageNum
	fence  fence
	added  int
	edited bool
}

// slot returns the i-th open-leaf slot, its buffers kept visit to visit.
func (t *Tree) slot(i int) *openLeaf {
	for len(t.open) <= i {
		t.open = append(t.open, openLeaf{})
	}
	return &t.open[i]
}

// ApplyRun applies a signed batch of rows in stream order: row i is
// deleted when signs[i] is negative and inserted otherwise (nil signs:
// every row is inserted). It leaves every page and the leaf directory
// exactly as applying the rows one at a time would, and returns how many
// rows it applied. Each leaf a visit edits is released dirty once, so
// within one write scope (storage.Pool.FlushAll) the batch and its rows
// one at a time are charged alike, one write per page dirtied, in a pool
// that does not evict inside the scope.
//
// With countCol < 0 the rows are plain: an insert splices its row in (a
// duplicate (value, id) is an error), a delete cuts the row of its
// (value, id), the rest of its columns unread (an absent one is
// ErrAbsent), and ApplyRun applies every row or stops at the error. An
// update is the pair of its old row's delete and its new row's insert.
// A delete may leave its leaf underfull (leaves are never merged): the
// leaf chain and the separators stay valid, which is all the scans and
// searches need, and the paper's workloads pair their deletes with
// inserts, so relation sizes stay stationary.
// With a non-nil cut, every row a delete cuts out of a leaf is appended
// to *cut, whole, in stream order.
//
// With countCol ≥ 0 the rows are counted: their Int column countCol
// counts the copies a row stands for. A row is matched with the first
// stored row of its key value equal to it on every other column, as a
// point lookup (ScanBatches over the key value) would find it. An insert
// raises the match's count by its own, or splices the row in when there
// is none; a delete lowers the match's count, or cuts the row when the
// count would reach zero. ApplyRun stops at the first row it cannot apply
// inside a leaf visit: that row is the caller's, to apply with the
// lookup and then a write of its own — and a delete with no match is the
// caller's underflow to report.
//
// Each visit descends to a leaf once (for a counted row, to where its
// lookup goes: the route of its key value with id 0), decodes the leaf
// once, applies every following row whose key lies inside the leaf's
// fence, and encodes it once. A row the visit's leaves do not cover opens
// another leaf while the batch's rows × (height + 1) fit in the pool;
// otherwise, the visit ends there and the next one starts with the row.
// Rows are applied in stream order either way; only the encodes and the
// releases wait for the visit's end (DESIGN §6). A row leaves the
// visit — it starts the next one, or for counted rows it is the caller's
// — when it would split its leaf, its lookup would read on past the leaf
// (no row of it has a larger key value, and it has a right sibling), the
// fence does not hold both its key and its key value with id 0, it would
// fail, or the pool is smaller than the tree is high (every visit then
// takes one row). On an error the rows before the failing one stay
// applied.
func (t *Tree) ApplyRun(p *storage.Pool, rows []tuple.Tuple, signs []int8, countCol int, cut *[]tuple.Tuple) (int, error) {
	done := 0
	for done < len(rows) {
		sg := signs
		if sg != nil {
			sg = sg[done:]
		}
		n, err := t.visit(p, rows[done:], sg, countCol, cut)
		if done += n; err != nil || (n == 0 && countCol >= 0) {
			return done, err
		}
	}
	return done, nil
}

// visit applies a leading stretch of rows and returns how many it
// consumed: the rows it applied, plus none for a row a split left
// unplaced (the next visit starts with it). With a countCol ≥ 0 it
// consumes none only for a row that leaves the visit.
func (t *Tree) visit(p *storage.Pool, rows []tuple.Tuple, signs []int8, countCol int, cut *[]tuple.Tuple) (int, error) {
	counted := countCol >= 0
	frames := p.Capacity()
	alone := frames < t.height
	if counted && alone {
		return 0, nil
	}
	// More than one leaf stays open only while every page the rows could
	// touch fits in the pool at once.
	group := len(rows)*(t.height+1) <= frames
	open, n := 0, 0
	var err error
	for ; n < len(rows) && !(n > 0 && alone); n++ {
		tp := rows[n]
		plus := signs == nil || signs[n] >= 0
		if plus && !colpage.FitsAlone(tp, p.PageSize()) {
			if n == 0 && !counted {
				err = fmt.Errorf("btree: tuple of %d bytes exceeds page capacity %d", tp.EncodedSize(), p.PageSize())
			}
			break
		}
		k := keyOf(tp, t.keyCol)
		probe := k
		if counted {
			probe.id = 0 // where the lookup's descent goes
		}
		o := 0
		for o < open && !t.open[o].fence.holds(probe) {
			o++
		}
		if o == open {
			if n > 0 && !group {
				break // the next visit takes it
			}
			if err = t.openLeaf(p, t.slot(o), probe); err != nil {
				break
			}
			open++
		}
		ol := &t.open[o]
		added, why, idx := t.edit(ol, tp, k, plus, countCol, cut)
		if why == applies {
			ol.edited = true
			ol.added += added
			continue
		}
		if n > 0 || counted {
			break // the next visit, or the caller, takes it
		}
		switch why {
		case absent:
			err = fmt.Errorf("%w (%s, id %d)", ErrAbsent, k.val, k.id)
		case duplicate:
			err = fmt.Errorf("btree: duplicate key (%s, id %d)", k.val, k.id)
		case overflows:
			ol.leaf.InsertRow(idx, tp)
			placed, err := t.splitLeaf(p, ol, idx)
			if placed {
				return 1, err
			}
			return 0, err
		}
		break
	}
	if cerr := t.close(p, open); err == nil {
		err = cerr
	}
	return n, err
}

// openLeaf descends to the leaf covering k, pins it and decodes it into o.
func (t *Tree) openLeaf(p *storage.Pool, o *openLeaf, k key) error {
	pn, err := t.descend(p, &k, o)
	if err != nil {
		return err
	}
	fr, err := p.Get(t.file, pn)
	if err != nil {
		return err
	}
	if err := t.decodeLeaf(fr.Data, &o.leaf); err != nil {
		p.Release(fr)
		return err
	}
	o.pn, o.fr, o.added, o.edited = pn, fr, 0, false
	return nil
}

// outcome is what edit made of a row.
type outcome int

const (
	applies   outcome = iota
	leaves            // the row is for another visit or the caller
	absent            // a plain delete of a row the leaf does not hold
	duplicate         // a plain insert of a (value, id) the leaf holds
	overflows         // an insert that would split the leaf
)

// edit applies row tp, of key k, to open leaf o's decoded rows and
// returns the rows it adds (−1: cuts, a row appended to a non-nil *cut);
// or why it cannot, leaving the rows as they were (an overflowing
// insert's place in idx).
func (t *Tree) edit(o *openLeaf, tp tuple.Tuple, k key, plus bool, countCol int, cut *[]tuple.Tuple) (added int, why outcome, idx int) {
	leaf := &o.leaf
	if countCol >= 0 {
		i, found, ok := findCounted(leaf, tp, t.keyCol, countCol)
		if !ok || !o.fence.holds(k) || readsPast(leaf, k.val, t.keyCol) {
			return 0, leaves, 0
		}
		if found {
			cnt, d := &leaf.Cols[countCol].Ints[i], tp.Vals[countCol].Int()
			switch {
			case plus:
				*cnt += d
			case *cnt > d:
				*cnt -= d
			default:
				cutRow(leaf, i, cut)
				return -1, applies, 0 // the Delete that cuts it
			}
			return 0, applies, 0
		}
		if !plus {
			return 0, leaves, 0 // an underflow, the caller's to report
		}
	}
	idx, hit := leafFind(&leaf.Lanes, k, t.keyCol)
	switch {
	case !plus && !hit:
		return 0, absent, 0
	case !plus:
		cutRow(leaf, idx, cut)
		return -1, applies, 0
	case hit:
		return 0, duplicate, 0
	}
	leaf.InsertRow(idx, tp)
	if leaf.Size() <= len(o.fr.Data) {
		return 1, applies, 0
	}
	leaf.DeleteRow(idx)
	return 0, overflows, idx
}

// cutRow cuts row i out of leaf, appending it to a non-nil *cut first.
func cutRow(leaf *leafNode, i int, cut *[]tuple.Tuple) {
	if cut != nil {
		*cut = append(*cut, leaf.Row(i))
	}
	leaf.DeleteRow(i)
}

// close releases the visit's open leaves, in the order they were opened:
// each one its rows edited is encoded over its frame and released dirty,
// once; one no row edited is released clean. Every leaf is released,
// whatever fails.
func (t *Tree) close(p *storage.Pool, open int) error {
	var first error
	for i := range open {
		o := &t.open[i]
		if o.edited {
			t.encodeLeaf(o.fr, &o.leaf)
			t.count += o.added
			o.fr.MarkDirty()
		}
		if err := p.Release(o.fr); first == nil {
			first = err
		}
		o.fr = nil
	}
	return first
}

// readsPast reports whether a point lookup of key value v that reads
// leaf would read on to the next leaf: no row of the leaf has a larger
// key value, and the leaf has a right sibling.
func readsPast(leaf *leafNode, v tuple.Value, keyCol int) bool {
	last := len(leaf.IDs) - 1
	return leaf.HasNext && (last < 0 || leaf.Cols[keyCol].Compare(last, v) <= 0)
}

// findCounted returns the first row of leaf in key order that has tp's
// key value and equals tp on every column but countCol. ok is false when
// the leaf cannot answer: its rows, which reach the engine from snapshot
// files, are not of tp's arity or their count lane holds more than Ints,
// so a count could not be raised in place. Raising one leaves the leaf's
// Size as it was: an Int lane costs the same bytes a row whatever it
// holds.
func findCounted(leaf *leafNode, tp tuple.Tuple, keyCol, countCol int) (i int, found, ok bool) {
	if len(leaf.IDs) == 0 {
		return 0, false, true
	}
	if len(leaf.Cols) != len(tp.Vals) {
		return 0, false, false
	}
	if typ, uniform := leaf.Cols[countCol].Uniform(); !uniform || typ != tuple.Int {
		return 0, false, false
	}
	v := tp.Vals[keyCol]
	i, _ = leafFind(&leaf.Lanes, key{val: v}, keyCol)
rows:
	for ; i < len(leaf.IDs) && leaf.Cols[keyCol].Compare(i, v) == 0; i++ {
		for c := range leaf.Cols {
			if c != countCol && leaf.Cols[c].Compare(i, tp.Vals[c]) != 0 {
				continue rows
			}
		}
		return i, true, true
	}
	return 0, false, true
}

// splitLeaf splits open leaf o, one row too many for its pinned frame,
// after row idx was spliced in: in the middle, or at
// the cut nearest it where both halves fit. When no cut does — the row
// fits beside neither of its neighbours — the leaf splits at the row's
// place without it, and the row is left unplaced: inserted again, it
// lands last on the left half, which then splits it off. The separator
// goes up the path descend noted, splitting internal pages in turn
// and growing a new root when the old one splits.
func (t *Tree) splitLeaf(p *storage.Pool, o *openLeaf, idx int) (placed bool, err error) {
	fr, leaf := o.fr, &o.leaf
	o.fr = nil
	mid, placed := splitPoint(&leaf.Lanes, len(fr.Data))
	if !placed {
		leaf.DeleteRow(idx)
		mid = idx
	}
	sib := &leafNode{Next: leaf.Next, HasNext: leaf.HasNext, Lanes: leaf.Cut(mid)}
	rfr, err := p.Alloc(t.file)
	if err != nil {
		p.Release(fr)
		return false, err
	}
	leaf.Next, leaf.HasNext = rfr.PageNum(), true
	t.encodeLeaf(rfr, sib)
	rfr.MarkDirty()
	t.encodeLeaf(fr, leaf)
	fr.MarkDirty()
	sep, right := key{val: sib.Cols[t.keyCol].Value(0), id: sib.IDs[0]}, leaf.Next
	if err := p.Release(rfr); err != nil {
		p.Release(fr)
		return false, err
	}
	if err := p.Release(fr); err != nil {
		return false, err
	}
	if placed {
		t.count++
	}
	split := true
	for i := len(o.path) - 1; i >= 0 && split; i-- {
		if sep, right, split, err = t.insertSep(p, o.path[i], sep, right); err != nil {
			return placed, err
		}
	}
	if !split {
		return placed, nil
	}
	// Grow a new root.
	rootFr, err := p.Alloc(t.file)
	if err != nil {
		return placed, err
	}
	root := &internalNode{children: []storage.PageNum{t.root, right}, seps: []key{sep}}
	encodeInternal(rootFr.Data, root)
	rootFr.MarkDirty()
	rootFr.Keep(root)
	rootPN := rootFr.PageNum() // read before the Release: the frame may be recycled
	if err := p.Release(rootFr); err != nil {
		return placed, err
	}
	t.root = rootPN
	t.height++
	return placed, nil
}

// splitPoint returns where to cut rows, too many for one page of
// pageSize bytes, so that both halves fit: in the middle if it can, else
// at the cut nearest it; false when no cut fits both.
func splitPoint(rows *colpage.Lanes, pageSize int) (int, bool) {
	n := len(rows.IDs)
	mid := n / 2
	for d := 0; d < n; d++ {
		for _, m := range [2]int{mid - d, mid + d} {
			if m > 0 && m < n && rows.PageSize(0, m) <= pageSize && rows.PageSize(m, n) <= pageSize {
				return m, true
			}
		}
	}
	return 0, false
}

// insertSep inserts (sep, newChild), a child's split, into internal page
// pn, splitting pn in turn when it overflows. Each node it encodes is
// kept on its frame (storage.Frame.Keep), so the next descent through
// the page is handed the node instead of decoding the bytes again.
func (t *Tree) insertSep(p *storage.Pool, pn storage.PageNum, sep key, newChild storage.PageNum) (key, storage.PageNum, bool, error) {
	fr, err := p.Get(t.file, pn)
	if err != nil {
		return key{}, 0, false, err
	}
	in, err := decodeInternal(fr.Data)
	if err != nil {
		p.Release(fr)
		return key{}, 0, false, err
	}
	childIdx := in.childFor(sep)
	in.seps = slices.Insert(in.seps, childIdx, sep)
	in.children = slices.Insert(in.children, childIdx+1, newChild)

	if internalSize(in) <= len(fr.Data) {
		encodeInternal(fr.Data, in)
		fr.MarkDirty()
		fr.Keep(in)
		return key{}, 0, false, p.Release(fr)
	}
	// Split internal node: the separator cutSep picks moves up.
	cut := in.cutSep(childIdx, len(fr.Data))
	upKey := in.seps[cut]
	right := &internalNode{
		children: append([]storage.PageNum(nil), in.children[cut+1:]...),
		seps:     append([]key(nil), in.seps[cut+1:]...),
	}
	in.children = in.children[:cut+1]
	in.seps = in.seps[:cut]
	rfr, err := p.Alloc(t.file)
	if err != nil {
		p.Release(fr)
		return key{}, 0, false, err
	}
	encodeInternal(rfr.Data, right)
	rfr.MarkDirty()
	rfr.Keep(right)
	encodeInternal(fr.Data, in)
	fr.MarkDirty()
	fr.Keep(in)
	rightPN := rfr.PageNum() // read before the Release: the frame may be recycled
	if err := p.Release(rfr); err != nil {
		p.Release(fr)
		return key{}, 0, false, err
	}
	return upKey, rightPN, true, p.Release(fr)
}

// cutSep returns the separator of n, a node too large for one page of
// pageSize bytes, to move up in a split, leaving seps[:cut] on the left
// and seps[cut+1:] on the right: the one nearest the middle where both
// halves fit, the rule splitPoint applies to leaves. The separator just
// inserted, seps[ins], is always such a cut — each half is then part of
// the node before the insert, which fitted — so one is always found.
func (n *internalNode) cutSep(ins, pageSize int) int {
	fits := func(children []storage.PageNum, seps []key) bool {
		return internalSize(&internalNode{children: children, seps: seps}) <= pageSize
	}
	mid := len(n.seps) / 2
	for d := 0; d <= mid; d++ {
		for _, m := range [2]int{mid - d, mid + d} {
			if m < len(n.seps) && fits(n.children[:m+1], n.seps[:m]) && fits(n.children[m+1:], n.seps[m+1:]) {
				return m
			}
		}
	}
	return ins
}

// childFor returns the index of the child of a decoded internal node
// covering k: the last child whose separator is ≤ k.
func (n *internalNode) childFor(k key) int {
	lo, hi := 0, len(n.seps) // binary search for first sep > k
	for lo < hi {
		mid := (lo + hi) / 2
		if k.less(n.seps[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Get returns the tuple with the exact (value, id) key, if present: a
// binary search of the leaf a descent finds, read as a chain scan reads
// it (colpage.Directory.ReadRows) — on its kept lanes while the file is
// clean, so a leaf probed again and again is decoded once per image.
// Without build a leaf holding no kept lanes is decoded for this Get
// alone: a caller whose next write rewrites the leaf (a hypothetical
// relation's delete, which the next fold applies) passes false, so as to
// build no lanes that the rewrite drops unread.
func (t *Tree) Get(p *storage.Pool, val tuple.Value, id uint64, build bool) (tuple.Tuple, bool, error) {
	k := key{val: val, id: id}
	leafPN, err := t.findLeaf(p, &k)
	if err != nil {
		return tuple.Tuple{}, false, err
	}
	var found tuple.Tuple
	ok := false
	err = t.dir.ReadRows(p, leafPN, build, func(leaf *colpage.Lanes) error {
		if err := t.hasKey(leaf); err != nil {
			return err
		}
		if idx, hit := leafFind(leaf, k, t.keyCol); hit {
			found, ok = leaf.Row(idx), true
		}
		return nil
	})
	return found, ok, err
}

// --- scans ---------------------------------------------------------------

// ScanBatches returns a columnar scan, in key order, of the tuples whose
// key-column value lies in rg (nil means all): the leaf chain read from
// the leaf a descent finds for the range's Lo (colpage.Scan). Prune
// atoms apply only to full scans.
func (t *Tree) ScanBatches(p *storage.Pool, rg *pred.Range, prune []colpage.Atom) (*colpage.Scan, error) {
	var start *key
	if rg != nil && rg.Lo != nil {
		start = &key{val: *rg.Lo} // id 0: before all ids of that value
		if !rg.LoInc {
			start.id = ^uint64(0)
		}
	}
	leaf, err := t.findLeaf(p, start)
	if err != nil {
		return nil, err
	}
	return t.dir.Scan(p, leaf, t.keyCol, rg, prune)
}

// ScanAll returns a full scan of the tree, ScanBatches over no range.
func (t *Tree) ScanAll(p *storage.Pool, prune []colpage.Atom) (*colpage.Scan, error) {
	return t.ScanBatches(p, nil, prune)
}
