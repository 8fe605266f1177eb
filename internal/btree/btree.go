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
	"fmt"
	"math"
	"slices"
	"sort"

	"viewmat/internal/colpage"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

const pageInternal = 2

// leafPages is the type byte of a leaf, which is a colpage data page:
// the codec, the page→lanes decode and the leaf directory live there,
// shared with hashidx's chain pages.
const leafPages colpage.PageType = 4

// leafNode is the decoded form of a leaf page.
type leafNode = colpage.DataPage

// Tree is a clustered B+-tree. Not safe for concurrent use; the engine
// serializes operations (the paper's model is single-user).
type Tree struct {
	pool   *storage.Pool
	file   *storage.File
	dir    *colpage.Directory // every leaf's link and zone maps
	keyCol int
	root   storage.PageNum
	height int // levels including the leaf level
	count  int // live tuples
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
func Open(pool *storage.Pool, file *storage.File, keyCol int, m Meta) (*Tree, error) {
	if m.Height < 1 || m.Count < 0 {
		return nil, fmt.Errorf("btree: invalid metadata %+v", m)
	}
	if _, err := file.Peek(m.Root); err != nil {
		return nil, fmt.Errorf("btree: root page missing: %w", err)
	}
	return &Tree{pool: pool, file: file, dir: colpage.NewDirectory(leafPages, file), keyCol: keyCol, root: m.Root, height: m.Height, count: m.Count}, nil
}

// New creates an empty tree whose leaves are clustered on keyCol.
func New(pool *storage.Pool, file *storage.File, keyCol int) (*Tree, error) {
	t := &Tree{pool: pool, file: file, dir: colpage.NewDirectory(leafPages, file), keyCol: keyCol, height: 1}
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
// blocks) by walking the leaf chain via unmetered views; it is a
// statistics accessor, not a query, and charges nothing.
func (t *Tree) LeafPages() int {
	pn, err := t.leftmostLeafUncharged()
	if err != nil {
		return 0
	}
	for n := 1; ; n++ {
		var next storage.PageNum
		hasNext := false
		err := t.file.View(pn, func(page []byte) error {
			next, hasNext = colpage.PageLink(page)
			return nil
		})
		if err != nil || !hasNext {
			return n
		}
		pn = next
	}
}

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

// decodeInternal decodes an internal page, for a split to edit it.
// Descents route on the encoded page instead (route).
func decodeInternal(page []byte) (*internalNode, error) {
	cnt, err := internalChildren(page)
	if err != nil {
		return nil, err
	}
	n := &internalNode{children: make([]storage.PageNum, 0, cnt), seps: make([]key, 0, cnt-1)}
	off := internalHeader
	for i := 0; i < cnt; i++ {
		if i > 0 {
			k, used, err := decodeKey(page[off:])
			if err != nil {
				return nil, fmt.Errorf("btree: internal sep %d: %w", i, err)
			}
			off += used
			n.seps = append(n.seps, k)
		}
		if len(page)-off < 4 {
			return nil, fmt.Errorf("btree: internal page truncated at child %d", i)
		}
		n.children = append(n.children, storage.PageNum(binary.BigEndian.Uint32(page[off:])))
		off += 4
	}
	return n, nil
}

// sepAtMost reports whether the separator key encoded at the front of src
// is ≤ k — never, for a nil k (−∞) — and returns the bytes it spans,
// checked as decodeKey checks them. Nothing is decoded: the value is
// compared where it lies.
func sepAtMost(src []byte, k *key) (bool, int, error) {
	var v tuple.Value
	if k != nil {
		v = k.val
	}
	c, n, err := tuple.CompareEncoded(src, v)
	if err != nil {
		return false, 0, err
	}
	if len(src) < n+8 {
		return false, 0, fmt.Errorf("btree: truncated key id")
	}
	if k == nil {
		return false, n + 8, nil
	}
	if c == 0 {
		c = cmp.Compare(binary.BigEndian.Uint64(src[n:]), k.id)
	}
	return c <= 0, n + 8, nil
}

// route walks an encoded internal page in place and returns the child
// covering k: the last child whose separator is ≤ k, the first for a nil
// k. When alt is given, together reports whether alt is covered by that
// child too. It allocates nothing, and it walks the whole page whatever
// the probe, making every check decodeInternal makes, so a damaged page
// fails every descent through it.
func route(page []byte, k, alt *key) (child storage.PageNum, together bool, err error) {
	cnt, err := internalChildren(page)
	if err != nil {
		return 0, false, err
	}
	// kOn (altOn): the probe is ≥ every separator walked so far, so the
	// child after the last of them covers it so far.
	kOn, altOn := true, alt != nil
	together = altOn
	off := internalHeader
	for i := 0; i < cnt; i++ {
		if i > 0 {
			le, n, err := sepAtMost(page[off:], k)
			if err != nil {
				return 0, false, fmt.Errorf("btree: internal sep %d: %w", i, err)
			}
			if altOn {
				altOn, _, _ = sepAtMost(page[off:], alt) // the same bytes, checked above
			}
			if kOn = kOn && le; kOn != altOn {
				together = false
			}
			off += n
		}
		if len(page)-off < 4 {
			return 0, false, fmt.Errorf("btree: internal page truncated at child %d", i)
		}
		if kOn {
			child = storage.PageNum(binary.BigEndian.Uint32(page[off:]))
		}
		off += 4
	}
	return child, together, nil
}

// leftmostLeafUncharged descends to the leftmost leaf via unmetered
// views (statistics walks only).
func (t *Tree) leftmostLeafUncharged() (storage.PageNum, error) {
	pn := t.root
	for {
		leaf := false
		var child storage.PageNum
		err := t.file.View(pn, func(page []byte) error {
			if leaf = page[0] == byte(leafPages); leaf {
				return nil
			}
			var err error
			child, _, err = route(page, nil, nil)
			return err
		})
		if err != nil {
			return 0, err
		}
		if leaf {
			return pn, nil
		}
		pn = child
	}
}

// --- descent -------------------------------------------------------------

// findLeaf descends from the root to the leaf covering k — a nil k is
// −∞, the leftmost leaf — and returns its page number (metered: one
// read per level unless cached).
func (t *Tree) findLeaf(k *key) (storage.PageNum, error) {
	pn, _, err := t.descend(k, nil)
	return pn, err
}

// descend is findLeaf routing a second key, alt, alongside k: together
// reports whether the leaf covering k covers alt as well. Each internal
// page is routed on in place (route), so a descent allocates nothing.
func (t *Tree) descend(k, alt *key) (leafPN storage.PageNum, together bool, err error) {
	pn := t.root
	together = alt != nil
	for {
		leaf := false
		var child storage.PageNum
		err := t.pool.Read(t.file, pn, func(page []byte) error {
			if leaf = page[0] == byte(leafPages); leaf {
				return nil
			}
			var same bool
			var err error
			child, same, err = route(page, k, alt)
			together = together && same
			return err
		})
		if err != nil {
			return 0, false, err
		}
		if leaf {
			return pn, together, nil
		}
		pn = child
	}
}

// leafFind returns the index of the first tuple of the leaf whose key is
// ≥ k, and whether that tuple's key is k.
func leafFind(leaf *leafNode, k key, keyCol int) (int, bool) {
	idx, found := slices.BinarySearchFunc(leaf.Tuples, k, func(tp tuple.Tuple, k key) int {
		return keyOf(tp, keyCol).compare(k)
	})
	return idx, found
}

// --- insert --------------------------------------------------------------

// Insert adds a tuple. Duplicate (value, id) pairs are rejected: ids
// are unique engine-wide, so a collision indicates a bug upstream.
func (t *Tree) Insert(tp tuple.Tuple) error {
	if !colpage.FitsAlone(tp, t.pool.PageSize()) {
		return fmt.Errorf("btree: tuple of %d bytes exceeds page capacity %d", tp.EncodedSize(), t.pool.PageSize())
	}
	k := keyOf(tp, t.keyCol)
	for placed := false; !placed; {
		sep, newChild, split, ok, err := t.insertAt(t.root, tp, k)
		if err != nil {
			return err
		}
		placed = ok
		if split {
			// Grow a new root.
			fr, err := t.pool.Alloc(t.file)
			if err != nil {
				return err
			}
			root := &internalNode{children: []storage.PageNum{t.root, newChild}, seps: []key{sep}}
			encodeInternal(fr.Data, root)
			fr.MarkDirty()
			rootPN := fr.PageNum() // read before the Release: the frame may be recycled
			if err := t.pool.Release(fr); err != nil {
				return err
			}
			t.root = rootPN
			t.height++
		}
	}
	t.count++
	return nil
}

// insertAt inserts tp into the subtree rooted at pn and reports the
// separator and right sibling a split of pn leaves for its parent, and
// whether tp was placed: a leaf split that could not place it leaves the
// caller to insert it again (insertLeaf). The way down routes on each
// internal page in place; only a split decodes one (insertSep).
func (t *Tree) insertAt(pn storage.PageNum, tp tuple.Tuple, k key) (sep key, right storage.PageNum, split, placed bool, err error) {
	leaf := false
	var child storage.PageNum
	if err := t.pool.Read(t.file, pn, func(page []byte) error {
		if leaf = page[0] == byte(leafPages); leaf {
			return nil
		}
		var err error
		child, _, err = route(page, &k, nil)
		return err
	}); err != nil {
		return key{}, 0, false, false, err
	}
	if leaf {
		return t.insertLeaf(pn, tp, k)
	}
	if sep, right, split, placed, err = t.insertAt(child, tp, k); err != nil || !split {
		return key{}, 0, false, placed, err
	}
	sep, right, split, err = t.insertSep(pn, sep, right)
	return sep, right, split, placed, err
}

// insertLeaf inserts tp into leaf pn, splitting it when tp does not fit:
// in the middle, or at the cut nearest it where both halves fit. When no
// cut does — tp fits beside neither of its neighbours — the leaf splits
// at tp's place without it, and tp is left unplaced: inserted again, it
// lands last on the left half, which then splits it off.
func (t *Tree) insertLeaf(pn storage.PageNum, tp tuple.Tuple, k key) (sep key, right storage.PageNum, split, placed bool, err error) {
	fr, err := t.pool.Get(t.file, pn)
	if err != nil {
		return key{}, 0, false, false, err
	}
	leaf, err := leafPages.DecodePage(fr.Data)
	if err != nil {
		t.pool.Release(fr)
		return key{}, 0, false, false, err
	}
	idx, dup := leafFind(leaf, k, t.keyCol)
	if dup {
		t.pool.Release(fr)
		return key{}, 0, false, false, fmt.Errorf("btree: duplicate key (%s, id %d)", k.val, k.id)
	}
	leaf.Tuples = slices.Insert(leaf.Tuples, idx, tp)
	if leaf.Size() <= len(fr.Data) {
		t.encodeLeaf(fr, leaf)
		fr.MarkDirty()
		return key{}, 0, false, true, t.pool.Release(fr)
	}
	mid, placed := splitPoint(leaf.Tuples, len(fr.Data))
	if !placed {
		leaf.Tuples, mid = slices.Delete(leaf.Tuples, idx, idx+1), idx
	}
	sib := &leafNode{Next: leaf.Next, HasNext: leaf.HasNext, Tuples: append([]tuple.Tuple(nil), leaf.Tuples[mid:]...)}
	leaf.Tuples = leaf.Tuples[:mid]
	rfr, err := t.pool.Alloc(t.file)
	if err != nil {
		t.pool.Release(fr)
		return key{}, 0, false, false, err
	}
	leaf.Next, leaf.HasNext = rfr.PageNum(), true
	t.encodeLeaf(rfr, sib)
	rfr.MarkDirty()
	t.encodeLeaf(fr, leaf)
	fr.MarkDirty()
	sep = keyOf(sib.Tuples[0], t.keyCol)
	if err := t.pool.Release(rfr); err != nil {
		t.pool.Release(fr)
		return key{}, 0, false, false, err
	}
	return sep, leaf.Next, true, placed, t.pool.Release(fr)
}

// splitPoint returns where to cut tuples, too many for one page of
// pageSize bytes, so that both halves fit: in the middle if it can, else
// at the cut nearest it; false when no cut fits both.
func splitPoint(tuples []tuple.Tuple, pageSize int) (int, bool) {
	fits := func(ts []tuple.Tuple) bool { return (&leafNode{Tuples: ts}).Size() <= pageSize }
	mid := len(tuples) / 2
	for d := 0; d < len(tuples); d++ {
		for _, m := range [2]int{mid - d, mid + d} {
			if m > 0 && m < len(tuples) && fits(tuples[:m]) && fits(tuples[m:]) {
				return m, true
			}
		}
	}
	return 0, false
}

// insertSep inserts (sep, newChild), a child's split, into internal page
// pn, splitting pn in turn when it overflows.
func (t *Tree) insertSep(pn storage.PageNum, sep key, newChild storage.PageNum) (key, storage.PageNum, bool, error) {
	fr, err := t.pool.Get(t.file, pn)
	if err != nil {
		return key{}, 0, false, err
	}
	in, err := decodeInternal(fr.Data)
	if err != nil {
		t.pool.Release(fr)
		return key{}, 0, false, err
	}
	childIdx := in.childFor(sep)
	in.seps = slices.Insert(in.seps, childIdx, sep)
	in.children = slices.Insert(in.children, childIdx+1, newChild)

	if internalSize(in) <= len(fr.Data) {
		encodeInternal(fr.Data, in)
		fr.MarkDirty()
		return key{}, 0, false, t.pool.Release(fr)
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
	rfr, err := t.pool.Alloc(t.file)
	if err != nil {
		t.pool.Release(fr)
		return key{}, 0, false, err
	}
	encodeInternal(rfr.Data, right)
	rfr.MarkDirty()
	encodeInternal(fr.Data, in)
	fr.MarkDirty()
	rightPN := rfr.PageNum() // read before the Release: the frame may be recycled
	if err := t.pool.Release(rfr); err != nil {
		t.pool.Release(fr)
		return key{}, 0, false, err
	}
	return upKey, rightPN, true, t.pool.Release(fr)
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

// --- delete and update ---------------------------------------------------

// Delete removes the tuple with the given key value and id and returns
// it, reporting whether it was found: one descent, one leaf decode.
// Leaves are allowed to underflow (no merging): the linked leaf chain
// and separators stay valid, which is all the scan and search paths
// require. Space is reclaimed when a relation is rebuilt; the paper's
// workloads keep relation sizes stationary (paired inserts and deletes),
// so underflow stays bounded in practice.
func (t *Tree) Delete(val tuple.Value, id uint64) (tuple.Tuple, bool, error) {
	return t.replace(key{val: val, id: id}, nil)
}

// Update replaces the tuple with the given key value and id by tp and
// returns the tuple it replaced, reporting whether that was found. When
// tp belongs in the same leaf and fits there, the leaf is decoded and
// encoded once; otherwise the update is the Delete and the Insert it
// stands for. Either way it is charged what they would be charged.
func (t *Tree) Update(val tuple.Value, id uint64, tp tuple.Tuple) (tuple.Tuple, bool, error) {
	return t.replace(key{val: val, id: id}, &tp)
}

// replace is Delete when tp is nil and Update otherwise.
func (t *Tree) replace(k key, tp *tuple.Tuple) (tuple.Tuple, bool, error) {
	var nk *key
	if tp != nil {
		x := keyOf(*tp, t.keyCol)
		nk = &x
	}
	leafPN, together, err := t.descend(&k, nk)
	if err != nil {
		return tuple.Tuple{}, false, err
	}
	fr, err := t.pool.Get(t.file, leafPN)
	if err != nil {
		return tuple.Tuple{}, false, err
	}
	leaf, err := leafPages.DecodePage(fr.Data)
	if err != nil {
		t.pool.Release(fr)
		return tuple.Tuple{}, false, err
	}
	idx, found := leafFind(leaf, k, t.keyCol)
	if !found {
		return tuple.Tuple{}, false, t.pool.Release(fr)
	}
	old := leaf.Tuples[idx] // its values are the decode's own: nothing else holds them
	leaf.Tuples = slices.Delete(leaf.Tuples, idx, idx+1)
	t.count--
	if together {
		if at, dup := leafFind(leaf, *nk, t.keyCol); !dup {
			leaf.Tuples = slices.Insert(leaf.Tuples, at, *tp)
			if leaf.Size() <= len(fr.Data) {
				t.encodeLeaf(fr, leaf)
				fr.MarkDirty()
				// Delete then Insert would each release this leaf dirty, and
				// under write-through each release writes it back: release it
				// for the delete, then take it again, clean and resident (a
				// hit), and release it dirty for the insert.
				if err := t.pool.Release(fr); err != nil {
					return tuple.Tuple{}, false, err
				}
				if fr, err = t.pool.Get(t.file, leafPN); err != nil {
					return tuple.Tuple{}, false, err
				}
				fr.MarkDirty()
				t.count++
				return old, true, t.pool.Release(fr)
			}
			leaf.Tuples = slices.Delete(leaf.Tuples, at, at+1)
		}
	}
	t.encodeLeaf(fr, leaf)
	fr.MarkDirty()
	if err := t.pool.Release(fr); err != nil {
		return tuple.Tuple{}, false, err
	}
	if tp != nil {
		if err := t.Insert(*tp); err != nil {
			return tuple.Tuple{}, false, err
		}
	}
	return old, true, nil
}

// Get returns the tuple with the exact (value, id) key, if present.
func (t *Tree) Get(val tuple.Value, id uint64) (tuple.Tuple, bool, error) {
	k := key{val: val, id: id}
	leafPN, err := t.findLeaf(&k)
	if err != nil {
		return tuple.Tuple{}, false, err
	}
	var found tuple.Tuple
	ok := false
	err = t.pool.Read(t.file, leafPN, func(page []byte) error {
		leaf, err := leafPages.DecodePage(page)
		if err != nil {
			return err
		}
		if idx, hit := leafFind(leaf, k, t.keyCol); hit {
			found, ok = leaf.Tuples[idx].Clone(), true
		}
		return nil
	})
	return found, ok, err
}

// --- scans ---------------------------------------------------------------

// BatchIterator walks the tree in key order over a range, decoding
// leaves straight to columnar form. It holds no pins between Fill
// calls; each leaf is fetched (and charged) once per visit. Full scans
// (nil range) prefetch leaves in windows: every leaf of the chain is
// read eventually anyway, so fetching a window through Pool.ReadBatch
// meters the same one read per leaf while paying the simulated I/O
// latency once per window instead of once per page. Range scans never
// prefetch — early termination at Hi means a prefetched leaf could be a
// read the plain walk never charges.
//
// A leaf the scan wants whole — any leaf of a full scan, an interior
// leaf of a range scan — decodes straight onto the batch being filled
// when it fits. Every other leaf (the rest of a window once the batch
// is full, the leaves a range cuts) decodes onto the iterator's staging
// lanes, and Fill moves it on in runs of rows.
//
// A range scan works per leaf, not per row: the rows a leaf keeps are
// found by binary search over its sorted key lane (keptRun), and a Fill
// that starts an empty batch sizes the batch's lanes once for the rows
// the range can still hand it, read from the leaf directory (reserve).
// A full scan does neither.
//
// On full scans with prune atoms the walk also consults the zone maps
// of upcoming columnar leaves and skips pages whose footer disproves
// the predicate for every row. The walk reads links and zone maps from
// the tree's leaf directory, not from the pages. Pruned pages are never
// pinned and never charged; they are counted so plans can report them.
// The charged chain-following path (range scans, dirty files, tiny
// pools) never prunes. Every leaf a full scan does read, on either path,
// has its rows tested against the atoms before they are decoded
// (colpage.DecodeWhere).
// The test reads the page the pool hands the read — the frame's bytes
// for a page a writer holds dirty, the image otherwise — so dirty frames
// do not disarm it.
// Only the rows that pass are filled; the count of the rest rides on the
// filled batch (vec.Batch.Dropped).
type BatchIterator struct {
	tree    *Tree
	rg      *pred.Range
	prune   []colpage.Atom // full scans: zone-map pruning and the row test
	dropped int            // rows the atoms dropped, not yet on a filled batch
	pn      storage.PageNum
	hasPage bool
	done    bool
	ra      bool          // readahead allowed (full scan)
	all     bool          // the range keeps every row: no key is looked at
	stage   colpage.Lanes // rows read but not handed out: those from idx on
	idx     int
	pruned  int64
	// The pages walkAhead found to fetch, reused window to window; not
	// referenced once the loadPage call that filled it returns.
	fetch []storage.PageNum
}

// ScanBatches returns a columnar iterator over tuples whose key-column
// value lies in rg (nil means all). Prune atoms apply only to full
// scans: a range scan already terminates early, and pruning mid-range
// could skip the page holding the range's end.
func (t *Tree) ScanBatches(rg *pred.Range, prune []colpage.Atom) (*BatchIterator, error) {
	it := &BatchIterator{tree: t, rg: rg, ra: rg == nil, all: rg == nil || rg.Unbounded(), hasPage: true}
	if it.ra {
		it.prune = prune
	}
	var start *key
	if rg != nil && rg.Lo != nil {
		start = &key{val: *rg.Lo} // id 0: before all ids of that value
		if !rg.LoInc {
			start.id = ^uint64(0)
		}
	}
	var err error
	if it.pn, err = t.findLeaf(start); err != nil {
		return nil, err
	}
	// Fill skips the first leaf's entries below the range.
	return it, it.loadPage(nil, 0)
}

// Pruned returns the number of pages skipped via zone maps so far.
func (it *BatchIterator) Pruned() int64 { return it.pruned }

// Fill appends rows to b (slot-0-only shape) until the batch holds max
// rows or the scan is exhausted; check Done afterwards. Whenever the
// rows read so far run out it reads on at once, full batch or not, so
// the pool sees the page requests at the same points of the scan
// whatever the batch size. The rows the prune atoms dropped since the
// last Fill are added to b.Dropped.
func (it *BatchIterator) Fill(b *vec.Batch, max int) error {
	defer func() { b.Dropped, it.dropped = b.Dropped+it.dropped, 0 }()
	if !it.all && b.NumRows() == 0 {
		if err := it.reserve(b, max); err != nil {
			return err
		}
	}
	for !it.done {
		n := len(it.stage.IDs)
		if it.idx >= n {
			if err := it.loadPage(b, max); err != nil {
				return err
			}
			continue
		}
		lo, hi, past := it.idx, n, false
		if !it.all {
			keys, err := it.keys(it.stage.Cols)
			if err != nil {
				return err
			}
			lo, hi, past = keptRun(keys, it.rg, it.idx, n)
		}
		if lo < hi {
			room := max - b.NumRows()
			if room <= 0 {
				it.idx = lo
				return nil // batch full; resume here next call
			}
			take := min(hi-lo, room)
			if err := it.stage.MoveRows(b, lo, lo+take); err != nil {
				return err
			}
			if take < hi-lo {
				it.idx = lo + take
				return nil
			}
		}
		it.idx, it.done = hi, past
	}
	return nil
}

// keys returns the key column of scanned rows, which stored bytes may
// not have.
func (it *BatchIterator) keys(cols []vec.Col) (*vec.Col, error) {
	if it.tree.keyCol >= len(cols) {
		return nil, fmt.Errorf("btree: rows of %d columns have no key column %d", len(cols), it.tree.keyCol)
	}
	return &cols[it.tree.keyCol], nil
}

// reserve sizes an empty batch's lanes, on a bounded range scan, for
// the rows this Fill can hand it: the staged rows not yet handed out
// plus the rows of the leaves after them whose key zone does not start
// beyond Hi, at most max — read from the leaf directory, not the pages.
// It reserves nothing unless the range runs on past the staged leaf, so
// a point lookup allocates what it did without it. The count is a hint:
// a dirty frame's entry can make it loose, never wrong, and it moves no
// page request.
func (it *BatchIterator) reserve(b *vec.Batch, max int) error {
	n := len(it.stage.IDs)
	if it.idx >= n || !it.hasPage {
		return nil
	}
	keys, err := it.keys(it.stage.Cols)
	if err != nil || beyondHi(keys, it.rg, n-1) {
		return err
	}
	rows := 0
	for pn := it.pn; n-it.idx+rows < max; {
		e, err := it.tree.dir.Lookup(pn)
		if err != nil {
			return err
		}
		if e == nil {
			break
		}
		z, ok := e.Zones()
		if !ok || it.tree.keyCol >= len(z.Cols) || !z.Cols[it.tree.keyCol].Present {
			break
		}
		if it.rg.Hi != nil && pastHi(it.rg, tuple.Compare(z.Cols[it.tree.keyCol].Min, *it.rg.Hi)) {
			break
		}
		rows += z.Rows
		if !e.HasNext {
			break
		}
		pn = e.Next
	}
	if rows > 0 {
		b.Reserve(it.stage.Cols, min(n-it.idx+rows, max))
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

// Done reports exhaustion.
func (it *BatchIterator) Done() bool { return it.done }

// loadPage reads the next leaf — on a full scan, the next readahead
// window of leaves — once every row read before it has been handed
// out. b is the batch being filled (nil at open), max its row limit.
func (it *BatchIterator) loadPage(b *vec.Batch, max int) error {
	it.stage.Reset()
	it.idx = 0
	for {
		if !it.hasPage {
			it.done = true
			return nil
		}
		if it.ra {
			cont, hasCont, ok, err := it.walkAhead()
			if err != nil {
				return err
			}
			if ok {
				// The walk owns the cursor: the fetched leaves' own next
				// pointers may point at pruned pages and must not steer
				// the scan.
				it.pn, it.hasPage = cont, hasCont
				if len(it.fetch) == 0 {
					continue // whole window pruned; maybe exhausted now
				}
				return it.fetchLeaves(it.fetch, b, max)
			}
		}
		// Charged, chain-following load: the fallback when readahead is
		// unsafe (dirty frames, tiny pool) and the range-scan path.
		next, hasNext, err := it.getLeaf(it.pn, b, max)
		it.pn, it.hasPage = next, hasNext
		return err
	}
}

// takeLeaf decodes a leaf page the pool is reading — on a full scan, the
// rows the prune atoms keep: straight onto b when the data page rule
// allows it and the range keeps every row of the leaf; onto the staging
// lanes otherwise.
func (it *BatchIterator) takeLeaf(page []byte, b *vec.Batch, max int) error {
	mark := 0
	if b != nil {
		mark = b.NumRows()
	}
	direct, dropped, err := leafPages.Take(page, it.prune, b, max, &it.stage)
	it.dropped += dropped
	if err != nil || !direct || it.all || b.NumRows() == mark {
		return err
	}
	keys, err := it.keys(b.Slots[0])
	if err != nil {
		return err
	}
	if lo, hi, past := keptRun(keys, it.rg, mark, b.NumRows()); lo != mark || hi != b.NumRows() || past {
		// The range cuts this leaf (its last, usually): take it back
		// and let Fill move the kept runs.
		b.Truncate(mark)
		_, _, err = leafPages.Take(page, nil, nil, 0, &it.stage)
	}
	return err
}

// getLeaf reads one leaf with a plain charged Read and returns its
// forward link.
func (it *BatchIterator) getLeaf(pn storage.PageNum, b *vec.Batch, max int) (next storage.PageNum, hasNext bool, err error) {
	err = it.tree.pool.Read(it.tree.file, pn, func(page []byte) error {
		next, hasNext = colpage.PageLink(page)
		return it.takeLeaf(page, b, max)
	})
	return next, hasNext, err
}

// walkAhead walks the leaf chain from the cursor in the tree's leaf
// directory — links and zone maps in memory, no page opened — splitting
// the upcoming window into pages to fetch (it.fetch) and pages whose zone
// maps disprove the prune atoms (skipped, counted, never read). It runs
// only while the file has no dirty frame, as it did when it peeked the
// images: the directory does hold a dirty frame's zones, but pruning on
// them would skip pages the image walk read, and so move the metered
// count. On return with ok, the cursor continuation
// (cont, hasCont) is owned by the walk: it points past every examined
// page. A walk that meets a page the directory has no leaf for, or whose
// zone maps do not parse, before committing any prune returns !ok so the
// charged chain-following path takes over from the cursor; after a
// prune, it stops at that page and lets the charged path surface the real
// error there. err is a test binary's directory check failing.
func (it *BatchIterator) walkAhead() (cont storage.PageNum, hasCont, ok bool, err error) {
	w := colpage.Window(it.tree.pool)
	if w == 0 || it.tree.file.HasDirtyFrames() {
		return 0, false, false, nil
	}
	pn := it.pn
	prunedN := 0
	it.fetch = it.fetch[:0]
	for {
		e, err := it.tree.dir.Lookup(pn)
		if err != nil {
			return 0, false, false, err
		}
		skip := false
		if e != nil {
			skip, err = e.Prunable(it.prune)
		}
		if e == nil || err != nil {
			// Truncated or foreign chain, or a footer that does not parse.
			return pn, true, prunedN > 0, nil
		}
		if skip {
			prunedN++
			it.pruned++
		} else {
			it.fetch = append(it.fetch, pn)
		}
		if !e.HasNext {
			return 0, false, true, nil
		}
		if len(it.fetch) == w {
			return e.Next, true, true, nil
		}
		pn = e.Next
	}
}

// fetchLeaves reads the walked window — one pool batch when it spans
// multiple pages (one combined latency sleep, identical metered reads),
// a plain Read when a single page survived. Each page is released as
// soon as its leaf is decoded, so the window holds no pins afterwards.
func (it *BatchIterator) fetchLeaves(pns []storage.PageNum, b *vec.Batch, max int) error {
	if len(pns) == 1 {
		_, _, err := it.getLeaf(pns[0], b, max)
		return err
	}
	return it.tree.pool.ReadBatch(it.tree.file, pns, func(_ int, page []byte) error {
		return it.takeLeaf(page, b, max)
	})
}
