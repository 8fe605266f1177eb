package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"viewmat/internal/agg"
	"viewmat/internal/btree"
	"viewmat/internal/costmodel"
	"viewmat/internal/hashidx"
	"viewmat/internal/hr"
	"viewmat/internal/relation"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/wal"
)

// Save serializes the whole database — catalog, view state and the
// disk — to w, as the body of a full checkpoint frame. Dirty
// buffer-pool frames are flushed first so the image is consistent. A
// database restored with Load answers every query identically and
// continues from the same tuple-id clock.
func (db *Database) Save(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	body, err := db.snapshotBodyLocked(true, 0)
	if err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// snapshotBodyLocked flushes the pool and encodes a checkpoint frame's
// body: the catalog header with the disk beside it as a DiskDelta —
// against the empty disk (full: Save, and a full frame), or against the
// disk's last ResetChanges (a delta frame). The header is the same
// either way, so a delta frame restores exactly what a Save at the same
// moment would. The body starts reserve bytes into the buffer returned,
// the room a checkpoint's frame headers are written into
// (wal.FrameReserve). Caller holds db.mu.
func (db *Database) snapshotBodyLocked(full bool, reserve int) ([]byte, error) {
	if err := db.pool.FlushAll(); err != nil {
		return nil, err
	}
	var delta *storage.DiskDelta
	if full {
		delta = db.disk.FullDelta()
	} else {
		delta = db.disk.Delta()
	}
	header := db.catalogHeaderLocked()
	if db.adv != nil {
		db.adv.mu.Lock()
		defer db.adv.mu.Unlock()
	}
	// One buffer for the frame: the header is small, and the delta's pages
	// are encoded once, straight into the room made for them.
	enc := tuple.NewEncoder(make([]byte, reserve, reserve+delta.EncodedSize()+1024)).Compact()
	codeSnapshot(&enc, &header, delta, nil)
	return enc.Done()
}

// catalogHeaderLocked collects the header of the engine's current
// state. The header shares the engine's view states and advisor; it is
// encoded before the lock is released.
func (db *Database) catalogHeaderLocked() catalogHeader {
	h := catalogHeader{
		poolFrames: db.pool.Capacity(),
		hrConfig:   db.hrConfig,
		clock:      db.clock.Load(),
		relations:  make(map[string]relationEntry, len(db.rels)),
		hrs:        make(map[string]hr.ADMeta, len(db.hrs)),
		advisor:    db.adv,
	}
	for n, r := range db.rels {
		h.relations[n] = relationEntry{schema: r.Schema(), meta: r.Meta()}
	}
	for n, hyp := range db.hrs {
		h.hrs[n] = hyp.ADMeta()
	}
	// Views are saved parents-before-children so a restore can resolve a
	// child's source schema against the already-restored parent.
	names := db.viewNamesLocked()
	sort.SliceStable(names, func(i, j int) bool {
		return db.viewDepth(db.views[names[i]]) < db.viewDepth(db.views[names[j]])
	})
	for _, n := range names {
		vs := db.views[n]
		e := viewEntry{vs: vs, hasAgg: vs.aggState != nil}
		if vs.mat != nil {
			m := vs.mat.rel.Meta()
			e.mat = &m
		}
		if vs.groups != nil {
			m := vs.groups.rel.Meta()
			e.groups = &m
		}
		h.views = append(h.views, e)
	}
	return h
}

// ErrSnapshotTruncated and ErrSnapshotCorrupt classify Load failures:
// a stream that ends before the encoding completes (the residue of a
// torn write or an interrupted copy) versus bytes that decode to
// something impossible. Callers deciding between "retry an older
// snapshot" and "refuse the file" need the distinction.
var (
	ErrSnapshotTruncated = errors.New("core: snapshot truncated")
	ErrSnapshotCorrupt   = errors.New("core: snapshot corrupt")
)

// Load reconstructs a database saved with Save. The restored engine's
// meter starts at zero (loading is setup, not workload). Failures wrap
// ErrSnapshotTruncated or ErrSnapshotCorrupt.
func Load(r io.Reader) (*Database, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return restoreChain([]wal.SnapshotFrame{{Body: body}})
}

// snapshotMagic opens every snapshot body; its last byte is the format
// version. Version 1 was an encoding/gob stream and had no magic;
// version 2's catalog header carried per-relation key-frequency
// trackers; version 3's disk could hold row-major data pages (types 1
// and 3), which no decoder reads any more; version 4's advisor header
// carried four options the advisor no longer has; version 5's Float
// keys ordered NaN equal to every value and hashed −0 apart from +0, so
// its trees and hash chains need not hold under tuple.CompareFloat.
const snapshotMagic = "VMS\x06"

// codeSnapshot walks one checkpoint frame's body (all of Save's output):
// the magic, the catalog header, and the disk's changes — a
// storage.DiskDelta in its own encoding — behind their length. An
// encoder given delta lays its encoding out in place; otherwise the
// encoding is *disk's bytes, which a decoder fills.
func codeSnapshot(c *tuple.Coder, h *catalogHeader, delta *storage.DiskDelta, disk *[]byte) {
	magic := []byte(snapshotMagic)
	for i := range magic {
		c.U8(&magic[i])
	}
	if string(magic) != snapshotMagic {
		c.Fail("not a version-%d snapshot: it opens %q, not %q (version 1, an encoding/gob stream, and version-2 to version-5 snapshots are not readable)",
			snapshotMagic[3], magic, snapshotMagic)
		return
	}
	h.code(c)
	if delta != nil && !c.Decoding() {
		c.Sized(delta.EncodedSize(), delta.AppendBinary)
		return
	}
	c.Bytes(disk)
}

// decodeSnapshot decodes one frame body. Running out of bytes is
// ErrSnapshotTruncated; every other failure is ErrSnapshotCorrupt.
func decodeSnapshot(body []byte) (*catalogHeader, *storage.DiskDelta, error) {
	var (
		header catalogHeader
		disk   []byte
	)
	dec := tuple.NewDecoder(body).Compact()
	codeSnapshot(&dec, &header, nil, &disk)
	if _, err := dec.Done(); err != nil {
		class := ErrSnapshotCorrupt
		if errors.Is(err, io.ErrUnexpectedEOF) {
			class = ErrSnapshotTruncated
		}
		return nil, nil, fmt.Errorf("%w: decoding: %v", class, err)
	}
	delta, err := storage.DecodeDiskDelta(disk)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	return &header, delta, nil
}

// restoreChain rebuilds the engine a chain of frames describes: every
// body's disk delta applied in order to an empty image — the first is a
// full frame's, taken against the empty disk — under the last body's
// catalog header.
func restoreChain(frames []wal.SnapshotFrame) (*Database, error) {
	var (
		header *catalogHeader
		img    *storage.DiskImage
	)
	for i, f := range frames {
		h, delta, err := decodeSnapshot(f.Body)
		if err == nil {
			if img == nil {
				img = &storage.DiskImage{PageSize: delta.PageSize}
			}
			if err = img.Apply(delta); err != nil {
				err = fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
			}
		}
		if err != nil {
			if len(frames) > 1 {
				err = fmt.Errorf("frame %d of %d (seq %d): %w", i+1, len(frames), f.Seq, err)
			}
			return nil, err
		}
		header = h
	}
	disk, err := storage.RestoreDisk(img)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	return restoreDatabase(header, disk)
}

// restoreDatabase rebuilds an engine from a catalog header over an
// already restored disk. A header that does not fit the disk — a meta
// naming a page that is not there, an undecodable aggregate page — is a
// corrupt snapshot like any other, whichever layer notices.
func restoreDatabase(h *catalogHeader, disk *storage.Disk) (_ *Database, err error) {
	defer func() {
		if err != nil && !errors.Is(err, ErrSnapshotCorrupt) {
			err = fmt.Errorf("%w: %w", ErrSnapshotCorrupt, err)
		}
	}()
	db := newDatabase(disk, h.poolFrames, h.hrConfig)
	db.adv = h.advisor
	db.clock.Store(h.clock)

	for _, name := range sortedKeys(h.relations) {
		re := h.relations[name]
		rel, err := relation.Open(disk, db.pool, name, re.schema, re.meta)
		if err != nil {
			return nil, fmt.Errorf("core: reopening relation %q: %w", name, err)
		}
		db.rels[name] = rel
	}
	for _, name := range sortedKeys(h.hrs) {
		base, ok := db.rels[name]
		if !ok {
			return nil, fmt.Errorf("HR for unknown relation %q", name)
		}
		if db.hrs[name], err = hr.Open(disk, db.pool, base, h.hrConfig, h.hrs[name]); err != nil {
			return nil, err
		}
	}
	for _, ve := range h.views {
		vs, def := ve.vs, &ve.vs.def
		// A source name resolves against the base relations first, then
		// the already-loaded views (the save order is parents-first, so
		// a child's parent is always present by now).
		for _, rn := range def.Relations {
			if rel, ok := db.rels[rn]; ok {
				vs.schemas = append(vs.schemas, rel.Schema())
				continue
			}
			p, ok := db.views[rn]
			if !ok || len(def.Relations) != 1 {
				return nil, fmt.Errorf("view %q references unknown relation %q", def.Name, rn)
			}
			vs.schemas = append(vs.schemas, p.def.OutputSchema(p.schemas))
		}
		// The definition came from outside the program: hold it to what
		// CreateView would have accepted before anything indexes by it.
		if err := def.Validate(vs.schemas); err != nil {
			return nil, err
		}
		if !vs.strategy.Valid() {
			return nil, fmt.Errorf("view %q has unknown strategy %d", def.Name, int(vs.strategy))
		}
		if ve.mat != nil {
			if vs.mat, err = OpenMatView(disk, db.pool, def.Name, def.OutputSchema(vs.schemas), def.ViewKeyCol, *ve.mat); err != nil {
				return nil, fmt.Errorf("core: reopening view %q: %w", def.Name, err)
			}
		}
		if ve.groups != nil {
			if def.Kind != GroupedAggregate {
				return nil, fmt.Errorf("%s view %q has a group store", def.Kind, def.Name)
			}
			groupTyp := vs.schemas[0].Cols[def.GroupBy].Type
			rel, err := relation.Open(disk, db.pool, def.Name+".groups", groupStoreSchema(groupTyp), *ve.groups)
			if err != nil {
				return nil, fmt.Errorf("core: reopening groups of %q: %w", def.Name, err)
			}
			vs.groups = &groupStore{rel: rel, groupTyp: groupTyp}
		}
		if ve.hasAgg {
			vs.aggFile = disk.Open(def.Name + ".agg")
			page, err := vs.aggFile.Peek(vs.aggPage)
			if err != nil {
				return nil, fmt.Errorf("core: aggregate page for %q: %w", def.Name, err)
			}
			if vs.aggState, err = agg.DecodeState(page); err != nil {
				return nil, fmt.Errorf("core: aggregate state for %q: %w", def.Name, err)
			}
		}
		db.placeLocksLocked(vs)
		vs.baseRels = db.baseRelsOfLocked(*def)
		db.views[def.Name] = vs
	}
	db.rebuildChildrenLocked()
	db.ResetStats()
	return db, nil
}

// catalogHeader is the part of a snapshot that is not on the disk: the
// engine's settings and id clock, and per relation, view, hypothetical
// relation and advisor what it takes to reattach them to their files.
// Decoded, it holds engine values ready to be adopted by
// restoreDatabase.
type catalogHeader struct {
	poolFrames int
	hrConfig   hr.Config
	clock      uint64
	relations  map[string]relationEntry
	views      []viewEntry // parents before children
	hrs        map[string]hr.ADMeta
	advisor    *advisor // nil when the advisor is off
}

type relationEntry struct {
	schema *tuple.Schema
	meta   relation.Meta
}

// viewEntry is a view's persistent state: the viewState fields code
// walks, and the metadata of whichever stores the view keeps.
type viewEntry struct {
	vs          *viewState
	mat, groups *relation.Meta
	hasAgg      bool // an aggregate state lives at vs.aggPage
}

// Least encoded sizes of the header's list elements, which bound the
// counts a decoder accepts.
const (
	minHashMetaSize  = 4 + 8                               // no buckets, a count
	minRelationSize  = 4 + 4 + 8 + 8 + minHashMetaSize + 4 // empty name and schema, kind, key, meta, no secondaries
	minViewSize      = 49 + 81                             // an empty Def, then a view's fixed fields
	minAdvViewSize   = 4 + 8*25 + 3*4                      // empty name, 25 numbers, an empty reason, cost map and best
	minSecondarySize = 8 + 8*3                             // a column and a B+-tree's metadata
)

// code walks the header's byte layout; DESIGN.md "Byte formats" has it
// field by field. Map-shaped parts are sorted by name.
func (h *catalogHeader) code(c *tuple.Coder) {
	c.Int(&h.poolFrames)
	c.Int(&h.hrConfig.ADBuckets)
	c.Int(&h.hrConfig.BloomKeys)
	c.Float(&h.hrConfig.BloomFPRate)
	c.U64(&h.clock)
	tuple.Map(c, &h.relations, minRelationSize, (*tuple.Coder).Str, func(c *tuple.Coder, re *relationEntry) {
		if c.Decoding() {
			re.schema = new(tuple.Schema)
		}
		re.schema.Code(c)
		codeRelationMeta(c, &re.meta)
	})
	tuple.List(c, &h.views, minViewSize, codeViewEntry)
	tuple.Map(c, &h.hrs, 4+minHashMetaSize, (*tuple.Coder).Str, codeHashMeta)
	if optional(c, &h.advisor) {
		h.advisor.code(c)
	}
}

// optional walks a presence flag for *p and reports whether the value
// follows; a decoder allocates it.
func optional[T any](c *tuple.Coder, p **T) bool {
	present := *p != nil
	if c.Bool(&present); present && c.Decoding() {
		*p = new(T)
	}
	return present
}

// codeViewEntry walks a view entry: the definition, the persistent
// scalars of its state, its delta log, and each store's metadata behind
// a presence flag.
func codeViewEntry(c *tuple.Coder, ve *viewEntry) {
	if c.Decoding() {
		ve.vs = &viewState{}
	}
	vs := ve.vs
	vs.def.Code(c)
	c.Int((*int)(&vs.strategy))
	c.Int((*int)(&vs.plan))
	c.Bool(&vs.blakeley)
	c.Int(&vs.snapshotEvery)
	c.Int(&vs.refreshEvery)
	c.Int(&vs.staleCommits)
	c.Bool(&vs.dirty)
	c.I64(&vs.parentPos)
	c.U64(&vs.parentGen)
	c.I64(&vs.logStart)
	c.U64(&vs.logGen)
	tuple.List(c, &vs.deltaLog, 4+1, func(c *tuple.Coder, d *viewDelta) {
		c.Values(&d.vals)
		c.Bool(&d.insert)
	})
	if optional(c, &ve.mat) {
		codeRelationMeta(c, ve.mat)
	}
	if optional(c, &ve.groups) {
		codeRelationMeta(c, ve.groups)
	}
	if c.Bool(&ve.hasAgg); ve.hasAgg {
		codePageNum(c, &vs.aggPage)
	}
}

// code walks the advisor's options and, per observed view, its
// estimator's accumulators, flip history and last decision (the
// measured parameters, costs and winner AdvisorStats reports).
func (a *advisor) code(c *tuple.Coder) {
	o := &a.opts
	for _, f := range []*float64{&o.Hysteresis, &o.MinObservations, &o.HalfLife} {
		c.Float(f)
	}
	if c.Decoding() {
		*o = o.withDefaults()
	}
	tuple.Map(c, &a.views, minAdvViewSize, (*tuple.Coder).Str, func(c *tuple.Coder, v **advView) {
		if c.Decoding() {
			*v = &advView{est: costmodel.Estimator{HalfLife: o.HalfLife}}
		}
		av := *v
		est, p := av.est.Snapshot(), &av.lastParams
		for _, f := range []*float64{&est.Queries, &est.FvSum, &est.FvObs, &est.Updates, &est.Tuples, &est.ScrTup, &est.Hits,
			&av.fCache, &av.flipScore,
			&p.N, &p.S, &p.B, &p.K, &p.L, &p.Q, &p.IdxRec, &p.F, &p.FV, &p.FR2, &p.C1, &p.C2, &p.C3} {
			c.Float(f)
		}
		c.Int(&av.flips)
		c.Int((*int)(&av.lastFrom))
		c.Int((*int)(&av.lastTo))
		c.Str(&av.lastReason)
		tuple.Map(c, &av.lastCosts, 4+8, (*tuple.Coder).Str, (*tuple.Coder).Float)
		c.Str(&av.lastBest)
		if c.Decoding() {
			av.est.Restore(est)
		}
	})
	if c.Decoding() && a.views == nil {
		a.views = map[string]*advView{}
	}
}

func codePageNum(c *tuple.Coder, p *storage.PageNum) {
	n := uint64(*p)
	if c.U64(&n); n > math.MaxUint32 {
		c.Fail("page number %d out of range", n)
	} else if c.Decoding() {
		*p = storage.PageNum(n)
	}
}

func codeBTreeMeta(c *tuple.Coder, m *btree.Meta) {
	codePageNum(c, &m.Root)
	c.Int(&m.Height)
	c.Int(&m.Count)
}

func codeHashMeta(c *tuple.Coder, m *hashidx.Meta) {
	tuple.List(c, &m.Buckets, 8, codePageNum)
	c.Int(&m.Count)
}

// codeRelationMeta walks [8 kind][8 key column], the clustering index's
// metadata — a B+-tree's or a hash index's, by kind — and the secondary
// indexes by column.
func codeRelationMeta(c *tuple.Coder, m *relation.Meta) {
	c.Int((*int)(&m.Kind))
	c.Int(&m.KeyCol)
	switch m.Kind {
	case relation.ClusteredBTree:
		codeBTreeMeta(c, &m.BTree)
	case relation.ClusteredHash:
		codeHashMeta(c, &m.Hash)
	default:
		c.Fail("relation of unknown kind %d", int(m.Kind))
	}
	tuple.Map(c, &m.Secondaries, minSecondarySize, (*tuple.Coder).Int, codeBTreeMeta)
}

// OpenMatView reattaches a materialized view's backing store from a
// restored disk.
func OpenMatView(disk *storage.Disk, pool *storage.Pool, name string, out *tuple.Schema, keyCol int, m relation.Meta) (*MatView, error) {
	cols := append(append([]tuple.Column(nil), out.Cols...), tuple.Col(dupCountCol, tuple.Int))
	stored := tuple.NewSchema(cols...)
	rel, err := relation.Open(disk, pool, name+".view", stored, m)
	if err != nil {
		return nil, err
	}
	return &MatView{name: name, rel: rel, out: out, keyCol: keyCol}, nil
}
