package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"viewmat/internal/agg"
	"viewmat/internal/costmodel"
	"viewmat/internal/hr"
	"viewmat/internal/pred"
	"viewmat/internal/relation"
	"viewmat/internal/rules"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// Save serializes the whole database — catalog, view state and the
// disk image — to w (encoding/gob). Dirty buffer-pool frames are
// flushed first so the image is consistent. A database restored with
// Load answers every query identically and continues from the same
// tuple-id clock.
func (db *Database) Save(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.encodeSnapshotLocked(w, false)
}

// encodeSnapshotLocked flushes the pool and writes the catalog header
// with the disk beside it: the whole image (Save, and a full checkpoint
// frame), or — delta — only what the disk recorded as changed since its
// last ResetChanges (a delta checkpoint frame). The header is the same
// either way, so a delta frame restores exactly what a Save at the same
// moment would. Caller holds db.mu.
func (db *Database) encodeSnapshotLocked(w io.Writer, delta bool) error {
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	snap := dbSnapshot{
		Version:    snapshotVersion,
		PageSize:   db.disk.PageSize(),
		PoolFrames: db.pool.Capacity(),
		HRConfig:   db.hrConfig,
		Clock:      db.clock.Load(),
	}
	if delta {
		var err error
		if snap.Delta, err = db.disk.Delta().AppendBinary(nil); err != nil {
			return err
		}
	} else {
		snap.Disk = db.disk.Snapshot()
	}
	relNames := make([]string, 0, len(db.rels))
	for n := range db.rels {
		relNames = append(relNames, n)
	}
	sort.Strings(relNames)
	for _, n := range relNames {
		r := db.rels[n]
		snap.Relations = append(snap.Relations, relationDTO{
			Name:   n,
			Schema: schemaToDTO(r.Schema()),
			Meta:   r.Meta(),
		})
	}
	// Views are saved parents-before-children so Load can resolve a
	// child's source schema against the already-restored parent.
	viewNames := db.viewNamesLocked()
	sort.SliceStable(viewNames, func(i, j int) bool {
		return db.viewDepth(db.views[viewNames[i]]) < db.viewDepth(db.views[viewNames[j]])
	})
	for _, n := range viewNames {
		vs := db.views[n]
		dto := viewDTO{
			Def:           defToDTO(vs.def),
			Strategy:      int(vs.strategy),
			Plan:          int(vs.plan),
			Blakeley:      vs.blakeley,
			SnapshotEvery: vs.snapshotEvery,
			RefreshEvery:  vs.refreshEvery,
			StaleCommits:  vs.staleCommits,
			Dirty:         vs.dirty,
			ParentPos:     vs.parentPos,
			ParentGen:     vs.parentGen,
			LogStart:      vs.logStart,
			LogGen:        vs.logGen,
			BaseRels:      append([]string(nil), vs.baseRels...),
		}
		for _, d := range vs.deltaLog {
			vals := make([]valueDTO, len(d.vals))
			for i, v := range d.vals {
				vals[i] = valueToDTO(v)
			}
			dto.DeltaLog = append(dto.DeltaLog, viewDeltaDTO{Vals: vals, Insert: d.insert})
		}
		if vs.mat != nil {
			m := vs.mat.rel.Meta()
			dto.MatMeta = &m
		}
		if vs.groups != nil {
			m := vs.groups.rel.Meta()
			dto.GroupMeta = &m
		}
		if vs.aggState != nil {
			dto.HasAgg = true
			dto.AggPage = vs.aggPage
		}
		snap.Views = append(snap.Views, dto)
	}
	hlNames := make([]string, 0, len(db.heavy))
	for n := range db.heavy {
		hlNames = append(hlNames, n)
	}
	sort.Strings(hlNames)
	for _, n := range hlNames {
		t := db.heavy[n]
		dto := hlDTO{
			Rel:       n,
			Threshold: t.threshold,
			MinTotal:  t.minTotal,
			Total:     t.total,
			HeavyOps:  t.heavyOps,
			LightOps:  t.lightOps,
		}
		keys := make([]string, 0, len(t.counts))
		for k := range t.counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			dto.Counts = append(dto.Counts, hlCountDTO{Key: k, N: t.counts[k]})
		}
		snap.HeavyLight = append(snap.HeavyLight, dto)
	}
	hrNames := make([]string, 0, len(db.hrs))
	for n := range db.hrs {
		hrNames = append(hrNames, n)
	}
	sort.Strings(hrNames)
	for _, n := range hrNames {
		snap.HRs = append(snap.HRs, hrDTO{Relation: n, ADMeta: db.hrs[n].ADMeta()})
	}
	if db.adv != nil {
		db.adv.mu.Lock()
		adto := &advisorDTO{
			Hysteresis:         db.adv.opts.Hysteresis,
			FlipPenalty:        db.adv.opts.FlipPenalty,
			MinObservations:    db.adv.opts.MinObservations,
			HalfLife:           db.adv.opts.HalfLife,
			SnapshotEvery:      db.adv.opts.SnapshotEvery,
			StorageBudget:      db.adv.opts.StorageBudget,
			ExtendedStrategies: db.adv.opts.ExtendedStrategies,
		}
		avNames := make([]string, 0, len(db.adv.views))
		for n := range db.adv.views {
			avNames = append(avNames, n)
		}
		sort.Strings(avNames)
		for _, n := range avNames {
			av := db.adv.views[n]
			adto.Views = append(adto.Views, advViewDTO{
				Name:       n,
				Est:        av.est.Snapshot(),
				FCache:     av.fCache,
				FlipScore:  av.flipScore,
				Flips:      av.flips,
				LastFrom:   int(av.lastFrom),
				LastTo:     int(av.lastTo),
				LastReason: av.lastReason,
			})
		}
		db.adv.mu.Unlock()
		snap.Advisor = adto
	}
	return gob.NewEncoder(w).Encode(&snap)
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

// classifySnapshotErr maps a gob decode failure to truncation (the
// stream ran out) or corruption (everything else). gob reports a
// mid-value cut as io.ErrUnexpectedEOF and a cut between fields with
// messages wrapping "unexpected EOF"; a cut before any byte is io.EOF.
func classifySnapshotErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		strings.Contains(err.Error(), "unexpected EOF") {
		return ErrSnapshotTruncated
	}
	return ErrSnapshotCorrupt
}

// Load reconstructs a database saved with Save. The restored engine's
// meter starts at zero (loading is setup, not workload). Failures wrap
// ErrSnapshotTruncated or ErrSnapshotCorrupt.
func Load(r io.Reader) (*Database, error) {
	snap, err := decodeSnapshot(r)
	if err != nil {
		return nil, err
	}
	if snap.Disk == nil {
		return nil, fmt.Errorf("%w: no disk image", ErrSnapshotCorrupt)
	}
	disk, err := storage.RestoreDisk(snap.Disk)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	return restoreDatabase(snap, disk)
}

// decodeSnapshot reads one encoded snapshot — a Save stream or a
// checkpoint frame body — and checks its version.
func decodeSnapshot(r io.Reader) (*dbSnapshot, error) {
	var snap dbSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("%w: decoding: %v", classifySnapshotErr(err), err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrSnapshotCorrupt, snap.Version, snapshotVersion)
	}
	return &snap, nil
}

// restoreDatabase rebuilds an engine from a snapshot's catalog header
// over an already restored disk (the header's own Disk/Delta are not
// consulted: recovery assembles the disk from a chain of frames). A
// header that does not fit the disk — a meta naming a page that is not
// there, an undecodable aggregate page — is a corrupt snapshot like any
// other, whichever layer notices.
func restoreDatabase(snap *dbSnapshot, disk *storage.Disk) (_ *Database, err error) {
	defer func() {
		if err != nil && !errors.Is(err, ErrSnapshotCorrupt) {
			err = fmt.Errorf("%w: %w", ErrSnapshotCorrupt, err)
		}
	}()
	meter := storage.NewMeter()
	db := &Database{
		disk:      disk,
		pool:      storage.NewPool(disk, meter, snap.PoolFrames),
		meter:     meter,
		locks:     rules.NewTable(meter),
		rels:      map[string]*relation.Relation{},
		hrs:       map[string]*hr.HR{},
		views:     map[string]*viewState{},
		children:  map[string][]string{},
		heavy:     map[string]*hlTracker{},
		hrConfig:  snap.HRConfig,
		breakdown: map[Phase]storage.Stats{},
		inflight:  map[string]*refreshFlight{},
	}
	db.clock.Store(snap.Clock)

	for _, rd := range snap.Relations {
		rel, err := relation.Open(disk, db.pool, rd.Name, schemaFromDTO(rd.Schema), rd.Meta)
		if err != nil {
			return nil, fmt.Errorf("core: reopening relation %q: %w", rd.Name, err)
		}
		db.rels[rd.Name] = rel
	}
	for _, hd := range snap.HRs {
		base, ok := db.rels[hd.Relation]
		if !ok {
			return nil, fmt.Errorf("%w: HR for unknown relation %q", ErrSnapshotCorrupt, hd.Relation)
		}
		h, err := hr.Open(disk, db.pool, base, snap.HRConfig, hd.ADMeta)
		if err != nil {
			return nil, err
		}
		db.hrs[hd.Relation] = h
	}
	for _, vd := range snap.Views {
		def, err := defFromDTO(vd.Def)
		if err != nil {
			return nil, err
		}
		// A source name resolves against the base relations first, then
		// the already-loaded views (the save order is parents-first, so
		// a child's parent is always present by now).
		schemas := make([]*tuple.Schema, 0, len(def.Relations))
		for _, rn := range def.Relations {
			if rel, ok := db.rels[rn]; ok {
				schemas = append(schemas, rel.Schema())
				continue
			}
			p, ok := db.views[rn]
			if !ok || len(def.Relations) != 1 {
				return nil, fmt.Errorf("%w: view %q references unknown relation %q", ErrSnapshotCorrupt, def.Name, rn)
			}
			schemas = append(schemas, p.def.OutputSchema(p.schemas))
		}
		// The definition came from outside the program: hold it to what
		// CreateView would have accepted before anything indexes by it.
		if err := def.Validate(schemas); err != nil {
			return nil, err
		}
		vs := &viewState{
			def:           def,
			strategy:      Strategy(vd.Strategy),
			schemas:       schemas,
			plan:          QueryPlan(vd.Plan),
			blakeley:      vd.Blakeley,
			snapshotEvery: vd.SnapshotEvery,
			refreshEvery:  vd.RefreshEvery,
			staleCommits:  vd.StaleCommits,
			dirty:         vd.Dirty,
			parentPos:     vd.ParentPos,
			parentGen:     vd.ParentGen,
			logStart:      vd.LogStart,
			logGen:        vd.LogGen,
		}
		for _, dd := range vd.DeltaLog {
			vals := make([]tuple.Value, len(dd.Vals))
			for i, v := range dd.Vals {
				vals[i] = valueFromDTO(v)
			}
			vs.deltaLog = append(vs.deltaLog, viewDelta{vals: vals, insert: dd.Insert})
		}
		if vd.MatMeta != nil {
			mat, err := OpenMatView(disk, db.pool, def.Name, def.OutputSchema(schemas), def.ViewKeyCol, *vd.MatMeta)
			if err != nil {
				return nil, fmt.Errorf("core: reopening view %q: %w", def.Name, err)
			}
			vs.mat = mat
		}
		if vd.GroupMeta != nil {
			groupTyp := schemas[0].Cols[def.GroupBy].Type
			rel, err := relation.Open(disk, db.pool, def.Name+".groups", groupStoreSchema(groupTyp), *vd.GroupMeta)
			if err != nil {
				return nil, fmt.Errorf("core: reopening groups of %q: %w", def.Name, err)
			}
			vs.groups = &groupStore{rel: rel, groupTyp: groupTyp}
		}
		if vd.HasAgg {
			vs.aggFile = disk.Open(def.Name + ".agg")
			vs.aggPage = vd.AggPage
			page, err := vs.aggFile.Peek(vs.aggPage)
			if err != nil {
				return nil, fmt.Errorf("core: aggregate page for %q: %w", def.Name, err)
			}
			state, err := agg.DecodeState(page)
			if err != nil {
				return nil, fmt.Errorf("core: aggregate state for %q: %w", def.Name, err)
			}
			vs.aggState = state
		}
		if _, known := strategyTable[vs.strategy]; !known {
			return nil, fmt.Errorf("%w: view %q has unknown strategy %d", ErrSnapshotCorrupt, def.Name, vd.Strategy)
		}
		db.placeLocksLocked(vs)
		if len(vd.BaseRels) > 0 {
			vs.baseRels = vd.BaseRels
		} else {
			// Pre-hierarchy snapshots carry no lineage; derive it (for
			// non-children this is just def.Relations).
			vs.baseRels = db.baseRelsOfLocked(def)
		}
		db.views[def.Name] = vs
	}
	db.rebuildChildrenLocked()
	for _, hd := range snap.HeavyLight {
		t := &hlTracker{
			threshold: hd.Threshold,
			minTotal:  hd.MinTotal,
			total:     hd.Total,
			counts:    map[string]int64{},
			heavyOps:  hd.HeavyOps,
			lightOps:  hd.LightOps,
		}
		for _, c := range hd.Counts {
			t.counts[c.Key] = c.N
		}
		db.heavy[hd.Rel] = t
	}
	if snap.Advisor != nil {
		a := snap.Advisor
		adv := &advisor{
			opts: AdvisorOptions{
				Hysteresis:         a.Hysteresis,
				FlipPenalty:        a.FlipPenalty,
				MinObservations:    a.MinObservations,
				HalfLife:           a.HalfLife,
				SnapshotEvery:      a.SnapshotEvery,
				StorageBudget:      a.StorageBudget,
				ExtendedStrategies: a.ExtendedStrategies,
			}.withDefaults(),
			views: map[string]*advView{},
		}
		for _, avd := range a.Views {
			av := &advView{
				est:        costmodel.Estimator{HalfLife: adv.opts.HalfLife},
				fCache:     avd.FCache,
				flipScore:  avd.FlipScore,
				flips:      avd.Flips,
				lastFrom:   Strategy(avd.LastFrom),
				lastTo:     Strategy(avd.LastTo),
				lastReason: avd.LastReason,
			}
			av.est.Restore(avd.Est)
			adv.views[avd.Name] = av
		}
		db.adv = adv
	}
	db.ResetStats()
	return db, nil
}

const snapshotVersion = 1

// --- DTOs (gob-friendly: exported fields, no interfaces) -------------------

type dbSnapshot struct {
	Version    int
	PageSize   int
	PoolFrames int
	HRConfig   hr.Config
	Clock      uint64
	// Exactly one of Disk and Delta is set: Disk by Save and by a full
	// checkpoint frame, Delta (a storage.DiskDelta in its own encoding,
	// which adds no gob type) by a delta checkpoint frame.
	Disk       *storage.DiskImage
	Delta      []byte
	Relations  []relationDTO
	Views      []viewDTO
	HRs        []hrDTO
	HeavyLight []hlDTO
	// Advisor is the adaptive advisor's state, when enabled; absent
	// from (and ignored in) pre-advisor snapshots — gob tolerates the
	// missing field in both directions.
	Advisor *advisorDTO
}

type advisorDTO struct {
	Hysteresis         float64
	FlipPenalty        float64
	MinObservations    float64
	HalfLife           float64
	SnapshotEvery      int
	StorageBudget      int
	ExtendedStrategies bool
	Views              []advViewDTO
}

type advViewDTO struct {
	Name       string
	Est        costmodel.EstimatorState
	FCache     float64
	FlipScore  float64
	Flips      int
	LastFrom   int
	LastTo     int
	LastReason string
}

type colDTO struct {
	Name string
	Type uint8
}

type relationDTO struct {
	Name   string
	Schema []colDTO
	Meta   relation.Meta
}

type viewDTO struct {
	Def           defDTO
	Strategy      int
	Plan          int
	Blakeley      bool
	SnapshotEvery int
	RefreshEvery  int
	StaleCommits  int
	Dirty         bool
	MatMeta       *relation.Meta
	GroupMeta     *relation.Meta
	HasAgg        bool
	AggPage       storage.PageNum
	ParentPos     int64
	ParentGen     uint64
	LogStart      int64
	LogGen        uint64
	DeltaLog      []viewDeltaDTO
	BaseRels      []string
}

type viewDeltaDTO struct {
	Vals   []valueDTO
	Insert bool
}

type hlCountDTO struct {
	Key string
	N   int64
}

type hlDTO struct {
	Rel       string
	Threshold float64
	MinTotal  int64
	Total     int64
	Counts    []hlCountDTO
	HeavyOps  int64
	LightOps  int64
}

type hrDTO struct {
	Relation string
	ADMeta   hrADMeta
}

// hrADMeta aliases hr's AD metadata type for the DTO.
type hrADMeta = hr.ADMeta

type valueDTO struct {
	Type uint8
	I    int64
	F    float64
	S    string
}

type atomDTO struct {
	IsJoin                 bool
	Rel, Col               int
	Op                     uint8
	Val                    valueDTO
	LRel, LCol, RRel, RCol int
}

type defDTO struct {
	Name       string
	Kind       int
	Relations  []string
	Atoms      []atomDTO
	Project    [][]int
	ViewKeyCol int
	AggKind    uint8
	AggCol     int
	GroupBy    int
}

func schemaToDTO(s *tuple.Schema) []colDTO {
	out := make([]colDTO, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = colDTO{Name: c.Name, Type: uint8(c.Type)}
	}
	return out
}

func schemaFromDTO(cols []colDTO) *tuple.Schema {
	cc := make([]tuple.Column, len(cols))
	for i, c := range cols {
		cc[i] = tuple.Col(c.Name, tuple.Type(c.Type))
	}
	return tuple.NewSchema(cc...)
}

func valueToDTO(v tuple.Value) valueDTO {
	switch v.Type() {
	case tuple.Int:
		return valueDTO{Type: uint8(tuple.Int), I: v.Int()}
	case tuple.Float:
		return valueDTO{Type: uint8(tuple.Float), F: v.Float()}
	default:
		return valueDTO{Type: uint8(tuple.String), S: v.Str()}
	}
}

func valueFromDTO(d valueDTO) tuple.Value {
	switch tuple.Type(d.Type) {
	case tuple.Int:
		return tuple.I(d.I)
	case tuple.Float:
		return tuple.F(d.F)
	default:
		return tuple.S(d.S)
	}
}

func defToDTO(def Def) defDTO {
	dto := defDTO{
		Name:       def.Name,
		Kind:       int(def.Kind),
		Relations:  append([]string(nil), def.Relations...),
		Project:    def.Project,
		ViewKeyCol: def.ViewKeyCol,
		AggKind:    uint8(def.AggKind),
		AggCol:     def.AggCol,
		GroupBy:    def.GroupBy,
	}
	for _, a := range def.Pred.Atoms {
		switch at := a.(type) {
		case pred.Cmp:
			dto.Atoms = append(dto.Atoms, atomDTO{Rel: at.Rel, Col: at.Col, Op: uint8(at.Op), Val: valueToDTO(at.Val)})
		case pred.JoinEq:
			dto.Atoms = append(dto.Atoms, atomDTO{IsJoin: true, LRel: at.LRel, LCol: at.LCol, RRel: at.RRel, RCol: at.RCol})
		}
	}
	return dto
}

func defFromDTO(dto defDTO) (Def, error) {
	atoms := make([]pred.Atom, 0, len(dto.Atoms))
	for _, a := range dto.Atoms {
		if a.IsJoin {
			atoms = append(atoms, pred.JoinEq{LRel: a.LRel, LCol: a.LCol, RRel: a.RRel, RCol: a.RCol})
		} else {
			atoms = append(atoms, pred.Cmp{Rel: a.Rel, Col: a.Col, Op: pred.Op(a.Op), Val: valueFromDTO(a.Val)})
		}
	}
	return Def{
		Name:       dto.Name,
		Kind:       Kind(dto.Kind),
		Relations:  dto.Relations,
		Pred:       pred.New(atoms...),
		Project:    dto.Project,
		ViewKeyCol: dto.ViewKeyCol,
		AggKind:    agg.Kind(dto.AggKind),
		AggCol:     dto.AggCol,
		GroupBy:    dto.GroupBy,
	}, nil
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
	return &MatView{rel: rel, out: out, keyCol: keyCol}, nil
}
