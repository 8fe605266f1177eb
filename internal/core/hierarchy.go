package core

import (
	"errors"
	"fmt"

	"viewmat/internal/agg"
	"viewmat/internal/costmodel"
	"viewmat/internal/exec"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// View hierarchies: views defined over other views, maintained in the
// DBToaster style ([AhKo12], PAPERS.md) — a parent's differential
// refresh appends the rows it applied to a per-view delta log, and each
// child view replays the unseen suffix of that log through its own
// apply pipeline instead of recomputing from the parent. The log is a
// higher-order delta: it was already screened, projected and
// duplicate-counted by the parent, so a child consumes it exactly as it
// would a base-relation net-change stream, except that polarity order
// must be preserved (see exec.NewViewDeltaScan).
//
// The hierarchy is a DAG by construction: CreateView requires parents
// to exist, and the batch API CreateViews topologically orders forward
// references and rejects cycles. Children are restricted to
// single-source kinds (select-project, scalar aggregate, grouped
// aggregate) over materialized parents; join views always read base
// relations.

// Typed hierarchy DDL errors. DDL over views fails with one of these
// (wrapped with context), never a panic — FuzzHierarchyDDL pins that.
var (
	// ErrUnknownSource marks a definition referencing a name that is
	// neither a base relation nor an existing view (dangling parents,
	// self-references outside a batch).
	ErrUnknownSource = errors.New("core: view references unknown source")
	// ErrParentNotMaterialized rejects children over query-modification
	// parents: a QM view has no stored rows and therefore no deltas.
	ErrParentNotMaterialized = errors.New("core: parent view is not materialized")
	// ErrParentScalar rejects children over scalar aggregate views;
	// their single value lives in an agg page, not a row store.
	ErrParentScalar = errors.New("core: scalar aggregate view cannot be a parent")
	// ErrChildJoin rejects join views over views: the delta expansion
	// of §2.1 is defined against base relations.
	ErrChildJoin = errors.New("core: join views cannot be defined over views")
	// ErrHierarchyCycle rejects a CreateViews batch whose definitions
	// form a dependency cycle.
	ErrHierarchyCycle = errors.New("core: view definitions form a cycle")
	// ErrHasChildren rejects dropping a view other views are defined
	// over.
	ErrHasChildren = errors.New("core: view has dependent child views")
	// ErrDuplicateView marks a name collision: two definitions in one
	// batch, or a definition colliding with the live catalog.
	ErrDuplicateView = errors.New("core: duplicate view name")
	// ErrStrategyConflict rejects a base relation feeding both a
	// deferred view and a strategy that reads base files at its own
	// cadence (see CreateView).
	ErrStrategyConflict = errors.New("core: conflicting refresh strategies over one relation")
)

// viewDelta is one logged parent-delta entry: the applied output row
// and its polarity, in application order.
type viewDelta struct {
	vals   []tuple.Value
	insert bool
}

// ViewSpec pairs a definition with its maintenance strategy for the
// batch DDL API.
type ViewSpec struct {
	Def      Def
	Strategy Strategy
}

// CreateViews registers a batch of views that may reference each other
// in any order: definitions are topologically sorted so parents are
// created before children, and a dependency cycle fails the whole
// batch with ErrHierarchyCycle before anything is registered. A
// mid-batch failure leaves the views already created in place.
func (db *Database) CreateViews(specs []ViewSpec) error {
	db.lock()
	defer db.mu.Unlock()
	order, err := topoSpecOrder(specs)
	if err != nil {
		return err
	}
	for _, i := range order {
		if err := db.createViewLocked(specs[i].Def, specs[i].Strategy); err != nil {
			return err
		}
	}
	return nil
}

// topoSpecOrder orders the batch parents-first by depth-first search
// over intra-batch references. Names not in the batch resolve against
// the live catalog later; a grey-node revisit is a cycle.
func topoSpecOrder(specs []ViewSpec) ([]int, error) {
	idx := make(map[string]int, len(specs))
	for i, sp := range specs {
		if _, dup := idx[sp.Def.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate view %q in batch", ErrDuplicateView, sp.Def.Name)
		}
		idx[sp.Def.Name] = i
	}
	const (
		white = iota
		grey
		black
	)
	state := make([]int, len(specs))
	order := make([]int, 0, len(specs))
	var visit func(i int) error
	visit = func(i int) error {
		switch state[i] {
		case grey:
			return fmt.Errorf("%w: via %q", ErrHierarchyCycle, specs[i].Def.Name)
		case black:
			return nil
		}
		state[i] = grey
		for _, rn := range specs[i].Def.Relations {
			if j, ok := idx[rn]; ok {
				if err := visit(j); err != nil {
					return err
				}
			}
		}
		state[i] = black
		order = append(order, i)
		return nil
	}
	for i := range specs {
		if err := visit(i); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// checkHierarchyLocked resolves a definition's sources and validates
// the hierarchy constraints. It returns the parent view state when the
// definition is a child view, nil when it reads only base relations.
func (db *Database) checkHierarchyLocked(def Def) (*viewState, error) {
	viewParent := false
	for _, rn := range def.Relations {
		if _, ok := db.rels[rn]; ok {
			continue
		}
		if _, ok := db.views[rn]; ok {
			viewParent = true
			continue
		}
		return nil, fmt.Errorf("%w: view %q references %q", ErrUnknownSource, def.Name, rn)
	}
	if !viewParent {
		return nil, nil
	}
	if len(def.Relations) != 1 || def.Kind == Join {
		return nil, fmt.Errorf("%w: view %q", ErrChildJoin, def.Name)
	}
	p := db.views[def.Relations[0]]
	if p.def.Kind == Aggregate {
		return nil, fmt.Errorf("%w: view %q over %q", ErrParentScalar, def.Name, p.def.Name)
	}
	if p.mat == nil && p.groups == nil {
		return nil, fmt.Errorf("%w: view %q over %q", ErrParentNotMaterialized, def.Name, p.def.Name)
	}
	return p, nil
}

// parentOf returns the parent view state of a child view, nil for
// views over base relations. Caller holds db.mu.
func (db *Database) parentOf(vs *viewState) *viewState {
	if len(vs.def.Relations) != 1 {
		return nil
	}
	rn := vs.def.Relations[0]
	if _, ok := db.rels[rn]; ok {
		return nil
	}
	return db.views[rn]
}

// baseRelsOfLocked computes the base relations a definition
// transitively depends on. Parents are registered before children, so
// a child copies its parent's already-computed set.
func (db *Database) baseRelsOfLocked(def Def) []string {
	if len(def.Relations) == 1 {
		if _, ok := db.rels[def.Relations[0]]; !ok {
			if p, ok := db.views[def.Relations[0]]; ok {
				return append([]string(nil), p.baseRels...)
			}
		}
	}
	return append([]string(nil), def.Relations...)
}

// rebuildChildrenLocked recomputes the parent→children adjacency from
// the catalog. Child lists inherit viewNamesLocked's sorted order.
func (db *Database) rebuildChildrenLocked() {
	db.children = map[string][]string{}
	for _, n := range db.viewNamesLocked() {
		vs := db.views[n]
		if p := db.parentOf(vs); p != nil {
			db.children[p.def.Name] = append(db.children[p.def.Name], n)
		}
	}
}

// viewDepth is the number of view edges between vs and its base
// relations: 0 for base views, 1 for their children, and so on.
func (db *Database) viewDepth(vs *viewState) int {
	d := 0
	for p := db.parentOf(vs); p != nil; p = db.parentOf(p) {
		d++
	}
	return d
}

// childLevelsLocked returns every child view name grouped by depth,
// ascending, names sorted within a level — the topological order
// RefreshAll's hierarchy pass and the immediate cascade walk.
func (db *Database) childLevelsLocked() [][]string {
	byDepth := map[int][]string{}
	maxD := 0
	for _, n := range db.viewNamesLocked() {
		vs := db.views[n]
		d := db.viewDepth(vs)
		if d == 0 {
			continue
		}
		byDepth[d] = append(byDepth[d], n)
		if d > maxD {
			maxD = d
		}
	}
	levels := make([][]string, 0, maxD)
	for d := 1; d <= maxD; d++ {
		levels = append(levels, byDepth[d])
	}
	return levels
}

// logEnd is the absolute position one past the view's last logged
// delta.
func (vs *viewState) logEnd() int64 { return vs.logStart + int64(len(vs.deltaLog)) }

// childPending reports whether the parent's delta log holds entries
// this child has not consumed (or the parent's log restarted under a
// recompute, which obliges the child to recompute too).
func (db *Database) childPending(vs *viewState) bool {
	p := db.parentOf(vs)
	if p == nil {
		return false
	}
	return vs.parentGen != p.logGen || vs.parentPos < p.logEnd()
}

// parentScanOp is the charged scan of a parent view's current logical
// contents — a child's source in a derivation: duplicate-expanded
// matview rows, or one (group, value) row per live group for
// grouped-aggregate parents (a group whose aggregate is undefined
// stands for no row).
func (db *op) parentScanOp(p *viewState) exec.Operator {
	label := exec.Label{"ParentScan(", p.def.Name, ")"}
	if p.mat != nil {
		return p.mat.scanOp(db.execOpts(), label, nil, true)
	}
	kind := p.def.AggKind
	name := p.def.Name
	groupValues := func(cols []vec.Col) ([]vec.Col, []int64, error) {
		// A group row is (group, count, sum, sumSq, extreme): rowOf.
		if len(cols) != 5 {
			return nil, nil, &StoredCorruptError{View: name, Detail: fmt.Sprintf("group rows of %d columns, want 5", len(cols))}
		}
		for c, t := range [...]tuple.Type{tuple.Int, tuple.Float, tuple.Float, tuple.Float} {
			if err := checkLane(name, cols, c+1, t); err != nil {
				return nil, nil, err
			}
		}
		var vals vec.Col
		mult := make([]int64, cols[0].Len())
		out := vals.GrowFloats(len(mult))
		for i := range mult {
			s := agg.NewState(kind)
			s.Restore(cols[1].Ints[i], cols[2].Floats[i], cols[3].Floats[i], cols[4].Floats[i])
			if v, ok := s.Value(); ok {
				out[i], mult[i] = v, 1
			}
		}
		return []vec.Col{cols[0], vals}, mult, nil
	}
	return exec.NewStoredScan(db.execOpts(), label, p.groups, nil, groupValues, true)
}

// logPosition is what sibling children must agree on to drain one
// replay of their parent's log.
type logPosition struct {
	parent string
	gen    uint64
	pos    int64
}

func logPositionOf(vs *viewState) logPosition {
	return logPosition{vs.def.Relations[0], vs.parentGen, vs.parentPos}
}

// drainChildrenLocked brings children standing at one position of their
// (fresh) parent's delta log current: replay the unseen suffix through
// each child's apply tree as one refresh group, or recompute when the
// log restarted (generation bump) or the cost model says a fresh scan
// of the parent is cheaper. Caller holds the write lock.
func (db *op) drainChildrenLocked(views []*viewState, parent *viewState) error {
	if db.hierarchyFail != nil {
		for _, vs := range views {
			if err := db.hierarchyFail(vs.def.Name); err != nil {
				return err
			}
		}
	}
	at := views[0]
	restarted := at.parentGen != parent.logGen || at.parentPos < parent.logStart
	pending := int(parent.logEnd() - at.parentPos)
	if !restarted && pending <= 0 {
		return nil
	}
	if restarted || !db.childDrainEstimateLocked(parent, pending).Drain(costmodel.Default()) {
		for _, vs := range views {
			if err := db.recomputeView(vs); err != nil {
				return err
			}
		}
	} else if err := db.refreshGroup(views, deltaFeed{
		fp:      exec.DeltaFingerprint{Kind: "viewdelta", Rel1: parent.def.Name},
		parent:  parent,
		from:    at.parentPos,
		counted: true,
	}); err != nil {
		return err
	}
	// The children moved past the suffix they pinned.
	db.compactDeltaLogLocked(parent)
	return nil
}

// childDrainEstimateLocked assembles the drain-vs-recompute estimate
// for maintaining one child from deltaRows pending log entries.
func (db *Database) childDrainEstimateLocked(parent *viewState, deltaRows int) costmodel.HierarchyDeltaEstimate {
	est := costmodel.HierarchyDeltaEstimate{DeltaRows: deltaRows, Children: 1}
	if parent.mat != nil {
		est.ParentRows = parent.mat.DistinctRows()
		est.ParentPages = float64(parent.mat.Pages())
	} else if parent.groups != nil {
		est.ParentRows = parent.groups.Len()
		est.ParentPages = float64(parent.groups.Pages())
	}
	return est
}

// cascadeImmediateChildrenLocked drains every pending commit-triggered
// child whose parent is fresh, level by level — the commit-time half of
// the hierarchy: an immediate parent's refresh grows its log inside the
// commit, and its immediate children consume it before the commit
// returns. Runs inside applyOps, so WAL replay reproduces it from the
// commit record alone.
func (db *op) cascadeImmediateChildrenLocked() error {
	for _, level := range db.childLevelsLocked() {
		for _, n := range level {
			vs := db.views[n]
			if vs.row().trigger != onCommit || !db.childPending(vs) {
				continue
			}
			parent := db.parentOf(vs)
			if db.viewStale(parent) {
				continue
			}
			err := db.inPhase(PhaseImmRefresh, func() error {
				return db.drainChildrenLocked([]*viewState{vs}, parent)
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// staleChildUnitsLocked is RefreshAll's work at one hierarchy level,
// after the levels above refreshed: stale differential children at the
// same log position of the same parent form one unit and share one
// replay of the pending suffix; snapshot/on-demand children refresh
// individually by their own rule, ahead of the drains.
func (db *Database) staleChildUnitsLocked(level []string) []refreshUnit {
	var units []refreshUnit
	var draining []*viewState
	for _, n := range level {
		vs := db.views[n]
		if !db.viewStale(vs) {
			continue
		}
		if vs.row().delta {
			draining = append(draining, vs)
		} else {
			units = append(units, refreshUnit{views: []*viewState{vs}})
		}
	}
	for _, g := range groupViews(draining, logPositionOf) {
		units = append(units, refreshUnit{views: g})
	}
	return units
}

// compactDeltaLogLocked trims the parent's log below the minimum
// position any differential child still needs. Children on other
// strategies never read the log (they recompute from the parent's
// contents), so they do not pin it; a generation-mismatched child will
// recompute and resync, so it does not pin it either. It runs inside
// the refresh that made the trim possible — after a view's own refresh
// appended (refreshGroup), after children consumed (drainChildrenLocked)
// — so WAL replay, which re-runs those refreshes, trims identically.
func (db *Database) compactDeltaLogLocked(parent *viewState) {
	min := parent.logEnd()
	for _, cn := range db.children[parent.def.Name] {
		c := db.views[cn]
		if c.row().delta && c.parentGen == parent.logGen && c.parentPos < min {
			min = c.parentPos
		}
	}
	if min > parent.logStart {
		parent.deltaLog = append([]viewDelta(nil), parent.deltaLog[min-parent.logStart:]...)
		parent.logStart = min
	}
}

// ViewChildren returns the names of the views defined directly over
// the named view, sorted.
func (db *Database) ViewChildren(name string) ([]string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if _, ok := db.views[name]; !ok {
		return nil, fmt.Errorf("core: unknown view %q", name)
	}
	return append([]string(nil), db.children[name]...), nil
}
