package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"viewmat/internal/agg"
	"viewmat/internal/exec"
	"viewmat/internal/hr"
	"viewmat/internal/pred"
	"viewmat/internal/relation"
	"viewmat/internal/rules"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// Phase labels cost attribution buckets; the engine brackets every
// metered activity with a phase so experiments can split total cost the
// way the paper's formulas do (C_query vs C_refresh vs C_screen vs
// C_AD …).
type Phase string

// Cost attribution phases.
const (
	// PhaseCommitWrite covers applying a transaction's writes to base
	// relations or, for HR-wrapped relations, to the AD file. The
	// paper's C_AD is the portion of this in excess of plain base
	// updates.
	PhaseCommitWrite Phase = "commit-write"
	// PhaseScreen covers the two-stage screening of written tuples
	// (C_screen).
	PhaseScreen Phase = "screen"
	// PhaseImmRefresh covers immediate per-transaction view refresh
	// (C_imm-refresh) and the C3 bookkeeping overhead (C_overhead).
	PhaseImmRefresh Phase = "imm-refresh"
	// PhaseADRead covers reading the AD file for net changes
	// (C_ADread).
	PhaseADRead Phase = "ad-read"
	// PhaseDefRefresh covers deferred refresh work against the
	// materialized view (C_def-refresh).
	PhaseDefRefresh Phase = "def-refresh"
	// PhaseFold covers folding the AD file into the base relation
	// (R := (R∪A)−D). The paper's model does not price this step; it
	// is the base-update I/O the other strategies paid inline, so
	// totals including it are the fair cross-strategy comparison. It
	// is tracked separately so both views of the data are available.
	PhaseFold Phase = "fold"
	// PhaseQuery covers reading query results (C_query).
	PhaseQuery Phase = "query"
)

// Database is the viewmat engine: relations, views, strategies, t-lock
// screening and cost accounting over one simulated disk.
//
// A Database is safe for concurrent use. Concurrency follows the
// paper's read/write asymmetry: view queries that only read (query
// modification without pending join folds, and materialized views that
// are already fresh) run concurrently under a shared lock, while update
// transactions and refreshes hold the lock exclusively. A query that
// finds its view stale upgrades through a per-view single-flight latch
// (see refreshStale), so many readers hitting the same stale deferred
// view trigger exactly one differential refresh. RefreshAll refreshes
// independent stale views in parallel with up to MaxRefreshWorkers
// workers. One Tx must not be shared between goroutines.
type Database struct {
	disk  *storage.Disk
	pool  *storage.Pool
	meter *storage.Meter
	locks *rules.Table

	// mu is the engine lock: RLock for read-only query paths, Lock for
	// transactions, catalog changes and every refresh.
	mu sync.RWMutex

	// dur, when non-nil, is the engine's WAL attachment (durability.go);
	// guarded by mu. All record appends happen under the write lock.
	dur *durability

	clock    atomic.Uint64
	rels     map[string]*relation.Relation
	hrs      map[string]*hr.HR
	views    map[string]*viewState
	hrConfig hr.Config

	// children maps a parent view to the names of views defined over
	// it (sorted); maintained by rebuildChildrenLocked.
	children map[string][]string

	// hierarchyFail, when set, is invoked with the child's name at the
	// start of every child-view drain, and an error it returns aborts the
	// refresh before any row is applied. Only tests set it; guarded by mu.
	hierarchyFail func(view string) error

	// maxRefreshWorkers bounds RefreshAll's worker pool (≤1 = serial).
	maxRefreshWorkers int

	// shareGate, when set, replaces the cost model's share-vs-private
	// decision for every refresh group. Only tests set it, to pin the
	// private path or a forced share as their reference; guarded by mu.
	shareGate func() bool

	// batchSize is the executor batch cap: 0, the vectorized default,
	// except in the tests that pin 1 to run the row-at-a-time executor
	// as their reference. Set before first use, never after.
	batchSize int

	// deltaScans counts base-relation delta-expansion passes (the probe
	// or scan pass a join refresh runs over base files to expand its
	// delta) — one per view when unshared, one per group when shared.
	// adScans counts AD-file net-change reads, one per relation per
	// refresh unit. Both are observability counters for tests and
	// benchmarks; the priced I/O stays in the storage.Meter.
	// pagesPruned counts pages scans skipped via zone maps (summed from
	// captured plan trees; pruned pages are never read or charged).
	deltaScans  atomic.Int64
	adScans     atomic.Int64
	pagesPruned atomic.Int64

	// statsMu guards breakdown and the operation counters, which are
	// bumped from concurrent readers. Phase attribution windows overlap
	// when operations run concurrently, so Breakdown is exact in serial
	// runs and approximate under concurrent load.
	statsMu   sync.Mutex
	breakdown map[Phase]storage.Stats

	// lastRefreshUnits records the per-unit work of the most recent
	// RefreshAll; guarded by statsMu.
	lastRefreshUnits []RefreshUnitStat

	// planObserver, when set, is invoked after every operator-tree
	// execution with the captured plan; guarded by statsMu.
	planObserver func(view, path string, root *exec.PlanNode, delta storage.Stats)

	// flightMu guards inflight, the per-view single-flight refresh
	// latches.
	flightMu      sync.Mutex
	inflight      map[string]*refreshFlight
	flightLeaders atomic.Int64
	flightWaiters atomic.Int64

	// adv, when non-nil, is the online adaptive advisor (adaptive.go).
	// The pointer is written under mu; the estimator state behind it
	// is guarded by its own mutex so read-locked query paths can
	// observe.
	adv *advisor

	// Queries and Commits count operations for averaging; guarded by
	// statsMu while operations are in flight.
	Queries int
	Commits int
}

// viewState is a view plus its runtime materialization.
type viewState struct {
	def      Def
	strategy Strategy
	schemas  []*tuple.Schema

	mat *MatView // SelectProject/Join with Immediate or Deferred

	groups *groupStore // GroupedAggregate materialization

	aggState *agg.State // Aggregate with Immediate or Deferred
	aggFile  *storage.File
	aggPage  storage.PageNum

	plan QueryPlan // default plan for QueryModification

	// blakeley selects the uncorrected delete expansion of [Blak86]
	// for join refresh — the Appendix A anomaly demonstration. Only
	// tests set it (setJoinVariantBlakeley); it persists with the catalog.
	blakeley bool

	// snapshotEvery is the staleness budget (in commits) of a
	// Snapshot view; refreshEvery is a Deferred view's periodic
	// refresh interval (0 = on demand); staleCommits counts commits
	// that touched the view's relations since the last refresh.
	snapshotEvery int
	refreshEvery  int
	staleCommits  int
	// dirty marks a RecomputeOnDemand view whose next read must
	// rebuild ([Bune79]).
	dirty bool

	// refreshes counts completed materialization refreshes (deferred
	// differential refreshes and full recomputes). Written under the
	// engine write lock; tests use it to assert single-flight behavior.
	refreshes int

	// deltaLog is the view's materialized delta log: every row a
	// differential refresh applied to the materialization, in order,
	// kept only while child views are defined over this view. logStart
	// is the absolute position of deltaLog[0]; logGen bumps whenever
	// the log restarts (a recompute), telling children their position
	// is no longer meaningful. See hierarchy.go.
	deltaLog []viewDelta
	logStart int64
	logGen   uint64

	// parentPos/parentGen are a child view's consumed position in (and
	// generation of) its parent's delta log.
	parentPos int64
	parentGen uint64

	// baseRels are the base relations the view transitively depends on
	// (equal to def.Relations for views over base relations).
	baseRels []string

	// plans retains the last executed operator tree per path ("query",
	// "refresh", "populate"); guarded by Database.statsMu because query
	// paths record under the engine read lock.
	plans map[string]*PlanCapture
}

// Options configures a Database.
type Options struct {
	// PageSize in bytes (the paper's B). Default 4000.
	PageSize int
	// PoolFrames is the buffer-pool capacity in pages. Default 256
	// (~1 MB at the default page size, the paper's "very large main
	// memory" that keeps R2 resident during a join).
	PoolFrames int
	// HR sizes the hypothetical relations created for deferred views.
	HR hr.Config
	// MaxRefreshWorkers bounds the worker pool RefreshAll uses to
	// refresh independent stale views in parallel. Values ≤ 1 select
	// serial refresh (the default); the single-view refresh triggered
	// by a query is unaffected.
	MaxRefreshWorkers int
	// SimulatedIOLatency, when non-zero, is slept per physical page
	// transfer (outside the buffer-pool lock), turning metered I/O
	// counts into wall-clock time. Parallel refresh workers then
	// overlap their I/O waits as they would on a real device. Zero
	// (the default) leaves all operations CPU-bound.
	SimulatedIOLatency time.Duration
}

// NewDatabase creates an empty engine.
func NewDatabase(opts Options) *Database {
	db := newDatabase(storage.NewDisk(opts.PageSize), opts.PoolFrames, opts.HR)
	db.maxRefreshWorkers = opts.MaxRefreshWorkers
	db.disk.SetIOLatency(opts.SimulatedIOLatency)
	return db
}

// newDatabase builds an engine with an empty catalog over disk: the
// common start of NewDatabase and of a restore.
func newDatabase(disk *storage.Disk, poolFrames int, hrConfig hr.Config) *Database {
	meter := storage.NewMeter()
	return &Database{
		disk:      disk,
		pool:      storage.NewPool(disk, meter, poolFrames),
		meter:     meter,
		locks:     rules.NewTable(meter),
		rels:      map[string]*relation.Relation{},
		hrs:       map[string]*hr.HR{},
		views:     map[string]*viewState{},
		children:  map[string][]string{},
		hrConfig:  hrConfig,
		breakdown: map[Phase]storage.Stats{},
		inflight:  map[string]*refreshFlight{},
	}
}

// DeltaScanCount returns how many base-relation delta-expansion passes
// refreshes have run since the last ResetStats — per view when
// unshared, per group when shared.
func (db *Database) DeltaScanCount() int64 { return db.deltaScans.Load() }

// ADScanCount returns how many AD-file net-change reads refreshes have
// issued since the last ResetStats (one per relation per refresh unit).
func (db *Database) ADScanCount() int64 { return db.adScans.Load() }

// PagesPruned returns how many pages scans have skipped via zone maps
// since the last ResetStats. Pruned pages were proved irrelevant from
// their footers and never read or charged.
func (db *Database) PagesPruned() int64 { return db.pagesPruned.Load() }

// Meter exposes the cost meter.
func (db *Database) Meter() *storage.Meter { return db.meter }

// execOpts is the executor configuration every planned tree runs
// under: the engine meter plus the configured batch cap.
func (db *Database) execOpts() exec.Options {
	return exec.Options{Meter: db.meter, BatchSize: db.batchSize}
}

// Pool exposes the buffer pool: tests assert it holds no pins, flush it
// and reach pages through it. The engine offers no write-policy knob.
func (db *Database) Pool() *storage.Pool { return db.pool }

// Disk exposes the simulated disk.
func (db *Database) Disk() *storage.Disk { return db.disk }

// Breakdown returns a copy of per-phase cost attribution. Attribution
// windows overlap when operations run concurrently, so the breakdown is
// exact for serial runs and approximate under concurrent load.
func (db *Database) Breakdown() map[Phase]storage.Stats {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	out := make(map[Phase]storage.Stats, len(db.breakdown))
	for k, v := range db.breakdown {
		out[k] = v
	}
	return out
}

// ResetStats zeroes the meter, breakdown and operation counters;
// experiments call it after loading data so measurements exclude setup.
func (db *Database) ResetStats() {
	db.meter.Reset()
	db.deltaScans.Store(0)
	db.adScans.Store(0)
	db.pagesPruned.Store(0)
	db.statsMu.Lock()
	db.breakdown = map[Phase]storage.Stats{}
	db.Queries = 0
	db.Commits = 0
	db.statsMu.Unlock()
}

// bumpQueries increments the query counter (called from concurrent
// read paths).
func (db *Database) bumpQueries() {
	db.statsMu.Lock()
	db.Queries++
	db.statsMu.Unlock()
}

// bumpCommits increments the commit counter.
func (db *Database) bumpCommits() {
	db.statsMu.Lock()
	db.Commits++
	db.statsMu.Unlock()
}

// nextID returns a fresh monotone tuple id (the HR scheme's clock).
func (db *Database) nextID() uint64 {
	return db.clock.Add(1)
}

// inPhase runs fn and attributes its metered cost to the phase.
func (db *Database) inPhase(p Phase, fn func() error) error {
	before := db.meter.Snapshot()
	err := fn()
	delta := db.meter.Snapshot().Sub(before)
	db.statsMu.Lock()
	db.breakdown[p] = db.breakdown[p].Add(delta)
	db.statsMu.Unlock()
	return err
}

// --- schema objects -------------------------------------------------------

// CreateRelationBTree creates a base relation clustered by B+-tree on
// keyCol.
func (db *Database) CreateRelationBTree(name string, schema *tuple.Schema, keyCol int) (*relation.Relation, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.rels[name]; dup {
		return nil, fmt.Errorf("core: relation %q exists", name)
	}
	r, err := relation.NewBTree(db.disk, db.pool, name, schema, keyCol)
	if err != nil {
		return nil, err
	}
	db.rels[name] = r
	return r, db.catalogCheckpointLocked()
}

// CreateRelationHash creates a base relation clustered by hashing on
// keyCol with the given primary bucket count.
func (db *Database) CreateRelationHash(name string, schema *tuple.Schema, keyCol, buckets int) (*relation.Relation, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.rels[name]; dup {
		return nil, fmt.Errorf("core: relation %q exists", name)
	}
	r, err := relation.NewHash(db.disk, db.pool, name, schema, keyCol, buckets)
	if err != nil {
		return nil, err
	}
	db.rels[name] = r
	return r, db.catalogCheckpointLocked()
}

// CreateSecondaryIndex adds a secondary index on col of a base
// relation. Existing tuples are indexed immediately; the index
// persists through checkpoints like the rest of the physical design.
func (db *Database) CreateSecondaryIndex(rel string, col int) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.rels[rel]
	if !ok {
		return fmt.Errorf("core: unknown relation %q", rel)
	}
	if err := r.AddSecondary(col); err != nil {
		return err
	}
	return db.catalogCheckpointLocked()
}

// Relation returns a base relation by name.
func (db *Database) Relation(name string) (*relation.Relation, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.rels[name]
	return r, ok
}

// HR returns the hypothetical relation wrapping name, if any.
func (db *Database) HR(name string) (*hr.HR, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	h, ok := db.hrs[name]
	return h, ok
}

// CreateView registers a view with the given maintenance strategy and
// attaches what that strategy needs (strategy.go). Deferred views wrap
// each of their base relations in a hypothetical relation (creating it
// on first need). Mixing Deferred views with Immediate, Snapshot or
// RecomputeOnDemand views over the same base relation is rejected with
// ErrStrategyConflict: the strategies disagree about when the base
// files reflect pending changes. A view
// whose single source names another materialized view becomes a child
// in a view hierarchy (see hierarchy.go).
func (db *Database) CreateView(def Def, strategy Strategy) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.createViewLocked(def, strategy)
}

func (db *Database) createViewLocked(def Def, strategy Strategy) error {
	if _, dup := db.views[def.Name]; dup {
		return fmt.Errorf("%w: view %q exists", ErrDuplicateView, def.Name)
	}
	if !strategy.Valid() {
		return fmt.Errorf("core: view %q: unknown strategy %d", def.Name, int(strategy))
	}
	parent, err := db.checkHierarchyLocked(def)
	if err != nil {
		return err
	}
	var schemas []*tuple.Schema
	if parent != nil {
		// A child view's single input schema is its parent's output.
		schemas = []*tuple.Schema{parent.def.OutputSchema(parent.schemas)}
	} else {
		schemas = make([]*tuple.Schema, 0, len(def.Relations))
		for _, rn := range def.Relations {
			schemas = append(schemas, db.rels[rn].Schema())
		}
	}
	if err := def.Validate(schemas); err != nil {
		return err
	}
	vs := &viewState{def: def, strategy: strategy, schemas: schemas, plan: PlanAuto}
	if err := db.strategyConflictLocked(vs, strategy); err != nil {
		return err
	}
	if err := db.attachLocked(vs, strategyRow{}); err != nil {
		return err
	}
	vs.baseRels = db.baseRelsOfLocked(def)
	db.views[def.Name] = vs
	db.rebuildChildrenLocked()
	// Catalog changes are checkpointed, not logged: every later WAL
	// record replays over a snapshot that already knows this view.
	return db.catalogCheckpointLocked()
}

func dependsOn(vs *viewState, rel string) bool {
	for _, rn := range vs.def.Relations {
		if rn == rel {
			return true
		}
	}
	return false
}

// View returns a view's definition and strategy.
func (db *Database) View(name string) (Def, Strategy, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	vs, ok := db.views[name]
	if !ok {
		return Def{}, 0, false
	}
	return vs.def, vs.strategy, true
}

// ViewNames returns all view names, sorted.
func (db *Database) ViewNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.viewNamesLocked()
}

// viewNamesLocked is ViewNames for callers already holding db.mu.
func (db *Database) viewNamesLocked() []string { return sortedKeys(db.views) }

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortViewsByName(views []*viewState) {
	sort.Slice(views, func(i, j int) bool { return views[i].def.Name < views[j].def.Name })
}

// SetDefaultPlan sets the default query-modification plan for a view.
func (db *Database) SetDefaultPlan(view string, plan QueryPlan) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	vs, ok := db.views[view]
	if !ok {
		return fmt.Errorf("core: unknown view %q", view)
	}
	vs.plan = plan
	return db.catalogCheckpointLocked()
}

// DropView removes a view together with everything its strategy
// attached: its t-locks, its materialization, and any hypothetical
// relation no other deferred view still needs (pending AD changes are
// folded into the base file first).
func (db *Database) DropView(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	vs, ok := db.views[name]
	if !ok {
		return fmt.Errorf("core: unknown view %q", name)
	}
	if kids := db.children[name]; len(kids) > 0 {
		return fmt.Errorf("%w: %q has children %v", ErrHasChildren, name, kids)
	}
	if err := db.detachLocked(vs, strategyRow{}); err != nil {
		return err
	}
	delete(db.views, name)
	db.rebuildChildrenLocked()
	return db.catalogCheckpointLocked()
}

// joinCol returns the join atom's column for the given relation slot.
func joinCol(j pred.JoinEq, slot int) int {
	if j.LRel == slot {
		return j.LCol
	}
	return j.RCol
}
