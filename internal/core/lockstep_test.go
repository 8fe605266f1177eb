package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/costmodel"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/tuple/tupletest"
)

// The property harness. The paper's comparison rests on the strategies
// being observationally equivalent and differing only in cost, and the
// engine adds sharing, batching, an online advisor and recovery, none
// of which may change an answer or a stored byte. Every
// such claim is one row of lockstepTable: a fixture (a catalog), engine
// configs built over it, and relations that must hold between those
// engines at every query point of a seeded random script. One step
// type, one generator, one shrinker, one runner; a failure prints the
// fixture and a minimal script. DESIGN.md "Property harness" holds the
// table in prose.

// --- seams -------------------------------------------------------------------
//
// The test-only switches of the engine. Production code reads the fields
// they set; nothing outside this package's tests can reach them.

// setBatch1 caps a fresh engine's batches at one row: every operator,
// filter kernels included, runs its vectorized code over one-row
// batches.
func setBatch1(db *Database) { db.batchSize = 1 }

// Settings of the share gate: the engine's own cost-model choice, every
// refresh group private (the pre-sharing reference), or every eligible
// group shared regardless of the estimate.
var (
	gateModel   func() bool
	gatePrivate = func() bool { return false }
	gateForced  = func() bool { return true }
)

func setShareGate(db *Database, gate func() bool) {
	db.mu.Lock()
	db.shareGate = gate
	db.mu.Unlock()
}

func gated(gate func() bool) func(*Database) {
	return func(db *Database) { setShareGate(db, gate) }
}

// setHierarchyFailpoint installs (nil clears) a hook run with the
// child's name at the start of every child drain; an error aborts the
// refresh before any row is applied.
func setHierarchyFailpoint(db *Database, fn func(view string) error) {
	db.mu.Lock()
	db.hierarchyFail = fn
	db.mu.Unlock()
}

// --- steps, generator, shrinker ------------------------------------------------

// step is one step of a script. Steps are self-contained and
// deterministic, so a script replays identically however often the
// shrinker re-runs it: inserts carry their values, deletes and updates
// pick a victim by index into the relation's current live-tuple list.
// Mutations queue in an open transaction; "commit" ends it, and so does
// every query, tick and refresh step.
type step struct {
	op       string // "ins", "del", "upd", "commit", "query", "tick", "refresh"
	rel      int    // a mutation's target: index into the fixture's rels
	key, val int64
	idx      int
}

func (s step) String() string {
	on := ""
	if s.rel > 0 {
		on = fmt.Sprintf(" rel=%d", s.rel)
	}
	switch s.op {
	case "ins":
		return fmt.Sprintf("ins%s key=%d val=%d", on, s.key, s.val)
	case "del":
		return fmt.Sprintf("del%s idx=%d", on, s.idx)
	case "upd":
		return fmt.Sprintf("upd%s idx=%d key=%d val=%d", on, s.idx, s.key, s.val)
	}
	return s.op
}

func formatScript(steps []step) string {
	lines := make([]string, len(steps))
	for i, s := range steps {
		lines[i] = fmt.Sprintf("  %2d: %s", i, s)
	}
	return strings.Join(lines, "\n")
}

// phaseMix is the shape of one phase of a script.
type phaseMix struct {
	rounds  int
	txEvery int    // > 0: one transaction every txEvery rounds; < 0: -txEvery transactions a round
	ops     [2]int // mutations per transaction, lo..hi
	split   bool   // commit after every mutation: each is its own transaction
	queries int    // query points per round; 0 = one every second round
	advisor bool   // a refresh step on rounds ≡ 3 mod 7 and a tick after every round
	refresh bool   // a refresh step between the transactions and the queries of every odd round
}

// churn is rounds of 1–3 single-mutation transactions and a query point.
func churn(rounds int) []phaseMix {
	return []phaseMix{{rounds: rounds, txEvery: 1, ops: [2]int{1, 3}, split: true, queries: 1}}
}

// The advisor's two phases sit deep in the analytic regions where
// materialization (low P) respectively query modification (high P)
// wins, so the oracle verdict is stable across seeds.
var (
	queryHeavy  = phaseMix{rounds: 30, txEvery: 5, ops: [2]int{2, 2}, queries: 6, advisor: true}
	updateHeavy = phaseMix{rounds: 40, txEvery: -4, ops: [2]int{3, 3}, advisor: true}
)

// genScript draws the phases in turn; key draws the next key for a
// relation (uniform from rng, or a skewed stream). starts[i] is the
// index of phase i's first step.
func genScript(rng *rand.Rand, key func(rel int) int64, nrels int, phases ...phaseMix) (steps []step, starts []int) {
	for _, mix := range phases {
		starts = append(starts, len(steps))
		// A ranged bound is redrawn on every pass of the loop it bounds;
		// the seeds' scripts are pinned to that draw order.
		more := func(i int) bool {
			if mix.ops[1] == mix.ops[0] {
				return i < mix.ops[0]
			}
			return i < mix.ops[0]+rng.Intn(mix.ops[1]-mix.ops[0]+1)
		}
		for r := 0; r < mix.rounds; r++ {
			txs := 0
			switch {
			case mix.txEvery < 0:
				txs = -mix.txEvery
			case r%mix.txEvery == 0:
				txs = 1
			}
			for ; txs > 0; txs-- {
				for i := 0; more(i); i++ {
					var s step
					if nrels > 1 && rng.Intn(3) == 0 {
						s.rel = 1
					}
					switch rng.Intn(3) {
					case 0:
						s.op, s.key, s.val = "ins", key(s.rel), rng.Int63n(50)
					case 1:
						s.op, s.idx = "del", rng.Intn(1<<20)
					case 2:
						s.op, s.idx, s.key, s.val = "upd", rng.Intn(1<<20), key(s.rel), rng.Int63n(50)
					}
					steps = append(steps, s)
					if mix.split {
						steps = append(steps, step{op: "commit"})
					}
				}
				if !mix.split {
					steps = append(steps, step{op: "commit"})
				}
			}
			if mix.refresh && r%2 == 1 {
				steps = append(steps, step{op: "refresh"})
			}
			nq := mix.queries
			if nq == 0 && r%2 == 0 {
				nq = 1
			}
			for ; nq > 0; nq-- {
				steps = append(steps, step{op: "query"})
			}
			if mix.advisor {
				if r%7 == 3 {
					steps = append(steps, step{op: "refresh"})
				}
				steps = append(steps, step{op: "tick"})
			}
		}
	}
	return steps, starts
}

// shrinkScript removes chunks of halving size, then single steps until
// none can go, for as long as the script still fails.
func shrinkScript(steps []step, fails func([]step) bool) []step {
	out := append([]step(nil), steps...)
	for chunk := (len(out) + 1) / 2; chunk >= 1; {
		removed := false
		for i := 0; i+chunk <= len(out); {
			cand := append(append([]step(nil), out[:i]...), out[i+chunk:]...)
			if fails(cand) {
				out, removed = cand, true
			} else {
				i += chunk
			}
		}
		if chunk > 1 || !removed {
			chunk /= 2
		}
	}
	return out
}

// --- fixtures ------------------------------------------------------------------

// fixture is a catalog: seeded base relations and the views over them.
// The base is r(k, a, s) with n rows, or — when m > 0 — r1(k, jv, p) with
// n rows joined to r2(jv, info) with m rows. With floatGroups r's second
// column is a FLOAT drawn from {0.0, -0.0, 1.0} and, for every seventh
// value, NaN of two payloads: a grouping column on which distinct values
// are one group.
type fixture struct {
	name        string
	n, m        int
	floatGroups bool
	rels        []string // the relations scripts mutate; step.rel indexes it
	keySpace    []int64  // per mutated relation, for the uniform key stream
	keys        []int64  // when set, keys cycle through this stream instead
	views       []Def
	drawn       []Strategy // per-view strategies of configs that ask for them
	// siblings are created beside the views under their own strategies
	// and never read, so a query point folds nothing they leave pending.
	siblings []ViewSpec
	describe string // printed with a failure
}

func spFx(name string, n int, keySpace int64, views ...Def) *fixture {
	return &fixture{name: name, n: n, rels: []string{"r"}, keySpace: []int64{keySpace}, views: views}
}

func joinFx(name string, n, m int, keySpace int64, views ...Def) *fixture {
	return &fixture{name: name, n: n, m: m, rels: []string{"r1"}, keySpace: []int64{keySpace}, views: views}
}

// twoSidedFx also mutates r2: keys 0..7 are the seeded join partners
// (so an insert duplicates one and a delete orphans r1 rows), 8..11
// dangle. That reaches all six delta terms of the corrected expansion
// (§2.1), the R2-side ones included.
func twoSidedFx() *fixture {
	fx := joinFx("model2-two-sided", 30, 8, 90, joinDef("j"))
	fx.rels, fx.keySpace = []string{"r1", "r2"}, []int64{90, 12}
	return fx
}

// groupedFx is a GROUP BY over the float column, MIN so that deleting a
// group's extreme recomputes it, or SUM.
func groupedFx(kind agg.Kind, n int) *fixture {
	fx := spFx("grouped-"+kind.String(), n, 40, gaDef("g", kind))
	fx.floatGroups = true
	return fx
}

func model1Fx() *fixture { return spFx("model1", 30, 40, spDef("v")) }

// qmPendingFx is every kind that query modification reads through the
// pending overlay — select-project, SUM, MIN, grouped SUM — beside a
// deferred sibling that parks every commit in r's AD file. Nothing reads
// the sibling, so nothing folds: each query point reads (R ∪ A) − D.
func qmPendingFx() *fixture {
	fx := spFx("qm-pending", 30, 40, spDef("qsp"), aggDef("qsum", agg.Sum), aggDef("qmin", agg.Min), gaDef("qg", agg.Sum))
	fx.siblings = []ViewSpec{{Def: spDef("def"), Strategy: Deferred}}
	return fx
}

// chainFx is v over r and two children over v, which stand at one
// position of its delta log whenever they were refreshed together.
func chainFx() *fixture {
	return spFx("chain", 30, 40, spDef("v"), childSPDef("c1", "v", 12, 20), childSPDef("c2", "v", 15, 28))
}
func model2Fx() *fixture { return joinFx("model2", 30, 8, 90, joinDef("j")) }
func model3Fx(kind agg.Kind) *fixture {
	return spFx("model3-"+kind.String(), 30, 40, aggDef("sumv", kind))
}

// fanFx is K=3 views with differing predicates over one model's base,
// the shape shared-delta refresh groups form over.
func fanFx(model int) *fixture {
	between := func(d Def, lo, hi int64) Def {
		d.Pred = pred.New(
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(lo)},
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(hi)},
		)
		return d
	}
	below := func(d Def, hi int64) Def {
		d.Pred = pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(hi)})
		return d
	}
	name := fmt.Sprintf("fan%d", model)
	switch model {
	case 1:
		c := below(spDef("c"), 60)
		c.Project = [][]int{{0}}
		return spFx(name, 30, 40, spDef("a"), between(spDef("b"), 5, 45), c)
	case 2:
		return joinFx(name, 30, 8, 90, fanJoinDef("j0", 0, 100), fanJoinDef("j1", 0, 50), fanJoinDef("j2", 20, 80))
	default:
		return spFx(name, 30, 40, aggDef("a0", agg.Sum), between(aggDef("a1", agg.Min), 5, 45), below(aggDef("a2", agg.Count), 60))
	}
}

// adaptiveFx is the model's fixture at the advisor's scale: 150 rows
// and a view over a third (Models 1, 3) or two thirds (Model 2) of the
// key range, so the two phases land deep inside their regions.
func adaptiveFx(model int) *fixture {
	wide := func(d Def) Def {
		d.Pred = pred.New(
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(10)},
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(60)},
		)
		return d
	}
	name := fmt.Sprintf("adaptive%d", model)
	switch model {
	case 2:
		return joinFx(name, 150, 10, 150, joinDef("v"))
	case 3:
		return spFx(name, 150, 150, wide(aggDef("v", agg.Sum)))
	default:
		return spFx(name, 150, 150, wide(spDef("v")))
	}
}

func static(fx *fixture) func(*rand.Rand, int64) *fixture {
	return func(*rand.Rand, int64) *fixture { return fx }
}

// vals builds a mutation's tuple for the rel-th mutated relation.
func (fx *fixture) vals(rel int, key, val int64) []tuple.Value {
	switch {
	case fx.floatGroups:
		g := []float64{0, math.Copysign(0, -1), 1}[val%3]
		if val%7 == 6 {
			g = []float64{math.NaN(), math.Float64frombits(0x7ff8dead0000beef)}[val/7%2]
		}
		return []tuple.Value{tuple.I(key), tuple.F(g), tuple.S(sName(int(val)))}
	case fx.m == 0:
		return []tuple.Value{tuple.I(key), tuple.I(val), tuple.S(sName(int(val)))}
	case rel == 0:
		return []tuple.Value{tuple.I(key), tuple.I(val % int64(fx.m)), tuple.S("p" + sName(int(val)))}
	default:
		return []tuple.Value{tuple.I(key), tuple.S("info" + sName(int(val)))}
	}
}

// keyStream returns the generator's key source for this fixture.
func (fx *fixture) keyStream(rng *rand.Rand) func(rel int) int64 {
	if fx.keys == nil {
		return func(rel int) int64 { return rng.Int63n(fx.keySpace[rel]) }
	}
	next := 0
	return func(int) int64 {
		next++
		return fx.keys[(next-1)%len(fx.keys)]
	}
}

// inPred reports whether a tuple of the first mutated relation with
// this key passes the first view's restrictions on it.
func (fx *fixture) inPred(key int64) bool {
	return fx.views[0].Pred.EvalSingle(0, tuple.Tuple{Vals: fx.vals(0, key, 0)})
}

// --- engines -------------------------------------------------------------------

// engineConfig is one way to run a fixture.
type engineConfig struct {
	name  string
	opts  Options           // zero: testOpts()
	seams []func(*Database) // applied to the fresh engine, before any page is written

	strategy Strategy // of every view...
	drawn    bool     // ...unless set: the fixture's own per-view strategies

	// Applied once the catalog exists.
	snapshotEvery int  // staleness budget of Snapshot views; 0 keeps them comparable to the consistent strategies
	adaptive      bool // the online advisor; tick steps act on this engine, and refresh steps on it and on wal engines
	wal           bool // durability on in-memory devices, checkpointing every ckptEvery commits (0 = never)
	ckptEvery     int

	refreshAll bool // a query point runs RefreshAll before it reads

	// reference: not an engine at all. The script's tuples are kept in Go
	// slices and every view is evaluated over them in plain Go at each
	// query point (the reference type below): the one oracle that shares
	// no planner or executor code with the engines it is compared to.
	reference bool
}

// referenceConfig is the plain-Go evaluator as a row's last config.
var referenceConfig = engineConfig{name: "reference", reference: true}

func plain(sts ...Strategy) []engineConfig {
	out := make([]engineConfig, len(sts))
	for i, st := range sts {
		out[i] = engineConfig{name: st.String(), strategy: st}
	}
	return out
}

type liveRow struct {
	key int64
	id  uint64
}

// answer is one view read once at a query point — once, because
// strategies that charge at query time (QM screens, on-demand
// recomputes, zero-interval snapshots) must be billed the same number of
// reads on every engine for a meter relation to mean anything.
type answer struct {
	rows   []ResultRow
	groups []GroupRow
	val    float64
	ok     bool
}

type engine struct {
	cfg *engineConfig
	db  *Database
	ref *reference // in place of db under cfg.reference
	// live lists each mutated relation's tuples in script order, so an
	// index picks the same victim on every engine though ids differ.
	live      [][]liveRow
	tx        *Tx
	commits   int
	answers   []answer // the last query point's, one per fixture view
	wal, snap *storage.FaultDisk
}

// writer is where a script's mutations go: an engine transaction, or
// the reference's tuple lists.
type writer interface {
	Insert(rel string, vals ...tuple.Value) (uint64, error)
	Delete(rel string, key tuple.Value, id uint64) error
	Update(rel string, key tuple.Value, id uint64, vals ...tuple.Value) (uint64, error)
}

func (fx *fixture) build(cfg *engineConfig) (*engine, error) {
	e := &engine{cfg: cfg, live: make([][]liveRow, len(fx.rels))}
	var w writer
	if cfg.reference {
		e.ref = &reference{rels: map[string][]tuple.Tuple{"r": nil}}
		if fx.m > 0 {
			e.ref.rels = map[string][]tuple.Tuple{"r1": nil, "r2": nil}
		}
		w = e.ref
	} else {
		opts := cfg.opts
		if opts.PageSize == 0 {
			opts = testOpts()
		}
		e.db = NewDatabase(opts)
		for _, seam := range cfg.seams {
			seam(e.db)
		}
		var err error
		if fx.m > 0 {
			s1, s2 := joinSchemas()
			if _, err = e.db.CreateRelationBTree("r1", s1, 0); err == nil {
				_, err = e.db.CreateRelationHash("r2", s2, 0, 8)
			}
		} else {
			schema := spSchema()
			if fx.floatGroups {
				schema = tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("g", tuple.Float), tuple.Col("s", tuple.String))
			}
			_, err = e.db.CreateRelationBTree("r", schema, 0)
		}
		if err != nil {
			return nil, err
		}
		e.tx = e.db.Begin()
		w = e.tx
	}
	db := e.db

	seed := func(rel string, key int64, vals ...tuple.Value) error {
		id, err := w.Insert(rel, vals...)
		for i, name := range fx.rels {
			if name == rel {
				e.live[i] = append(e.live[i], liveRow{key: key, id: id})
			}
		}
		return err
	}
	if fx.m > 0 {
		for j := int64(0); j < int64(fx.m); j++ {
			if err := seed("r2", j, tuple.I(j), tuple.S("info"+sName(int(j)))); err != nil {
				return nil, err
			}
		}
		for i := int64(0); i < int64(fx.n); i++ {
			if err := seed("r1", i, tuple.I(i), tuple.I(i%int64(fx.m)), tuple.S("p"+sName(int(i)))); err != nil {
				return nil, err
			}
		}
	} else {
		for i := int64(0); i < int64(fx.n); i++ {
			vals := []tuple.Value{tuple.I(i), tuple.I(i * 2), tuple.S(sName(int(i)))}
			if fx.floatGroups {
				vals = fx.vals(0, i, i*2)
			}
			if err := seed("r", i, vals...); err != nil {
				return nil, err
			}
		}
	}
	if cfg.reference {
		return e, nil
	}
	tx := e.tx
	e.tx = nil
	if err := tx.Commit(); err != nil {
		return nil, err
	}

	specs := make([]ViewSpec, len(fx.views))
	for i, d := range fx.views {
		specs[i] = ViewSpec{Def: d, Strategy: cfg.strategy}
		if cfg.drawn {
			specs[i].Strategy = fx.drawn[i]
		}
	}
	specs = append(specs, fx.siblings...)
	if err := db.CreateViews(specs); err != nil {
		return nil, err
	}
	for _, sp := range specs {
		if sp.Strategy == Snapshot {
			if err := db.SetSnapshotInterval(sp.Def.Name, cfg.snapshotEvery); err != nil {
				return nil, err
			}
		}
	}
	if cfg.adaptive {
		if err := db.EnableAdaptive(AdvisorOptions{Hysteresis: 0.05, MinObservations: 8, HalfLife: 24}); err != nil {
			return nil, err
		}
	}
	if cfg.wal {
		e.wal, e.snap = storage.NewFaultDisk(), storage.NewFaultDisk()
		if err := db.EnableDurability(e.wal, e.snap, DurabilityOptions{CheckpointEvery: cfg.ckptEvery}); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// apply runs one step: the one place scripts turn into engine calls.
func (e *engine) apply(fx *fixture, s step) error {
	switch s.op {
	case "ins", "del", "upd":
		live := e.live[s.rel]
		if s.op != "ins" && len(live) == 0 {
			return nil
		}
		w := writer(e.ref)
		if e.ref == nil {
			if e.tx == nil {
				e.tx = e.db.Begin()
			}
			w = e.tx
		}
		rel := fx.rels[s.rel]
		switch s.op {
		case "ins":
			id, err := w.Insert(rel, fx.vals(s.rel, s.key, s.val)...)
			if err != nil {
				return err
			}
			e.live[s.rel] = append(live, liveRow{key: s.key, id: id})
		case "del":
			i := s.idx % len(live)
			if err := w.Delete(rel, tuple.I(live[i].key), live[i].id); err != nil {
				return err
			}
			e.live[s.rel] = append(live[:i], live[i+1:]...)
		case "upd":
			i := s.idx % len(live)
			id, err := w.Update(rel, tuple.I(live[i].key), live[i].id, fx.vals(s.rel, s.key, s.val)...)
			if err != nil {
				return err
			}
			live[i] = liveRow{key: s.key, id: id}
		}
		return nil
	}
	if e.tx != nil {
		tx := e.tx
		e.tx = nil
		e.commits++
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	switch s.op {
	case "query":
		if e.cfg.refreshAll {
			if err := e.db.RefreshAll(); err != nil {
				return fmt.Errorf("RefreshAll: %w", err)
			}
		}
		e.answers = e.answers[:0]
		for _, d := range fx.views {
			var a answer
			var err error
			if e.ref != nil {
				a, err = e.ref.answer(d)
			} else {
				a, err = readView(e.db, d)
			}
			if err != nil {
				return fmt.Errorf("read %s: %w", d.Name, err)
			}
			e.answers = append(e.answers, a)
		}
	case "tick":
		if e.cfg.adaptive {
			_, err := e.db.AdaptTick()
			return err
		}
	case "refresh":
		if e.cfg.adaptive || e.cfg.wal {
			return e.refreshExplicitly(fx)
		}
	}
	return nil
}

// refreshExplicitly brings every view current by the explicit call its
// strategy has, so that between them the scripts reach every caller of
// the refresh entry that a query point (the read-time refresh, and
// RefreshAll under refreshAll) does not.
func (e *engine) refreshExplicitly(fx *fixture) error {
	for _, d := range fx.views {
		var err error
		switch _, st, _ := e.db.View(d.Name); st {
		case Snapshot:
			err = e.db.RefreshSnapshot(d.Name)
		case Deferred:
			err = e.db.RefreshDeferredNow(d.Name)
		default:
			err = e.db.RefreshAll()
		}
		if err != nil {
			return fmt.Errorf("refresh %s: %w", d.Name, err)
		}
	}
	return nil
}

func readView(db *Database, d Def) (a answer, err error) {
	switch d.Kind {
	case Aggregate:
		a.val, a.ok, err = db.QueryAggregate(d.Name)
	case GroupedAggregate:
		a.groups, err = db.QueryGroups(d.Name, nil)
	default:
		a.rows, err = db.QueryView(d.Name, nil)
	}
	return a, err
}

// reference is the evaluator behind referenceConfig: each relation's
// live tuples, and a view's answer computed from them by definition —
// predicate, then project / equi-join / fold — with no exec operator,
// no planner and no agg.State. Query modification and recompute-on-demand
// share one derivation; this is the oracle that shares nothing with it.
type reference struct {
	next uint64
	rels map[string][]tuple.Tuple
}

func (r *reference) Insert(rel string, vals ...tuple.Value) (uint64, error) {
	r.next++
	r.rels[rel] = append(r.rels[rel], tuple.Tuple{ID: r.next, Vals: vals})
	return r.next, nil
}

func (r *reference) Delete(rel string, _ tuple.Value, id uint64) error {
	for i, t := range r.rels[rel] {
		if t.ID == id {
			r.rels[rel] = append(r.rels[rel][:i:i], r.rels[rel][i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("reference: no tuple %d in %s", id, rel)
}

func (r *reference) Update(rel string, key tuple.Value, id uint64, vals ...tuple.Value) (uint64, error) {
	if err := r.Delete(rel, key, id); err != nil {
		return 0, err
	}
	return r.Insert(rel, vals...)
}

func (r *reference) answer(d Def) (a answer, err error) {
	outer, ok := r.rels[d.Relations[0]]
	if !ok {
		return a, fmt.Errorf("reference: view %s reads %s, not a base relation", d.Name, d.Relations[0])
	}
	var kept []tuple.Tuple // σ over slot 0
	for _, t := range outer {
		if d.Pred.EvalSingle(0, t) {
			kept = append(kept, t)
		}
	}
	switch d.Kind {
	case SelectProject:
		for _, t := range kept {
			a.rows = append(a.rows, ResultRow{Vals: refPick(t, d.Project[0])})
		}
	case Join:
		a.rows = refJoin(d, kept, r.rels[d.Relations[1]])
	case Aggregate:
		a.val, a.ok, err = refFold(d.AggKind, kept, d.AggCol)
	case GroupedAggregate:
		// Groups are runs of tuple.Compare-equal grouping values; ±0.0 is
		// one group, named +0.0.
		sort.SliceStable(kept, func(i, j int) bool {
			return tuple.Compare(kept[i].Vals[d.GroupBy], kept[j].Vals[d.GroupBy]) < 0
		})
		for lo := 0; lo < len(kept) && err == nil; {
			hi := lo + 1
			for hi < len(kept) && tuple.Compare(kept[lo].Vals[d.GroupBy], kept[hi].Vals[d.GroupBy]) == 0 {
				hi++
			}
			g := kept[lo].Vals[d.GroupBy]
			if g.Type() == tuple.Float && g.Float() == 0 {
				g = tuple.F(0)
			}
			var v float64
			var defined bool
			if v, defined, err = refFold(d.AggKind, kept[lo:hi], d.AggCol); defined {
				a.groups = append(a.groups, GroupRow{Group: g, Value: v, Count: int64(hi - lo)})
			}
			lo = hi
		}
	}
	return a, err
}

// refPick projects t onto cols.
func refPick(t tuple.Tuple, cols []int) []tuple.Value {
	out := make([]tuple.Value, len(cols))
	for i, c := range cols {
		out[i] = t.Vals[c]
	}
	return out
}

// refJoin is join view d's rows over outer × inner by definition: every
// pair its whole predicate holds on, projected.
func refJoin(d Def, outer, inner []tuple.Tuple) (rows []ResultRow) {
	for _, t1 := range outer {
		for _, t2 := range inner {
			if d.Pred.EvalJoined(t1, t2) {
				rows = append(rows, ResultRow{Vals: append(refPick(t1, d.Project[0]), refPick(t2, d.Project[1])...)})
			}
		}
	}
	return rows
}

// blakeleyDeletes is Appendix A's foil: the delete rows Blakeley's
// original expansion [Blak86] derives for join view d from a
// transaction that deletes d1 from r1 and d2 from r2, where r1 and r2
// are the relations' start-state rows. The corrected expansion (§2.1)
// joins each D set against the other relation less its deletes; this
// one joins them against the whole start state — D1×D2, D1×R2, R1×D2 —
// so the view row of a joining pair deleted together is deleted three
// times. The engine has no such path; TestAppendixAAnomaly hands these
// rows to a view's store, which refuses them.
func blakeleyDeletes(d Def, r1, r2, d1, d2 []tuple.Tuple) []ResultRow {
	rows := refJoin(d, d1, d2)
	rows = append(rows, refJoin(d, d1, r2)...)
	return append(rows, refJoin(d, r1, d2)...)
}

// refFold is the aggregate by its textbook definition.
func refFold(kind agg.Kind, ts []tuple.Tuple, col int) (v float64, ok bool, err error) {
	n, sum, lo, hi := float64(len(ts)), 0.0, math.Inf(1), math.Inf(-1)
	for _, t := range ts {
		x := t.Vals[col].AsFloat()
		sum, lo, hi = sum+x, math.Min(lo, x), math.Max(hi, x)
	}
	switch kind {
	case agg.Count:
		return n, true, nil
	case agg.Sum:
		return sum, true, nil
	case agg.Avg:
		return sum / math.Max(n, 1), n > 0, nil
	case agg.Min:
		return lo, n > 0, nil
	case agg.Max:
		return hi, n > 0, nil
	}
	return 0, false, fmt.Errorf("reference: no definition of %s", kind)
}

// --- relations -----------------------------------------------------------------

// invariant (the harness's "relation"; the name is taken by the
// relation package) says which two engines must agree at every query
// point, and how:
//
//	multiset    equal answers: rows as multisets, scalars within 1e-9
//	positional  the stored copies are the same: rows in the same order,
//	            scalars bit for bit
//	meters      equal cumulative meter snapshots: the same charges
//	recover     (unary) Recover from a's devices after a clean stop is a
//	            byte for byte: Save of one equals Save of the other
//	converges   (unary, judged once a phase ends, not shrunk) the advisor
//	            on a rests where the analytic tables, fed the phase's true
//	            parameters, say it should
type invariant struct {
	a, b string
	how  string
}

// against relates every config after the first to the first.
func against(cfgs []engineConfig, hows ...string) []invariant {
	var out []invariant
	for _, c := range cfgs[1:] {
		for _, how := range hows {
			out = append(out, invariant{a: cfgs[0].name, b: c.name, how: how})
		}
	}
	return out
}

func (r invariant) String() string {
	if r.b == "" {
		return r.how + "(" + r.a + ")"
	}
	return r.a + " vs " + r.b + " (" + r.how + ")"
}

func (r invariant) check(fx *fixture, a, b *engine) error {
	switch r.how {
	case "multiset", "positional":
		for i, d := range fx.views {
			if err := diffAnswers(a.answers[i], b.answers[i], r.how == "positional"); err != nil {
				return fmt.Errorf("view %s: %w", d.Name, err)
			}
		}
	case "meters":
		if x, y := a.db.Meter().Snapshot(), b.db.Meter().Snapshot(); x != y {
			return fmt.Errorf("%+v vs %+v", x, y)
		}
	case "recover":
		return a.recoverEqualsLive(fx)
	}
	return nil
}

func diffAnswers(a, b answer, exact bool) error {
	same := func(x, y float64) bool {
		if exact {
			return math.Float64bits(x) == math.Float64bits(y)
		}
		return math.Abs(x-y) <= 1e-9
	}
	if a.ok != b.ok {
		return fmt.Errorf("defined %v vs %v", a.ok, b.ok)
	}
	if a.ok && !same(a.val, b.val) {
		return fmt.Errorf("%v vs %v", a.val, b.val)
	}
	if len(a.groups) != len(b.groups) {
		return fmt.Errorf("%d vs %d groups", len(a.groups), len(b.groups))
	}
	for i, g := range a.groups {
		if h := b.groups[i]; g.Group.String() != h.Group.String() || !same(g.Value, h.Value) {
			return fmt.Errorf("group %d: (%s,%v) vs (%s,%v)", i, g.Group, g.Value, h.Group, h.Value)
		}
	}
	if exact {
		return diffRowsExact(a.rows, b.rows)
	}
	return diffRows(a.rows, b.rows)
}

// diffRows compares result rows as multisets.
func diffRows(a, b []ResultRow) error {
	ka, kb := rowKeys(a), rowKeys(b)
	if len(ka) != len(kb) {
		return fmt.Errorf("%d vs %d rows", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Errorf("row %d differs: %q vs %q", i, ka[i], kb[i])
		}
	}
	return nil
}

// diffRowsExact is diffRows without the sort: positional, so it proves
// the stored view files are identical, not just equal contents.
func diffRowsExact(a, b []ResultRow) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d rows", len(a), len(b))
	}
	for i := range a {
		ka := tupletest.Key(a[i].Vals)
		kb := tupletest.Key(b[i].Vals)
		if ka != kb {
			return fmt.Errorf("row %d differs: %q vs %q", i, ka, kb)
		}
	}
	return nil
}

// cleanReboot returns the devices as a machine that shut down cleanly
// finds them. Refresh records ride the next commit's sync, so unlike a
// power cut (DurableDevice alone, which the crash sweep models) a clean
// stop is what writes back a trailing refresh record; the tests that
// compare a recovered engine byte-for-byte with the live one need it.
func cleanReboot(walDev, snapDev *storage.FaultDisk) (*storage.FaultDisk, *storage.FaultDisk, error) {
	if err := walDev.Sync(); err != nil {
		return nil, nil, err
	}
	return walDev.DurableDevice(), snapDev.DurableDevice(), nil
}

// recoverEqualsLive is the fault-free durability property at one query
// point: rebooting — Recover from copies of the devices' durable images
// — must reproduce the live engine exactly. Save is deterministic, so
// equal Save bytes mean every page of every file, the catalog, the id
// clock and all pending AD state coincide; the answers are compared on
// top as a readable failure mode. With a checkpoint cadence the recovery
// must also have crossed the checkpoint chain, or the property would be
// exercising the baseline frame plus WAL replay alone.
func (e *engine) recoverEqualsLive(fx *fixture) error {
	var want, got bytes.Buffer
	if err := e.db.Save(&want); err != nil {
		return fmt.Errorf("saving live engine: %w", err)
	}
	wd, sd, err := cleanReboot(e.wal, e.snap)
	if err != nil {
		return err
	}
	rec, info, err := Recover(wd, sd, DurabilityOptions{})
	if err != nil {
		return err
	}
	if info.TailDamage != "" {
		return fmt.Errorf("fault-free log reported tail damage %q", info.TailDamage)
	}
	if ck := e.cfg.ckptEvery; ck > 0 && e.commits >= ck && info.Deltas == 0 && info.FullSeq == 0 {
		return fmt.Errorf("%d commits with a checkpoint every %d, yet recovery used the baseline frame alone", e.commits, ck)
	}
	if err := rec.Save(&got); err != nil {
		return fmt.Errorf("saving recovered engine: %w", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		return fmt.Errorf("Save bytes differ (%d vs %d bytes; id clock %d vs %d; replayed %d records over snapshot seq %d)",
			got.Len(), want.Len(), rec.clock.Load(), e.db.clock.Load(), info.Replayed, info.SnapshotSeq)
	}
	for i, d := range fx.views {
		a, err := readView(rec, d)
		if err != nil {
			return err
		}
		if err := diffAnswers(a, e.answers[i], false); err != nil {
			return fmt.Errorf("view %s: %w", d.Name, err)
		}
	}
	return nil
}

// trueStats tallies a script's generating parameters with the engine's
// own accounting: an update writes two tuples (delete of the old, insert
// of the new), each screened against the view predicate.
type trueStats struct {
	txs, queries   float64
	tuples, inPred float64
}

func (s *trueStats) note(fx *fixture, e *engine, st step) {
	hit := func(key int64) {
		s.tuples++
		if fx.inPred(key) {
			s.inPred++
		}
	}
	switch st.op {
	case "ins":
		hit(st.key)
	case "del", "upd":
		live := e.live[st.rel]
		if len(live) == 0 {
			return // apply skips it too
		}
		hit(live[st.idx%len(live)].key)
		if st.op == "upd" {
			hit(st.key)
		}
	default:
		if e.tx != nil {
			s.txs++
		}
		if st.op == "query" {
			s.queries++
		}
	}
}

func (s trueStats) sub(o trueStats) trueStats {
	return trueStats{s.txs - o.txs, s.queries - o.queries, s.tuples - o.tuples, s.inPred - o.inPred}
}

func (s trueStats) params(base costmodel.Params) costmodel.Params {
	p := base // structural fields (N, S, B, n, FR2, unit costs) from the engine
	p.K = s.txs
	p.Q = math.Max(s.queries, 1e-3)
	if s.txs > 0 {
		p.L = math.Max(s.tuples/s.txs, 1)
	}
	if s.tuples > 0 {
		p.F = math.Min(math.Max(s.inPred/s.tuples, 1e-6), 1)
	}
	p.FV = 1 // scripts read the full view
	return p
}

// --- the runner ----------------------------------------------------------------

// outcome is what a run leaves behind.
type outcome struct {
	engines map[string]*engine
	tally   trueStats
}

// lockstep builds one engine per config over the fixture, replays the
// script through all of them, and checks every relation at every query
// point. The error is the first divergence (or engine error).
func lockstep(fx *fixture, cfgs []engineConfig, rels []invariant, script []step) (*outcome, error) {
	out := &outcome{engines: map[string]*engine{}}
	order := make([]*engine, len(cfgs))
	for i := range cfgs {
		e, err := fx.build(&cfgs[i])
		if err != nil {
			return nil, fmt.Errorf("setup %s: %w", cfgs[i].name, err)
		}
		order[i], out.engines[cfgs[i].name] = e, e
	}
	for i, s := range script {
		out.tally.note(fx, order[0], s)
		for _, e := range order {
			if err := e.apply(fx, s); err != nil {
				return out, fmt.Errorf("step %d (%s) on %s: %w", i, s, e.cfg.name, err)
			}
		}
		if s.op != "query" {
			continue
		}
		for _, r := range rels {
			if err := r.check(fx, out.engines[r.a], out.engines[r.b]); err != nil {
				return out, fmt.Errorf("step %d: %s: %w", i, r, err)
			}
		}
	}
	return out, nil
}

// row is one line of the table: what is built, what must hold, and over
// which scripts.
type row struct {
	test    string // the go test path the row runs under
	fixture func(rng *rand.Rand, seed int64) *fixture
	configs []engineConfig
	rels    []invariant
	seeds   [2]int64 // inclusive; each seeds one rng that draws the fixture, then the script
	phases  []phaseMix
	script  []step // a literal script (a kept counterexample) in place of a drawn one
}

func (r row) instantiate(seed int64) (*fixture, []step, []int) {
	rng := rand.New(rand.NewSource(seed))
	fx := r.fixture(rng, seed)
	if r.script != nil {
		return fx, r.script, []int{0}
	}
	steps, starts := genScript(rng, fx.keyStream(rng), len(fx.rels), r.phases...)
	return fx, steps, starts
}

// minimalFailure shrinks a script that breaks the row, and returns what
// is left with the error it still fails with.
func minimalFailure(fx *fixture, r row, script []step) ([]step, error) {
	min := shrinkScript(script, func(s []step) bool {
		_, err := lockstep(fx, r.configs, r.rels, s)
		return err != nil
	})
	_, err := lockstep(fx, r.configs, r.rels, min)
	return min, err
}

// checkProperty runs one row at one seed. A row with a converges
// relation runs once per phase (each run a prefix of the script), so
// every phase's resting point is judged against that phase's tallies.
func checkProperty(t *testing.T, r row, seed int64) {
	t.Helper()
	fx, script, starts := r.instantiate(seed)
	ends := append(starts[1:], len(script))
	var settling []invariant
	for _, rel := range r.rels {
		if rel.how == "converges" {
			settling = append(settling, rel)
		}
	}
	if settling == nil {
		ends = ends[len(ends)-1:]
	}
	var before trueStats
	for phase, end := range ends {
		out, err := lockstep(fx, r.configs, r.rels, script[:end])
		if err != nil {
			min, minErr := minimalFailure(fx, r, script[:end])
			t.Fatalf("%s seed %d: %v\nfixture %s\n%sminimal script (%d steps): %v\n%s",
				r.test, seed, err, fx.name, fx.describe, len(min), minErr, formatScript(min))
		}
		for _, rel := range settling {
			label := fmt.Sprintf("%s seed %d phase %d", r.test, seed, phase)
			checkConvergence(t, label, out.engines[rel.a], fx, out.tally.sub(before))
		}
		before = out.tally
	}
}

// checkConvergence asserts the advisor's resting strategy against the
// analytic tables fed the phase's true parameters — or, when the tables
// score two strategies within the advisor's hysteresis band of each
// other, a strategy they price within that band of the optimum (an
// advisor with flip hysteresis ε legitimately rests anywhere ε-close to
// the analytic minimum; demanding exact argmin equality on a near-tie
// would test tie-breaking, not convergence).
func checkConvergence(t *testing.T, label string, e *engine, fx *fixture, stats trueStats) {
	t.Helper()
	adv := e.db.AdvisorStats()
	if len(adv) != 1 {
		t.Fatalf("%s: AdvisorStats returned %d views", label, len(adv))
	}
	trueP := stats.params(adv[0].Params)
	if err := trueP.Validate(); err != nil {
		t.Fatalf("%s: true parameters: %v", label, err)
	}
	costs := costmodel.CostsFor(fx.views[0].Kind.Model(), trueP, 0)
	best, bestCost := costmodel.Best(costs)
	_, got, _ := e.db.View(fx.views[0].Name)
	t.Logf("%s: resting strategy %v, tables say %s (flips so far: %d)", label, got, best, adv[0].Flips)
	if got == StrategyFor(best) {
		return
	}
	// Near-tie tolerance: the band ×2 for estimation noise, at the
	// cheapest row the resting strategy is priced at.
	mine := math.Inf(1)
	for alg, c := range costs {
		if StrategyFor(alg) == got {
			mine = math.Min(mine, c)
		}
	}
	if mine > bestCost*1.10 {
		t.Errorf("%s: converged to %v but the tables say %s (%.1f vs %.1f ms/query; true params %+v; measured %+v)",
			label, got, best, mine, bestCost, trueP, adv[0].Params)
	}
}

// --- the table -----------------------------------------------------------------

var (
	fiveStrategies = []Strategy{QueryModification, Immediate, Deferred, Snapshot, RecomputeOnDemand}
	paperThree     = fiveStrategies[:3]
)

func lockstepTable() []row {
	var rows []row

	// Cross-strategy: every strategy answers like query modification.
	rows = append(rows,
		row{test: "TestPropertyModel1StrategiesEquivalent", fixture: static(model1Fx()),
			configs: plain(fiveStrategies...), seeds: [2]int64{500, 505}, phases: churn(5)},
		row{test: "TestPropertyModel2StrategiesEquivalent", fixture: static(model2Fx()),
			configs: plain(paperThree...), seeds: [2]int64{900, 905}, phases: churn(5)},
		row{test: "TestPropertyJoinStrategiesEquivalent", fixture: static(twoSidedFx()),
			configs: plain(paperThree...), seeds: [2]int64{100, 104},
			phases: []phaseMix{{rounds: 6, txEvery: 1, ops: [2]int{1, 3}, queries: 1}}},
		// Transactions of 1–4 mutations, victims picked among tuples the
		// same transaction already inserted or replaced.
		row{test: "TestPropertyStrategiesEquivalent", fixture: static(spFx("model1-n40", 40, 60, spDef("v"))),
			configs: plain(paperThree...), seeds: [2]int64{0, 5},
			phases: []phaseMix{{rounds: 8, txEvery: 1, ops: [2]int{1, 4}, queries: 1}}},
	)
	for _, kind := range []agg.Kind{agg.Count, agg.Sum, agg.Avg, agg.Min, agg.Max} {
		rows = append(rows, row{test: "TestPropertyModel3StrategiesEquivalent/" + kind.String(), fixture: static(model3Fx(kind)),
			configs: plain(paperThree...), seeds: [2]int64{1300, 1302}, phases: churn(4)})
	}
	// Grouping on a float column where 0.0 and -0.0 are two values and
	// one group. The literal script is the case that showed the
	// strategies disagreeing: the rebuild folds keyed groups by their
	// printed value ("0" is not "-0") while the group store looks them up
	// by tuple.Compare (0 == -0), so query modification and snapshot
	// answered {0: 5, -0: 6, 1: 1}, immediate {0: 9, -0: 2, 1: 1} and
	// deferred {-0: 9, -0: 2, 1: 1} over r(k, g) = (0, 0.0), (1, 1.0),
	// (2, -0.0) plus (4, -0.0), (5, 0.0). Every strategy answers
	// {0: 11, 1: 1}.
	for _, kind := range []agg.Kind{agg.Sum, agg.Min} {
		rows = append(rows, row{test: "TestPropertyGroupedStrategiesEquivalent/" + kind.String(), fixture: static(groupedFx(kind, 30)),
			configs: plain(fiveStrategies...), seeds: [2]int64{1700, 1703}, phases: churn(5)})
	}
	rows = append(rows, row{test: "TestPropertyGroupedStrategiesEquivalent/regression/negative-zero-is-one-group",
		fixture: static(groupedFx(agg.Sum, 3)), configs: plain(fiveStrategies...), seeds: [2]int64{0, 0},
		script: []step{{op: "ins", key: 4, val: 1}, {op: "ins", key: 5, val: 0}, {op: "query"}}})
	// One commit on one leaf: the seed load leaves r's keys 14–20 on one
	// leaf with room for seven more rows; eight inserts split it, and then
	// updates land on both halves — key 14 on the left, key 20 on the
	// right, key 17 twice in a row (the second update replaces the first's
	// replacement) — and move an inserted row to another leaf. Same-key
	// updates rewrite their leaf in one visit; the twin inserts at keys 15
	// and 16 are one view row (equal s) whose duplicate count is rewritten
	// the same way in the stored view.
	splitCommit := []step{
		{op: "ins", key: 15, val: 1}, {op: "ins", key: 15, val: 8}, {op: "ins", key: 16, val: 2}, {op: "ins", key: 16, val: 9},
		{op: "ins", key: 17, val: 3}, {op: "ins", key: 18, val: 4}, {op: "ins", key: 18, val: 5}, {op: "ins", key: 19, val: 6},
		{op: "upd", idx: 14, key: 14, val: 10}, {op: "upd", idx: 20, key: 20, val: 11},
		{op: "upd", idx: 17, key: 17, val: 12}, {op: "upd", idx: 17, key: 17, val: 19},
		{op: "upd", idx: 30, key: 25, val: 13}, {op: "commit"}, {op: "query"},
		{op: "upd", idx: 15, key: 15, val: 1}, {op: "upd", idx: 15, key: 15, val: 22}, {op: "query"},
	}
	rows = append(rows, row{test: "TestPropertyModel1StrategiesEquivalent/regression/one-commit-splits-a-leaf-and-updates-a-key-twice",
		fixture: static(model1Fx()), configs: plain(fiveStrategies...), seeds: [2]int64{0, 0}, script: splitCommit})
	// Query modification beside a deferred sibling, at the default batch
	// cap and at one row a batch, over inserts, updates and deletes that pile up
	// unfolded: pending adds, pending deletes and updates of pending rows.
	qmBatch1 := engineConfig{name: "query-modification+batch1", strategy: QueryModification, seams: []func(*Database){setBatch1}}
	rows = append(rows, row{test: "TestPropertyQMReadsPendingAD", fixture: static(qmPendingFx()),
		configs: append(plain(QueryModification), qmBatch1), seeds: [2]int64{5300, 5305},
		phases: []phaseMix{{rounds: 10, txEvery: 1, ops: [2]int{1, 4}, queries: 1}}})
	// ...and like the plain-Go reference, which unlike the engines'
	// oracles of each other shares no code with any of them.
	for i := range rows {
		rows[i].configs = append(rows[i].configs, referenceConfig)
		rows[i].rels = against(rows[i].configs, "multiset")
	}

	// Shared-delta refresh: a forced share stores what private plans store
	// and means what a full recompute means.
	fan := []engineConfig{
		{name: "sharing", strategy: Deferred, seams: []func(*Database){gated(gateForced)}, refreshAll: true},
		{name: "unshared", strategy: Deferred, seams: []func(*Database){gated(gatePrivate)}, refreshAll: true},
		{name: "oracle", strategy: RecomputeOnDemand, seams: []func(*Database){gated(gatePrivate)}, refreshAll: true},
	}
	for model := 1; model <= 3; model++ {
		rows = append(rows, row{test: fmt.Sprintf("TestPropertySharedDeltaEquivalent/model%d", model), fixture: static(fanFx(model)),
			configs: fan, rels: []invariant{{"sharing", "unshared", "positional"}, {"sharing", "oracle", "multiset"}},
			seeds: [2]int64{2100, 2103}, phases: churn(5)})
	}

	// Twins: one-row batches change neither a stored byte nor a charge,
	// under any strategy.
	twins := func(test string, fx *fixture, st Strategy, lo, hi int64, rounds int) {
		cfgs := plain(st, st)
		cfgs[1].name, cfgs[1].seams = st.String()+"+batch1", []func(*Database){setBatch1}
		rows = append(rows, row{test: "TestPropertyBatchRowIdentity" + test, fixture: static(fx), configs: cfgs,
			rels: against(cfgs, "positional", "meters"), seeds: [2]int64{lo, hi}, phases: churn(rounds)})
	}
	for _, st := range fiveStrategies {
		twins("Model1/"+st.String(), model1Fx(), st, 2100, 2103, 5)
	}
	for _, st := range paperThree {
		twins("Model2/"+st.String(), model2Fx(), st, 2400, 2403, 5)
	}
	for _, kind := range []agg.Kind{agg.Sum, agg.Min, agg.Max} {
		for _, st := range paperThree {
			twins("Model3/"+kind.String(), model3Fx(kind), st, 2700, 2702, 4)
		}
	}
	// A grouped view's sink folds each batch into the groups it touches and
	// writes their rows as one ApplyRun; at one row a batch it writes each
	// row's group on its own.
	for _, kind := range []agg.Kind{agg.Sum, agg.Min, agg.Max} {
		for _, st := range fiveStrategies {
			twins("Grouped/"+kind.String(), groupedFx(kind, 30), st, 2800, 2805, 5)
		}
	}

	// Hierarchy: a random view DAG under skewed updates. The subject runs
	// the drawn strategies with the cost-model share gate and vectorized
	// batches; sharing and the batch cap must not change stored bytes
	// (the batch cap not a charge either), and everything must mean what
	// full recomputation means.
	four := testOpts()
	four.MaxRefreshWorkers = 4
	subject := func(name string, seams ...func(*Database)) engineConfig {
		return engineConfig{name: name, opts: four, seams: seams, drawn: true, refreshAll: true}
	}
	hier := []engineConfig{subject("subject"), subject("unshared", gated(gatePrivate)),
		subject("batch1", setBatch1),
		{name: "oracle", strategy: RecomputeOnDemand, seams: []func(*Database){gated(gatePrivate)}, refreshAll: true}}
	for seed := int64(4200); seed <= 4205; seed++ {
		rows = append(rows, row{test: fmt.Sprintf("TestPropertyHierarchyRecomputeOracle/seed%d", seed-4200), fixture: hierFx,
			configs: hier, seeds: [2]int64{seed, seed}, phases: churn(5),
			rels: []invariant{{"subject", "unshared", "positional"}, {"subject", "batch1", "positional"},
				{"subject", "oracle", "multiset"}, {"subject", "batch1", "meters"}}})
	}

	// Recovery: Recover ≡ live, byte for byte, at every query point. The
	// odd rounds refresh explicitly before they query, the even ones leave
	// it to the read, so every producer of a refresh record is replayed.
	refreshing := churn(5)
	refreshing[0].refresh = true
	recovers := func(test string, fx func(*rand.Rand, int64) *fixture, lo, hi int64, script []step, cfgs ...engineConfig) {
		r := row{test: test, fixture: fx, configs: cfgs, seeds: [2]int64{lo, hi}, phases: refreshing, script: script}
		for i := range cfgs {
			cfgs[i].wal = true
			cfgs[i].name += fmt.Sprintf("+wal@%d", cfgs[i].ckptEvery)
			r.rels = append(r.rels, invariant{a: cfgs[i].name, how: "recover"})
		}
		rows = append(rows, r)
	}
	for _, ck := range []int{0, 1, 3} {
		recovers("TestPropertyRecoverEquivalentToSaveLoad", static(model1Fx()), 2100, 2104, nil,
			engineConfig{name: "deferred", strategy: Deferred, ckptEvery: ck})
		recovers("TestPropertyRecoverEquivalentToSaveLoad", static(chainFx()), 2100, 2104, nil,
			engineConfig{name: "deferred", strategy: Deferred, ckptEvery: ck})
	}
	for _, ck := range []int{0, 3} {
		all := func() []engineConfig {
			cfgs := plain(fiveStrategies...)
			for i := range cfgs {
				cfgs[i].ckptEvery = ck
			}
			return cfgs
		}
		recovers("TestLockstepRecover/model1", static(model1Fx()), 500, 505, nil, all()...)
		recovers("TestLockstepRecover/model2", static(model2Fx()), 900, 905, nil, all()...)
		recovers("TestLockstepRecover/model3", static(model3Fx(agg.Sum)), 1300, 1305, nil, all()...)
		// A chain has no query-modification parent. The two extra configs
		// are what only they reach: siblings drained as one unit by
		// RefreshAll, and a forced rebuild of a snapshot inside its budget,
		// which replay repeats only if the record kept the force.
		recovers("TestLockstepRecover/chain", static(chainFx()), 500, 505, nil, append(all()[1:],
			engineConfig{name: "deferred+refreshAll", strategy: Deferred, refreshAll: true, ckptEvery: ck},
			engineConfig{name: "snapshot@3", strategy: Snapshot, snapshotEvery: 3, ckptEvery: ck})...)
		drawn := engineConfig{name: "drawn", opts: four, drawn: true, refreshAll: true, ckptEvery: ck}
		recovers("TestLockstepRecover/hierarchy", hierFx, 4200, 4205, nil, drawn)
		// The two counterexamples the hierarchy rows found, as shrunk: a
		// sibling group drained together was logged one record per view, so
		// replay drained them apart and drew other tuple ids; a rebuilt
		// grouped aggregate flushed its groups in map order.
		recovers("TestLockstepRecover/regression/sibling-group-is-one-record", hierFx, 4202, 4202,
			[]step{{op: "del", idx: 243508}, {op: "query"}}, drawn)
		recovers("TestLockstepRecover/regression/group-rows-flush-in-group-order", hierFx, 4204, 4204,
			[]step{{op: "upd", idx: 14725, key: 0, val: 2}, {op: "query"}}, drawn)
	}

	// The online advisor: flipping strategies under a workload that
	// shifts from query-heavy to update-heavy never changes an answer
	// (the oracle is a static query-modification engine), and after each
	// phase the advisor rests where the tables say. The candidate set is
	// the paper's three strategies, all always-consistent, which is what
	// makes the first relation exact.
	for model := int64(1); model <= 3; model++ {
		rows = append(rows, row{test: fmt.Sprintf("TestLockstepAdaptive/model%d", model), fixture: static(adaptiveFx(int(model))),
			configs: []engineConfig{{name: "adaptive", opts: four, adaptive: true}, {name: "oracle", opts: four}},
			rels:    []invariant{{"adaptive", "oracle", "multiset"}, {a: "adaptive", how: "converges"}},
			seeds:   [2]int64{900 * model, 900*model + 3}, phases: []phaseMix{queryHeavy, updateHeavy}})
	}
	return rows
}

// --- tests ---------------------------------------------------------------------

// runRows runs the table rows filed under the calling test or below it.
func runRows(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	var paths []string
	under := map[string][]row{}
	for _, r := range lockstepTable() {
		sub, ok := strings.CutPrefix(r.test, t.Name())
		if !ok || sub != "" && sub[0] != '/' {
			continue
		}
		if _, seen := under[sub]; !seen {
			paths = append(paths, sub)
		}
		under[sub] = append(under[sub], r)
	}
	if len(paths) == 0 {
		t.Fatalf("no table row is filed under %s", t.Name())
	}
	for _, sub := range paths {
		run := func(t *testing.T) {
			for _, r := range under[sub] {
				for seed := r.seeds[0]; seed <= r.seeds[1]; seed++ {
					checkProperty(t, r, seed)
				}
			}
		}
		if sub == "" {
			run(t)
		} else {
			t.Run(sub[1:], run)
		}
	}
}

func TestPropertyModel1StrategiesEquivalent(t *testing.T)  { runRows(t) }
func TestPropertyModel2StrategiesEquivalent(t *testing.T)  { runRows(t) }
func TestPropertyModel3StrategiesEquivalent(t *testing.T)  { runRows(t) }
func TestPropertyGroupedStrategiesEquivalent(t *testing.T) { runRows(t) }
func TestPropertyJoinStrategiesEquivalent(t *testing.T)    { runRows(t) }
func TestPropertyStrategiesEquivalent(t *testing.T)        { runRows(t) }
func TestPropertyQMReadsPendingAD(t *testing.T)            { runRows(t) }
func TestPropertySharedDeltaEquivalent(t *testing.T)       { runRows(t) }
func TestPropertyBatchRowIdentityModel1(t *testing.T)      { runRows(t) }
func TestPropertyBatchRowIdentityModel2(t *testing.T)      { runRows(t) }
func TestPropertyBatchRowIdentityModel3(t *testing.T)      { runRows(t) }
func TestPropertyBatchRowIdentityGrouped(t *testing.T)     { runRows(t) }
func TestPropertyHierarchyRecomputeOracle(t *testing.T)    { runRows(t) }
func TestPropertyRecoverEquivalentToSaveLoad(t *testing.T) { runRows(t) }
func TestLockstepRecover(t *testing.T)                     { runRows(t) }
func TestLockstepAdaptive(t *testing.T)                    { runRows(t) }

// TestLockstepFindsAndShrinks is the harness's positive control: a
// snapshot view three commits behind is legitimately stale, so paired
// with query modification the runner must report a divergence, and the
// shrinker must cut the script down to the one mutation that touches
// the view and the query that reads it.
func TestLockstepFindsAndShrinks(t *testing.T) {
	cfgs := plain(QueryModification, Snapshot)
	cfgs[1].name, cfgs[1].snapshotEvery = "snapshot@3", 3
	r := row{fixture: static(model1Fx()), configs: cfgs, rels: against(cfgs, "multiset"), phases: churn(5)}
	fx, script, _ := r.instantiate(500)
	if _, err := lockstep(fx, r.configs, r.rels, script); err == nil {
		t.Fatalf("no divergence between query modification and a stale snapshot over\n%s", formatScript(script))
	}
	min, err := minimalFailure(fx, r, script)
	t.Logf("%v\n%s", err, formatScript(min))
	if !strings.Contains(err.Error(), "query-modification vs snapshot@3 (multiset)") {
		t.Errorf("the divergence does not name its relation: %v", err)
	}
	if len(min) != 2 || min[1].op != "query" {
		t.Fatalf("shrunk to %d steps, want one mutation and a query:\n%s", len(min), formatScript(min))
	}
	out, _ := lockstep(fx, r.configs, r.rels, min)
	if out.tally.inPred == 0 {
		t.Errorf("the surviving mutation %q does not touch the view", min[0])
	}
}

// TestLockstepManifest shows, rather than asserts, that the table covers
// what the fifteen hand-rolled runners it replaced covered: every cell
// (fixture, engine pair, relation, seed) they ran is listed in
// testdata/lockstep_manifest.txt and must still be a cell of the table.
func TestLockstepManifest(t *testing.T) {
	cells := map[string]bool{}
	for _, r := range lockstepTable() {
		for seed := r.seeds[0]; seed <= r.seeds[1]; seed++ {
			fx := r.fixture(rand.New(rand.NewSource(seed)), seed)
			for _, rel := range r.rels {
				pair := rel.a
				if rel.b != "" {
					pair += "~" + rel.b
				}
				hows := []string{rel.how}
				if rel.how == "converges" {
					hows = hows[:0]
					for phase := range r.phases {
						hows = append(hows, fmt.Sprintf("converges@phase%d", phase))
					}
				}
				for _, how := range hows {
					cells[fmt.Sprintf("%s %s %s %d", fx.name, pair, how, seed)] = true
				}
			}
		}
	}
	manifest, err := readManifest("testdata/lockstep_manifest.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range manifest {
		if !cells[cell] {
			t.Errorf("the table no longer runs %q", cell)
		}
	}
	t.Logf("%d cells in the table, %d of them owed to the manifest", len(cells), len(manifest))
}

// readManifest expands the manifest's lines, "fixture pair relation
// lo-hi", into one cell per seed.
func readManifest(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cells []string
	for n, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		var fx, pair, how string
		var lo, hi int64
		if _, err := fmt.Sscanf(line, "%s %s %s %d-%d", &fx, &pair, &how, &lo, &hi); err != nil {
			return nil, fmt.Errorf("%s:%d: %q: %w", path, n+1, line, err)
		}
		for seed := lo; seed <= hi; seed++ {
			cells = append(cells, fmt.Sprintf("%s %s %s %d", fx, pair, how, seed))
		}
	}
	return cells, nil
}
