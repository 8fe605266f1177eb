package server

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"viewmat/internal/agg"
	"viewmat/internal/client"
	"viewmat/internal/core"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
	"viewmat/internal/tuple/tupletest"
)

// --- shared fixtures ---------------------------------------------------------

func testDBOpts() core.Options {
	return core.Options{PageSize: 512, PoolFrames: 64}
}

// startServer serves db on a kernel-chosen port and returns the
// server plus its address. Shutdown is registered as cleanup; tests
// that Kill() or Shutdown() themselves make the cleanup a no-op.
func startServer(t testing.TB, db *core.Database, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	srv := New(db, cfg)
	lis, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		srv.Kill()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, lis.Addr().String()
}

func dialClient(t testing.TB, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// r(k INT, a INT, s STRING); r1(k INT, jv INT, p STRING) ⋈ r2(jv INT, info STRING).
func baseSchema() *tuple.Schema {
	return tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("s", tuple.String))
}

func joinSchemas() (*tuple.Schema, *tuple.Schema) {
	r1 := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("jv", tuple.Int), tuple.Col("p", tuple.String))
	r2 := tuple.NewSchema(tuple.Col("jv", tuple.Int), tuple.Col("info", tuple.String))
	return r1, r2
}

func spDef(name string, lo, hi int64) core.Def {
	return core.Def{
		Name:      name,
		Kind:      core.SelectProject,
		Relations: []string{"r"},
		Pred: pred.New(
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(lo)},
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(hi)},
		),
		Project:    [][]int{{0, 2}},
		ViewKeyCol: 0,
	}
}

func sumDef(name string, lo, hi int64) core.Def {
	return core.Def{
		Name:      name,
		Kind:      core.Aggregate,
		Relations: []string{"r"},
		Pred: pred.New(
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(lo)},
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(hi)},
		),
		AggKind: agg.Sum,
		AggCol:  1,
	}
}

func joinViewDef(name string) core.Def {
	return core.Def{
		Name:      name,
		Kind:      core.Join,
		Relations: []string{"r1", "r2"},
		Pred: pred.New(
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(1 << 20)},
			pred.JoinEq{LRel: 0, LCol: 1, RRel: 1, RCol: 0},
		),
		Project:    [][]int{{0, 2}, {1}},
		ViewKeyCol: 0,
	}
}

// --- deterministic per-client scripts ---------------------------------------

// A scriptOp mutates relation Rel. Delete/update target the Idx-th row
// of the client's pre-transaction live set for that relation, so the
// same script replays identically over the network and in-process: the
// live sets evolve purely from op order, never from engine ids.
type scriptOp struct {
	kind int // 0 insert, 1 delete, 2 update
	rel  string
	key  int64 // insert/update: new clustering key (within the client's space)
	a    int64
	s    string
	idx  int // delete/update: index into the pre-tx live set of rel
}

const (
	opInsert = iota
	opDelete
	opUpdate
)

type liveRow struct {
	key int64
	id  uint64
}

// genScript builds nTx transactions for a client owning keys
// [base, base+span). Only the live-set *sizes* are simulated here;
// both replays make identical structural decisions because they apply
// identical ops.
func genScript(seed int64, base, span int64, nTx int) [][]scriptOp {
	rng := rand.New(rand.NewSource(seed))
	liveR, liveR1 := 0, 0
	script := make([][]scriptOp, 0, nTx)
	for t := 0; t < nTx; t++ {
		nOps := 1 + rng.Intn(3)
		claimedR := map[int]bool{}
		liveRStart := liveR
		var ops []scriptOp
		for o := 0; o < nOps; o++ {
			key := base + rng.Int63n(span)
			roll := rng.Intn(10)
			switch {
			case roll < 2: // r1 insert feeds the immediate join view
				ops = append(ops, scriptOp{kind: opInsert, rel: "r1", key: key, a: rng.Int63n(8), s: fmt.Sprintf("p%d", key)})
				liveR1++
			case roll < 7 || liveRStart == 0 || len(claimedR) == liveRStart:
				ops = append(ops, scriptOp{kind: opInsert, rel: "r", key: key, a: rng.Int63n(1000), s: fmt.Sprintf("s%d", key%7)})
				liveR++
			default:
				idx := rng.Intn(liveRStart)
				for claimedR[idx] {
					idx = (idx + 1) % liveRStart
				}
				claimedR[idx] = true
				if roll < 9 {
					ops = append(ops, scriptOp{kind: opUpdate, rel: "r", key: key, a: rng.Int63n(1000), s: "u", idx: idx})
				} else {
					ops = append(ops, scriptOp{kind: opDelete, rel: "r", idx: idx})
					liveR--
				}
			}
		}
		script = append(script, ops)
	}
	return script
}

// applyBookkeeping folds one committed transaction into the live sets.
// ids carries the engine-assigned id of each insert and update, in op
// order — exactly what both client.Tx.Commit and core.Tx report.
func applyBookkeeping(ops []scriptOp, ids []uint64, live map[string][]liveRow) {
	deleted := map[int]bool{}
	updated := map[int]liveRow{}
	var inserts []struct {
		rel string
		row liveRow
	}
	idPos := 0
	for _, op := range ops {
		switch op.kind {
		case opInsert:
			inserts = append(inserts, struct {
				rel string
				row liveRow
			}{op.rel, liveRow{op.key, ids[idPos]}})
			idPos++
		case opDelete:
			deleted[op.idx] = true
		case opUpdate:
			updated[op.idx] = liveRow{op.key, ids[idPos]}
			idPos++
		}
	}
	next := live["r"][:0:0]
	for i, row := range live["r"] {
		if deleted[i] {
			continue
		}
		if nr, ok := updated[i]; ok {
			next = append(next, nr)
			continue
		}
		next = append(next, row)
	}
	live["r"] = next
	for _, ins := range inserts {
		live[ins.rel] = append(live[ins.rel], ins.row)
	}
}

// netRunner replays script transactions through a network client,
// carrying live-set bookkeeping across transactions.
type netRunner struct {
	c    *client.Client
	live map[string][]liveRow
}

func newNetRunner(c *client.Client) *netRunner {
	return &netRunner{c: c, live: map[string][]liveRow{}}
}

func (r *netRunner) runTx(ops []scriptOp) error {
	tx := r.c.Begin()
	for _, op := range ops {
		switch op.kind {
		case opInsert:
			tx.Insert(op.rel, tuple.I(op.key), tuple.I(op.a), tuple.S(op.s))
		case opDelete:
			row := r.live["r"][op.idx]
			tx.Delete("r", tuple.I(row.key), row.id)
		case opUpdate:
			row := r.live["r"][op.idx]
			tx.Update("r", tuple.I(row.key), row.id, tuple.I(op.key), tuple.I(op.a), tuple.S(op.s))
		}
	}
	ids, err := tx.Commit()
	if err != nil {
		return err
	}
	applyBookkeeping(ops, ids, r.live)
	return nil
}

// runScriptLocal replays a script directly against an in-process
// engine — the oracle side.
func runScriptLocal(db *core.Database, script [][]scriptOp) error {
	live := map[string][]liveRow{}
	for _, ops := range script {
		tx := db.Begin()
		var ids []uint64
		for _, op := range ops {
			switch op.kind {
			case opInsert:
				id, err := tx.Insert(op.rel, tuple.I(op.key), tuple.I(op.a), tuple.S(op.s))
				if err != nil {
					return err
				}
				ids = append(ids, id)
			case opDelete:
				row := live["r"][op.idx]
				if err := tx.Delete("r", tuple.I(row.key), row.id); err != nil {
					return err
				}
			case opUpdate:
				row := live["r"][op.idx]
				id, err := tx.Update("r", tuple.I(row.key), row.id, tuple.I(op.key), tuple.I(op.a), tuple.S(op.s))
				if err != nil {
					return err
				}
				ids = append(ids, id)
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		applyBookkeeping(ops, ids, live)
	}
	return nil
}

// --- catalog + state comparison ---------------------------------------------

// integCatalog installs the shared relations, join dimension rows, and
// the four views (one per maintenance model, plus an aggregate):
//
//	vsp   Deferred select-project over r, 0 ≤ k < half the key space
//	vagg  Deferred SUM(a) over the same range
//	vjoin Immediate join r1 ⋈ r2
//	qsp   QueryModification select-project over all of r
type catalogApplier interface {
	CreateRelationBTree(name string, schema *tuple.Schema, keyCol int) error
	CreateRelationHash(name string, schema *tuple.Schema, keyCol, buckets int) error
	CreateView(def core.Def, strategy core.Strategy) error
}

// localCatalog adapts *core.Database (whose create-relation methods
// also return the relation) to catalogApplier.
type localCatalog struct{ db *core.Database }

func (l localCatalog) CreateRelationBTree(name string, schema *tuple.Schema, keyCol int) error {
	_, err := l.db.CreateRelationBTree(name, schema, keyCol)
	return err
}
func (l localCatalog) CreateRelationHash(name string, schema *tuple.Schema, keyCol, buckets int) error {
	_, err := l.db.CreateRelationHash(name, schema, keyCol, buckets)
	return err
}
func (l localCatalog) CreateView(def core.Def, strategy core.Strategy) error {
	return l.db.CreateView(def, strategy)
}

func installCatalog(a catalogApplier, insertR2 func(j int64) error, totalKeys int64) error {
	if err := a.CreateRelationBTree("r", baseSchema(), 0); err != nil {
		return err
	}
	s1, s2 := joinSchemas()
	if err := a.CreateRelationBTree("r1", s1, 0); err != nil {
		return err
	}
	if err := a.CreateRelationHash("r2", s2, 0, 8); err != nil {
		return err
	}
	for j := int64(0); j < 8; j++ {
		if err := insertR2(j); err != nil {
			return err
		}
	}
	if err := a.CreateView(spDef("vsp", 0, totalKeys/2), core.Deferred); err != nil {
		return err
	}
	if err := a.CreateView(sumDef("vagg", 0, totalKeys/2), core.Deferred); err != nil {
		return err
	}
	if err := a.CreateView(joinViewDef("vjoin"), core.Immediate); err != nil {
		return err
	}
	return a.CreateView(spDef("qsp", 0, totalKeys), core.QueryModification)
}

func installCatalogNet(c *client.Client, totalKeys int64) error {
	return installCatalog(c, func(j int64) error {
		tx := c.Begin()
		tx.Insert("r2", tuple.I(j), tuple.S(fmt.Sprintf("info%d", j)))
		_, err := tx.Commit()
		return err
	}, totalKeys)
}

func installCatalogLocal(db *core.Database, totalKeys int64) error {
	return installCatalog(localCatalog{db}, func(j int64) error {
		tx := db.Begin()
		if _, err := tx.Insert("r2", tuple.I(j), tuple.S(fmt.Sprintf("info%d", j))); err != nil {
			return err
		}
		return tx.Commit()
	}, totalKeys)
}

func sortedKeys(rows [][]tuple.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = tupletest.Key(r)
	}
	sort.Strings(out)
	return out
}

func resultRowsToVals(rows []core.ResultRow) [][]tuple.Value {
	out := make([][]tuple.Value, len(rows))
	for i, r := range rows {
		out[i] = r.Vals
	}
	return out
}

// netState reads the comparison state (all view contents + aggregate)
// through a client after RefreshAll.
func netState(t *testing.T, c *client.Client) map[string][]string {
	t.Helper()
	if err := c.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	state := map[string][]string{}
	for _, v := range []string{"vsp", "vjoin", "qsp"} {
		rows, err := c.QueryView(v, nil)
		if err != nil {
			t.Fatalf("query %s: %v", v, err)
		}
		state[v] = sortedKeys(rows)
	}
	sum, ok, err := c.QueryAggregate("vagg")
	if err != nil {
		t.Fatal(err)
	}
	state["vagg"] = []string{fmt.Sprintf("%v/%v", sum, ok)}
	return state
}

// localState reads the same comparison state directly from an engine.
func localState(t *testing.T, db *core.Database) map[string][]string {
	t.Helper()
	if err := db.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	state := map[string][]string{}
	for _, v := range []string{"vsp", "vjoin", "qsp"} {
		rows, err := db.QueryView(v, nil)
		if err != nil {
			t.Fatalf("query %s: %v", v, err)
		}
		state[v] = sortedKeys(resultRowsToVals(rows))
	}
	sum, ok, err := db.QueryAggregate("vagg")
	if err != nil {
		t.Fatal(err)
	}
	state["vagg"] = []string{fmt.Sprintf("%v/%v", sum, ok)}
	return state
}

func diffStates(t *testing.T, label string, got, want map[string][]string) {
	t.Helper()
	for _, v := range []string{"vsp", "vjoin", "qsp", "vagg"} {
		g, w := got[v], want[v]
		if len(g) != len(w) {
			t.Errorf("%s: %s has %d entries, oracle has %d", label, v, len(g), len(w))
			continue
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("%s: %s entry %d: %q vs oracle %q", label, v, i, g[i], w[i])
				break
			}
		}
	}
}

// --- the integration test ----------------------------------------------------

// TestIntegrationConcurrentClients is the tentpole's proof of
// correctness under concurrency: 16 clients run disjoint-key-space
// mixed workloads (inserts, deletes, updates, interleaved reads)
// against one served engine across all three maintenance models, and
// the final view contents must equal a serial in-process replay of
// the same scripts. Disjoint key spaces make the final logical state
// independent of interleaving, so the oracle is exact.
func TestIntegrationConcurrentClients(t *testing.T) {
	const (
		nClients = 16
		span     = 50
		nTx      = 20
	)
	totalKeys := int64(nClients * span)

	db := core.NewDatabase(testDBOpts())
	t.Cleanup(func() { assertIdle(t, db) })
	_, addr := startServer(t, db, Config{MaxInflight: 64})

	admin := dialClient(t, addr)
	if err := installCatalogNet(admin, totalKeys); err != nil {
		t.Fatal(err)
	}

	scripts := make([][][]scriptOp, nClients)
	for i := range scripts {
		scripts[i] = genScript(int64(1000+i), int64(i*span), span, nTx)
	}

	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			runner := newNetRunner(c)
			for txi, ops := range scripts[i] {
				if err := runner.runTx(ops); err != nil {
					errs <- fmt.Errorf("client %d tx %d: %w", i, txi, err)
					return
				}
				// Interleave reads with writes: these exercise
				// query-modification and deferred refresh under load;
				// only success is asserted, contents are checked at
				// the end.
				if txi%5 == 2 {
					if _, err := c.QueryView("qsp", nil); err != nil {
						errs <- fmt.Errorf("client %d read qsp: %w", i, err)
						return
					}
				}
				if txi%7 == 3 {
					if _, _, err := c.QueryAggregate("vagg"); err != nil {
						errs <- fmt.Errorf("client %d read vagg: %w", i, err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	got := netState(t, admin)

	// Oracle: one engine, same catalog, every script replayed serially.
	oracle := core.NewDatabase(testDBOpts())
	t.Cleanup(func() { assertIdle(t, oracle) })
	if err := installCatalogLocal(oracle, totalKeys); err != nil {
		t.Fatal(err)
	}
	for i := range scripts {
		if err := runScriptLocal(oracle, scripts[i]); err != nil {
			t.Fatalf("oracle client %d: %v", i, err)
		}
	}
	want := localState(t, oracle)

	diffStates(t, "served engine", got, want)

	if h, err := admin.Health(); err != nil {
		t.Fatal(err)
	} else if h.Commits == 0 || h.Views != 4 {
		t.Errorf("health snapshot implausible: %+v", h)
	}
}

// TestGracefulShutdownDrains proves Shutdown lets an in-flight request
// finish and flush its response while refusing new work.
func TestGracefulShutdownDrains(t *testing.T) {
	db := core.NewDatabase(testDBOpts())
	srv, addr := startServer(t, db, Config{MaxInflight: 4})

	c := dialClient(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	// Park one request inside its admission slot, then shut down.
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.setAdmitHoldForTest(func() {
		close(entered)
		<-release
	})
	pinged := make(chan error, 1)
	go func() {
		c2 := dialClient(t, addr)
		pinged <- c2.Ping()
	}()
	<-entered
	srv.setAdmitHoldForTest(nil)

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// The drain must block on the parked request...
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned (%v) before in-flight request finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	// ...and complete once it is released, with the response delivered.
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-pinged; err != nil {
		t.Fatalf("in-flight ping during drain: %v", err)
	}
}
