package client_test

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"viewmat/internal/client"
	"viewmat/internal/core"
	"viewmat/internal/exec"
	"viewmat/internal/pred"
	"viewmat/internal/server"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// startServer serves a fresh engine on a loopback port for the test's
// lifetime.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv := server.New(core.NewDatabase(core.Options{PageSize: 512, PoolFrames: 64}), cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
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
		assertIdle(t, srv.DB())
	})
	return srv, lis.Addr().String()
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.DialOptions(addr, client.Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// rSchema is r(k INT, a INT, s STRING).
func rSchema() *tuple.Schema {
	return tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("s", tuple.String))
}

// keyedView defines name = π(k, s) σ(10 ≤ k < 30)(rel), clustered on k.
func keyedView(name, rel string) core.Def {
	return core.Def{
		Name:      name,
		Kind:      core.SelectProject,
		Relations: []string{rel},
		Pred: pred.New(
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(10)},
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(30)},
		),
		Project:    [][]int{{0, 2}},
		ViewKeyCol: 0,
	}
}

// keysOf returns the first column of every row.
func keysOf(rows [][]tuple.Value) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[0].Int()
	}
	return out
}

// TestTxReturnsServerIDsInOpOrder: a Tx buffers client-side and Commit
// returns one server-assigned id per insert and update, in the order
// those ops were queued — the ids later deletes and updates address.
func TestTxReturnsServerIDsInOpOrder(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	c := dial(t, addr)
	if err := c.CreateRelationBTree("r", rSchema(), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateView(keyedView("v", "r"), core.Immediate); err != nil {
		t.Fatal(err)
	}

	tx := c.Begin()
	tx.Insert("r", tuple.I(11), tuple.I(1), tuple.S("a"))
	tx.Insert("r", tuple.I(12), tuple.I(2), tuple.S("b"))
	tx.Insert("r", tuple.I(13), tuple.I(3), tuple.S("c"))
	if rows, err := c.QueryView("v", nil); err != nil || len(rows) != 0 {
		t.Fatalf("buffered ops reached the server before Commit: rows=%v err=%v", rows, err)
	}
	ids, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] == 0 || !(ids[0] < ids[1] && ids[1] < ids[2]) {
		t.Fatalf("insert ids = %v, want three ascending server-assigned ids", ids)
	}
	if _, err := tx.Commit(); err == nil {
		t.Error("second Commit of one Tx succeeded")
	}
	// Each id addresses the tuple queued at its position.
	for i, key := range []int64{11, 12, 13} {
		if err := addresses(srv.DB(), key, ids[i]); err != nil {
			t.Errorf("id %d does not address the insert queued at position %d: %v", ids[i], i, err)
		}
	}

	// A delete returns no id; the update and the insert around it do,
	// in queue order.
	tx = c.Begin()
	tx.Update("r", tuple.I(12), ids[1], tuple.I(22), tuple.I(20), tuple.S("moved"))
	tx.Delete("r", tuple.I(11), ids[0])
	tx.Insert("r", tuple.I(14), tuple.I(4), tuple.S("d"))
	ids2, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids2) != 2 || !(ids[2] < ids2[0] && ids2[0] < ids2[1]) {
		t.Fatalf("second commit ids = %v, want fresh ids for the update then the insert", ids2)
	}
	if err := addresses(srv.DB(), 22, ids2[0]); err != nil {
		t.Errorf("first id of the second commit is not the update's replacement: %v", err)
	}
	if err := addresses(srv.DB(), 14, ids2[1]); err != nil {
		t.Errorf("second id of the second commit is not the trailing insert's: %v", err)
	}
	rows, err := c.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := keysOf(rows); !reflect.DeepEqual(got, []int64{13, 14, 22}) {
		t.Errorf("view after both commits = %v, want keys 13 14 22", got)
	}
	for _, row := range rows {
		if row[0].Int() == 22 && row[1].Str() != "moved" {
			t.Errorf("the update's replacement reads %v in the view, want \"moved\"", row[1])
		}
	}
}

// addresses reports whether r holds a row of key and id, by deleting it
// on a copy of the engine: the delete finds the row under its id alone.
func addresses(db *core.Database, key int64, id uint64) error {
	var saved bytes.Buffer
	if err := db.Save(&saved); err != nil {
		return err
	}
	cp, err := core.Load(&saved)
	if err != nil {
		return err
	}
	del := cp.Begin()
	if err := del.Delete("r", tuple.I(key), id); err != nil {
		return err
	}
	return del.Commit()
}

// leafOf returns the name of a captured plan's source operator.
func leafOf(n *exec.PlanNode) string {
	for len(n.Children) > 0 {
		n = n.Children[0]
	}
	return n.Name
}

// TestQueryViewPlanRoundTripsEachPlan: the plan number a client passes
// is the access path the engine runs, a negative plan means the view's
// default, and a plan the relation cannot serve comes back as the
// engine's error.
func TestQueryViewPlanRoundTripsEachPlan(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	c := dial(t, addr)
	// byKey is clustered on the view key; byA is clustered elsewhere
	// and reaches the view key only through a secondary index.
	if err := c.CreateRelationBTree("byKey", rSchema(), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateRelationBTree("byA", rSchema(), 1); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSecondaryIndex("byA", 0); err != nil {
		t.Fatal(err)
	}
	tx := c.Begin()
	for i := int64(0); i < 40; i++ {
		tx.Insert("byKey", tuple.I(i), tuple.I(i*2), tuple.S("x"))
		tx.Insert("byA", tuple.I(i), tuple.I(i*2), tuple.S("x"))
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, d := range []core.Def{keyedView("vKey", "byKey"), keyedView("vA", "byA")} {
		if err := c.CreateView(d, core.QueryModification); err != nil {
			t.Fatal(err)
		}
	}

	rg := pred.NewRange(tuple.I(15), tuple.I(20), true, false)
	want := []int64{15, 16, 17, 18, 19}
	cases := []struct {
		view string
		plan int
		leaf string // source operator prefix; "" = the engine refuses
	}{
		{"vKey", -1, "Scan("},
		{"vKey", int(core.PlanAuto), "Scan("},
		{"vKey", int(core.PlanClustered), "Scan("},
		{"vKey", int(core.PlanSequential), "SeqScan("},
		{"vKey", int(core.PlanUnclustered), ""},
		{"vA", -1, "IndexFetch("},
		{"vA", int(core.PlanAuto), "IndexFetch("},
		{"vA", int(core.PlanUnclustered), "IndexFetch("},
		{"vA", int(core.PlanSequential), "SeqScan("},
		{"vA", int(core.PlanClustered), ""},
	}
	for _, tc := range cases {
		rows, err := c.QueryViewPlan(tc.view, rg, tc.plan)
		if tc.leaf == "" {
			if err == nil || errors.Is(err, client.ErrBadRequest) || errors.Is(err, client.ErrBusy) {
				t.Errorf("%s plan %d: err = %v, want the engine's refusal as a plain error", tc.view, tc.plan, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s plan %d: %v", tc.view, tc.plan, err)
			continue
		}
		if got := keysOf(rows); !reflect.DeepEqual(got, want) {
			t.Errorf("%s plan %d returned keys %v, want %v", tc.view, tc.plan, got, want)
		}
		plans, err := srv.DB().CapturedPlans(tc.view)
		if err != nil {
			t.Fatal(err)
		}
		if leaf := leafOf(plans[core.PlanPathQuery].Root); !strings.HasPrefix(leaf, tc.leaf) {
			t.Errorf("%s plan %d ran %s, want a %s…) source", tc.view, tc.plan, leaf, tc.leaf)
		}
	}
}

// TestOverAdmissionSurfacesErrBusy: a request that finds every
// admission slot taken comes back as client.ErrBusy, unexecuted, and
// succeeds once the slot frees.
func TestOverAdmissionSurfacesErrBusy(t *testing.T) {
	srv, addr := startServer(t, server.Config{MaxInflight: 1})
	holder, shed := dial(t, addr), dial(t, addr)
	if err := holder.CreateRelationBTree("r", rSchema(), 0); err != nil {
		t.Fatal(err)
	}
	if err := holder.CreateView(keyedView("v", "r"), core.QueryModification); err != nil {
		t.Fatal(err)
	}
	// Park the holder's query inside its admission slot: the plan
	// observer runs within the request, after the engine locks drop.
	entered, release := make(chan struct{}), make(chan struct{})
	srv.DB().SetPlanObserver(func(string, string, *exec.PlanNode, storage.Stats) {
		close(entered)
		<-release
	})
	held := make(chan error, 1)
	go func() {
		_, err := holder.QueryView("v", nil)
		held <- err
	}()
	<-entered
	srv.DB().SetPlanObserver(nil)
	if err := shed.Ping(); !errors.Is(err, client.ErrBusy) {
		t.Errorf("Ping while the only slot is held: err = %v, want client.ErrBusy", err)
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatalf("the admitted query failed: %v", err)
	}
	if err := shed.Ping(); err != nil {
		t.Errorf("Ping after the slot freed: %v", err)
	}
}

// TestCallOnClosedConnectionErrors: every call on a connection that is
// gone — closed locally, or dropped by the server — returns an error
// promptly instead of hanging.
func TestCallOnClosedConnectionErrors(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	local := dial(t, addr)
	if err := local.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := local.Close(); err != nil {
		t.Fatal(err)
	}
	remote := dial(t, addr)
	if err := remote.Ping(); err != nil {
		t.Fatal(err)
	}
	srv.Kill() // drops every server-side connection

	for name, c := range map[string]*client.Client{"closed locally": local, "dropped by the server": remote} {
		done := make(chan error, 1)
		go func() {
			if err := c.Ping(); err == nil {
				done <- errors.New("Ping succeeded")
				return
			}
			tx := c.Begin()
			tx.Insert("r", tuple.I(1), tuple.I(1), tuple.S("x"))
			if _, err := tx.Commit(); err == nil {
				done <- errors.New("Commit succeeded")
				return
			}
			_, err := c.QueryView("v", nil)
			if err == nil {
				err = errors.New("QueryView succeeded")
			} else {
				err = nil
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("connection %s: %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("connection %s: calls hung instead of returning an error", name)
		}
	}
}

// assertIdle fails the test if db's operation pools hold any frame once
// no operation runs: an operation ended with a pin still held.
func assertIdle(t *testing.T, db *core.Database) {
	t.Helper()
	if n := db.Health().PoolResident; n != 0 {
		t.Errorf("pin leak: %d frame(s) held with no operation running", n)
	}
}
