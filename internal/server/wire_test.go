package server

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"viewmat/internal/client"
	"viewmat/internal/core"
	"viewmat/internal/pred"
	"viewmat/internal/proto"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// TestOversizeAnswerKeepsConnection: a result too large for one frame
// used to fail the write, close the socket and leave the client a bare
// EOF. It is answered CodeError, and the connection serves the next
// request.
func TestOversizeAnswerKeepsConnection(t *testing.T) {
	srv := New(core.NewDatabase(testDBOpts()), Config{})
	peer, conn := net.Pipe()
	defer peer.Close()
	defer conn.Close()

	huge := strings.Repeat("x", proto.MaxFrame)
	lanes := &core.Answer{N: 1, Cols: make([]vec.Col, 1)}
	lanes.Cols[0].Append(tuple.S(huge))
	usable := make(chan bool, 2)
	go func() {
		usable <- srv.writeResponse(conn, &proto.Response{Code: proto.CodeOK, Body: proto.BodyRows, Lanes: lanes})
		usable <- srv.writeResponse(conn, srv.process(&proto.Request{Op: proto.OpPing}))
	}()

	peer.SetDeadline(time.Now().Add(10 * time.Second))
	resp, err := proto.ReadResponse(peer)
	if err != nil {
		t.Fatalf("reading the answer to an oversize result: %v", err)
	}
	if resp.Code != proto.CodeError || !strings.Contains(resp.Err, "16 MiB frame cap") {
		t.Fatalf("oversize result answered %+v, want CodeError naming the frame cap", resp)
	}
	if !<-usable {
		t.Fatal("writeResponse reported the connection unusable after the result")
	}
	if resp, err = proto.ReadResponse(peer); err != nil || resp.Code != proto.CodeOK {
		t.Fatalf("ping on the same connection after the result: %+v, %v", resp, err)
	}
	if !<-usable {
		t.Fatal("writeResponse reported the connection unusable after the ping")
	}
}

// TestClientFailsAfterTimedOutCall: a call that timed out leaves its
// late response in the socket. The next call used to read it as its own
// answer; now the client is poisoned and every later call fails.
func TestClientFailsAfterTimedOutCall(t *testing.T) {
	db := core.NewDatabase(testDBOpts())
	if _, err := db.CreateRelationBTree("r", baseSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := int64(0); i < 5; i++ {
		if _, err := tx.Insert("r", tuple.I(i), tuple.I(i), tuple.S("s")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(spDef("v", 0, 100), core.Immediate); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, db, Config{})

	arrived, release, answered := make(chan struct{}), make(chan struct{}), make(chan struct{})
	srv.setAdmitHoldForTest(func() {
		close(arrived)
		<-release
		srv.setAdmitHoldForTest(nil)
		close(answered)
	})
	c, err := client.DialOptions(addr, client.Options{Timeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if rows, err := c.QueryView("v", nil); err == nil {
		t.Fatalf("held query returned %d rows before its release", len(rows))
	}
	<-arrived
	close(release)
	<-answered // the five rows are now on their way to a client that gave up

	if rows, err := c.QueryView("v", pred.NewRange(tuple.I(0), tuple.I(1), true, false)); err == nil {
		t.Fatalf("call after a timed-out call returned %d rows: its range holds 1, the previous call's answer 5", len(rows))
	}
	if err := c.Ping(); err == nil {
		t.Fatal("ping on a poisoned client succeeded")
	}

	// The server is unharmed.
	if err := dialClient(t, addr).Ping(); err != nil {
		t.Fatal(err)
	}
}

// hostileDefs are view definitions no honest client sends. Def.Validate
// used to panic on the first (slot -1 indexed the schemas) and let the
// others through.
func hostileDefs() []core.Def {
	negSlot, kind7, joinCol := spDef("h1", 0, 10), spDef("h2", 0, 10), spDef("h3", 0, 10)
	negSlot.Pred = pred.New(pred.Cmp{Rel: -1, Col: 0, Op: pred.Lt, Val: tuple.I(1)})
	kind7.Kind = 7
	joinCol.Kind, joinCol.Relations, joinCol.Project = core.Join, []string{"r", "r"}, [][]int{{0}, {0}}
	joinCol.Pred = pred.New(pred.JoinEq{LRel: 0, LCol: 99, RRel: -1, RCol: 0})
	return []core.Def{negSlot, kind7, joinCol}
}

// TestCreateViewRefusesHostileRequests: over the socket, a strategy
// number between the defined ones is a bad request (3–99 used to reach
// the engine), and a hostile definition is an engine error, not a
// recovered panic and not a view.
func TestCreateViewRefusesHostileRequests(t *testing.T) {
	db := core.NewDatabase(testDBOpts())
	if _, err := db.CreateRelationBTree("r", baseSchema(), 0); err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		logged []string
	)
	_, addr := startServer(t, db, Config{Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, format)
	}})
	c := dialClient(t, addr)
	if err := c.CreateView(spDef("v", 0, 10), core.Strategy(50)); !errors.Is(err, client.ErrBadRequest) {
		t.Errorf("strategy 50: err = %v, want ErrBadRequest", err)
	}
	for _, def := range hostileDefs() {
		err := c.CreateView(def, core.Immediate)
		if err == nil || errors.Is(err, client.ErrBadRequest) || strings.Contains(err.Error(), "internal:") {
			t.Errorf("view %q: err = %v, want the engine's refusal", def.Name, err)
		}
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if names := db.ViewNames(); len(names) != 0 {
		t.Errorf("views %v were created", names)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logged {
		if strings.Contains(line, "panic") {
			t.Errorf("server logged %q", line)
		}
	}
}
