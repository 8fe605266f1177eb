package server

import (
	"net"
	"strings"
	"testing"
	"time"

	"viewmat/internal/client"
	"viewmat/internal/core"
	"viewmat/internal/pred"
	"viewmat/internal/proto"
	"viewmat/internal/tuple"
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

	usable := make(chan bool, 2)
	go func() {
		big := [][]tuple.Value{{tuple.S(strings.Repeat("x", proto.MaxFrame))}}
		usable <- srv.writeResponse(conn, &proto.Response{Code: proto.CodeOK, Body: proto.BodyRows, Rows: big})
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
		t.Fatal("writeResponse reported the connection unusable")
	}
	if resp, err = proto.ReadResponse(peer); err != nil || resp.Code != proto.CodeOK {
		t.Fatalf("ping on the same connection: %+v, %v", resp, err)
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
