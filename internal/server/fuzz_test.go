package server

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"viewmat/internal/client"
	"viewmat/internal/core"
	"viewmat/internal/frame"
	"viewmat/internal/pred"
	"viewmat/internal/proto"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// fuzzSeedFrames builds representative inputs, hostile first: a valid
// frame, truncations, a CRC flip, an oversized length, raw junk; then
// the hot-path messages — a commit, a range query — a query answer with
// a lane byte flipped under a valid checksum, and create-view requests
// carrying definitions Def.Validate must refuse.
func fuzzSeedFrames(t testing.TB) [][]byte {
	request := func(req *proto.Request) []byte {
		var buf bytes.Buffer
		if err := proto.WriteRequest(&buf, req); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := request(&proto.Request{Op: proto.OpPing})

	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0xff // payload damage → CRC mismatch

	truncated := append([]byte(nil), valid[:len(valid)-3]...)

	huge := make([]byte, frame.HeaderSize)
	binary.LittleEndian.PutUint32(huge, 1<<31)

	var answer bytes.Buffer
	rows := &core.Answer{N: 2, Cols: make([]vec.Col, 2)}
	for i, s := range []string{"a", "b"} {
		rows.Cols[0].Append(tuple.I(int64(i + 1)))
		rows.Cols[1].Append(tuple.S(s))
	}
	if err := proto.WriteResponse(&answer, &proto.Response{Code: proto.CodeOK, Body: proto.BodyRows, Lanes: rows}); err != nil {
		t.Fatal(err)
	}
	flipped := answer.Bytes()
	flipped[len(flipped)-1] ^= 0xff // a string lane's last byte
	frame.PutHeader(flipped, flipped[frame.HeaderSize:])

	seeds := [][]byte{
		valid,
		corrupt,
		truncated,
		valid[:5], // torn header
		huge,
		[]byte("GET / HTTP/1.1\r\n\r\n"), // wrong protocol entirely
		{},
		request(&proto.Request{Op: proto.OpCommit, TxOps: []proto.TxOpDTO{
			{Kind: proto.TxInsert, Rel: "r", Vals: []tuple.Value{tuple.I(1), tuple.I(2), tuple.S("s")}},
			{Kind: proto.TxUpdate, Rel: "r", Key: tuple.I(1), ID: 1, Vals: []tuple.Value{tuple.I(1), tuple.I(3), tuple.S("t")}},
		}}),
		request(&proto.Request{Op: proto.OpQueryView, Name: "v", Plan: -1,
			Range: pred.NewRange(tuple.I(0), tuple.I(1000), true, false)}),
		flipped,
	}
	for i := range hostileDefs() {
		seeds = append(seeds, request(&proto.Request{Op: proto.OpCreateView, View: &hostileDefs()[i], Strategy: int(core.Immediate)}))
	}
	return seeds
}

// FuzzServerFrame feeds arbitrary bytes to the protocol decoder and to
// a live server socket. The invariants: the decoder returns typed
// errors and never panics, and a server that just ate a hostile frame
// still answers a well-formed client perfectly.
func FuzzServerFrame(f *testing.F) {
	for _, seed := range fuzzSeedFrames(f) {
		f.Add(seed)
	}

	db := core.NewDatabase(testDBOpts())
	if _, err := db.CreateRelationBTree("r", baseSchema(), 0); err != nil {
		f.Fatal(err) // the relation the create-view seeds name
	}
	_, addr := startServer(f, db, Config{MaxInflight: 8, ReadTimeout: 100 * time.Millisecond})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decoder directly: any outcome but a panic is acceptable, and
		// an error must be one the connection loop classifies.
		if _, err := proto.ReadRequest(bytes.NewReader(data)); err != nil {
			_ = err.Error() // typed or wrapped — just must exist and format
		}

		// Live socket: write the junk, drain whatever comes back, then
		// prove the server is still healthy on a fresh connection.
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		conn.SetDeadline(time.Now().Add(time.Second))
		conn.Write(data)
		// One read is enough to let a response (if any) flush; the
		// server's short idle deadline reaps the connection either way.
		conn.Read(make([]byte, 512))
		conn.Close()

		c, err := client.Dial(addr)
		if err != nil {
			t.Fatalf("dial after junk: %v", err)
		}
		defer c.Close()
		if err := c.Ping(); err != nil {
			t.Fatalf("ping after junk: %v", err)
		}
	})
}

// TestDamagedFramesDoNotLeakGoroutines hammers a server with damaged
// streams and half-open connections, then requires the goroutine count
// to return to its pre-server baseline after shutdown — no reader or
// handler may outlive its connection.
func TestDamagedFramesDoNotLeakGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	db := core.NewDatabase(testDBOpts())
	srv, addr := startServer(t, db, Config{MaxInflight: 8, ReadTimeout: 200 * time.Millisecond})

	seeds := fuzzSeedFrames(t)
	for round := 0; round < 5; round++ {
		for _, seed := range seeds {
			conn, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			conn.Write(seed)
			if round%2 == 0 {
				conn.Close() // half-open: reader must give up via its idle deadline
			} else {
				conn.SetDeadline(time.Now().Add(time.Second))
				buf := make([]byte, 256)
				for {
					if _, err := conn.Read(buf); err != nil {
						break
					}
				}
				conn.Close()
			}
		}
	}

	// A healthy request still works amid the wreckage.
	c := dialClient(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	srv.Kill()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
