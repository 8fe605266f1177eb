package server

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"viewmat/internal/core"
	"viewmat/internal/exec"
	"viewmat/internal/pred"
	"viewmat/internal/proto"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// wideMat builds the system benchmark's wide-mat shape in process:
// R(k, a, p) of n rows loaded in ascending key order, 2 000 a
// transaction, on 4 000-byte pages and a 256-frame pool, and the
// Immediate Model-1 view v1 = π(k, p) σ(k < n/2)(R).
func wideMat(tb testing.TB, n int64) *core.Database {
	tb.Helper()
	db := core.NewDatabase(core.Options{PageSize: 4000, PoolFrames: 256})
	schema := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("p", tuple.Int))
	if _, err := db.CreateRelationBTree("R", schema, 0); err != nil {
		tb.Fatal(err)
	}
	for lo := int64(0); lo < n; lo += 2000 {
		tx := db.Begin()
		for k := lo; k < min(lo+2000, n); k++ {
			if _, err := tx.Insert("R", tuple.I(k), tuple.I(k*40503%n), tuple.I((k*7919+17)%1000)); err != nil {
				tb.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	v1 := core.Def{
		Name: "v1", Kind: core.SelectProject, Relations: []string{"R"},
		Pred:    pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(n / 2)}),
		Project: [][]int{{0, 2}}, ViewKeyCol: 0,
	}
	if err := db.CreateView(v1, core.Immediate); err != nil {
		tb.Fatal(err)
	}
	return db
}

// wideRange is wide-mat's 1 000-row range query on v1 starting at lo.
func wideRange(lo int64) *proto.Request {
	return &proto.Request{Op: proto.OpQueryView, Name: "v1", Plan: -1,
		Range: pred.NewRange(tuple.I(lo), tuple.I(lo+1000), true, false)}
}

// discardConn is a connection whose writes all succeed into io.Discard.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return io.Discard.Write(p) }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// raceBuild reports whether the test binary runs under the race
// detector, whose instrumentation moves stack buffers to the heap.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// allocBound is a guard's bound: max, or raceMax under the race detector.
func allocBound(max, raceMax float64) float64 {
	if raceBuild() {
		return raceMax
	}
	return max
}

// wireRows is a row-set answer's rows after a trip through the codec.
func wireRows(t *testing.T, resp *proto.Response) [][]tuple.Value {
	t.Helper()
	var buf bytes.Buffer
	if err := proto.WriteResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	back, err := proto.ReadResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return lanesRows(back)
}

// lanesRows is a decoded answer gathered to rows, as the client does.
func lanesRows(resp *proto.Response) [][]tuple.Value {
	return core.GatherRows(*resp.Lanes, func(vals []tuple.Value) []tuple.Value { return vals })
}

// sameRows reports whether two answers hold the same rows in the same
// order, bit for bit (NaN payloads included).
func sameRows(a, b [][]tuple.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(tuple.New(0, a[i]...).Encode(nil), tuple.New(0, b[i]...).Encode(nil)) {
			return false
		}
	}
	return true
}

// TestServedRangeReadAllocations pins what one served wide-mat read
// allocates from the admitted request to the written frame: the handler
// (process: the engine's read, answering in the executor's lanes) and
// the response write (the row set encoded from those lanes). Most of it
// is the cold scan's decode of the ~20 view pages. While the answer was
// gathered to rows three times on the way — exec rows, core result rows,
// the handler's value slices — and the encoder transposed those back
// through scratch tuples, a read took 58 objects and 371 KiB (146 and
// 512 KiB under the race detector); in lanes, 58 and 124 KiB (147 and
// 177 KiB). Every gather was one flat array, so the objects hardly
// moved; the bytes bound is the one a row gather trips. While the scan
// regrew each batch's lanes leaf by leaf it stayed there; with the lanes
// sized once from the leaf directory a read took 38 objects and 61 KiB
// (130 and 138 KiB); cut from the leaves' kept lanes, with nothing
// decoded, 23 and 59 KiB (80 and 84 KiB), against bounds of 46 and 75
// (160 and 170). With the scan's batch taken as the answer rather than
// copied again, and the frame built in one buffer, it takes 19 objects
// and 38 KiB (76 and 63 KiB); the bounds keep the old margins.
func TestServedRangeReadAllocations(t *testing.T) {
	const n, lo = 20000, 4000
	db := wideMat(t, n)
	srv := New(db, Config{})
	req := wideRange(lo)

	want, err := db.QueryView("v1", req.Range)
	if err != nil {
		t.Fatal(err)
	}
	got := wireRows(t, srv.process(req))
	if len(got) != 1000 || got[0][0].Int() != lo || !sameRows(got, resultRowsToVals(want)) {
		t.Fatalf("served %d rows (first %v), want QueryView's %d", len(got), got[0], len(want))
	}

	read := func() {
		if !srv.writeResponse(discardConn{}, srv.process(req)) {
			t.Fatal("writeResponse reported the connection unusable")
		}
	}
	allocs := testing.AllocsPerRun(20, read)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	kib := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("%.0f allocations, %.0f KiB a served 1000-row read (race detector: %v)", allocs, kib, raceBuild())
	if max := allocBound(38, 152); allocs > max {
		t.Errorf("served range read allocated %.0f objects, want at most %.0f", allocs, max)
	}
	if max := allocBound(48, 128); kib > max {
		t.Errorf("served range read allocated %.0f KiB, want at most %.0f", kib, max)
	}
}

// TestServedAnswersMatchQueryView: whatever shape an answer has, the rows
// a client reads off the socket are db.QueryView's, in its order and bit
// for bit — the lanes the server encodes are the rows QueryView gathers.
func TestServedAnswersMatchQueryView(t *testing.T) {
	db := core.NewDatabase(testDBOpts())
	r1, r2 := joinSchemas()
	for _, c := range []struct {
		name   string
		schema *tuple.Schema
	}{{"r", baseSchema()}, {"r1", r1}, {"r2", r2}} {
		if _, err := db.CreateRelationBTree(c.name, c.schema, 0); err != nil {
			t.Fatal(err)
		}
	}
	tx := db.Begin()
	for i := int64(0); i < 300; i++ {
		colour := []string{"red", "green", "blue"}[i%3]
		for _, ins := range []struct {
			rel  string
			vals []tuple.Value
		}{
			{"r", []tuple.Value{tuple.I(i), tuple.I(i % 7), tuple.S(colour)}},
			{"r1", []tuple.Value{tuple.I(i), tuple.I(i % 40), tuple.S(colour)}},
			{"r2", []tuple.Value{tuple.I(i), tuple.S(string(rune('a' + i%26)))}},
		} {
			if _, err := tx.Insert(ins.rel, ins.vals...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// dups projects the key away: a stored row (a, s) stands for every
	// key that shares it, Dup of them.
	dups := spDef("dups", 0, 200)
	dups.Project, dups.ViewKeyCol = [][]int{{1, 2}}, 0
	for _, v := range []struct {
		def      core.Def
		strategy core.Strategy
	}{
		{dups, core.Immediate},
		{spDef("strs", 0, 300), core.Immediate},
		{joinViewDef("join"), core.Immediate},
		{spDef("qm", 50, 250), core.QueryModification},
	} {
		if err := db.CreateView(v.def, v.strategy); err != nil {
			t.Fatal(err)
		}
	}
	srv, addr := startServer(t, db, Config{})
	c := dialClient(t, addr)

	cases := []struct {
		name, view string
		rg         *pred.Range
		check      func(rows [][]tuple.Value) bool
	}{
		{"stored rows with Dup > 1", "dups", nil, func(rows [][]tuple.Value) bool { return len(rows) == 200 }},
		{"empty range", "strs", pred.NewRange(tuple.I(1000), tuple.I(2000), true, false),
			func(rows [][]tuple.Value) bool { return len(rows) == 0 }},
		{"string column", "strs", pred.NewRange(tuple.I(10), tuple.I(20), true, true),
			func(rows [][]tuple.Value) bool { return len(rows) == 11 && rows[0][1].Str() == "green" }},
		{"Model-2 join", "join", nil, func(rows [][]tuple.Value) bool { return len(rows) == 300 && len(rows[0]) == 3 }},
		{"query modification", "qm", pred.NewRange(tuple.I(0), tuple.I(100), true, false),
			func(rows [][]tuple.Value) bool { return len(rows) == 50 && rows[0][0].Int() == 50 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := db.QueryView(tc.view, tc.rg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.QueryView(tc.view, tc.rg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(got, resultRowsToVals(want)) {
				t.Fatalf("served %d rows %v, QueryView %d rows %v", len(got), got, len(want), want)
			}
			if !tc.check(got) {
				t.Fatalf("answer %v does not have the case's shape", got)
			}
		})
	}
	queryRoot := func(view string) *exec.PlanNode {
		plans, err := db.CapturedPlans(view)
		if err != nil || plans[core.PlanPathQuery] == nil {
			t.Fatalf("no query plan captured for %s: %v", view, err)
		}
		return plans[core.PlanPathQuery].Root
	}
	// dups' 200 logical rows are 21 stored rows: 7 values of a × 3 colours.
	if scan := queryRoot("dups").Children[0]; scan.Stats.RowsOut != 21 {
		t.Errorf("dups' %s read %d stored rows, want 21 carrying Dup > 1", scan.Name, scan.Stats.RowsOut)
	}
	if root := queryRoot("qm"); root.Name != "Project(qm)" {
		t.Errorf("qm's answer came off %s, want its Project", root.Name)
	}

	// No schema lets the engine store a column of mixed types, so that
	// answer is made by hand and written the way the handler's is.
	t.Run("mixed-type column", func(t *testing.T) {
		vals := []tuple.Value{tuple.I(1), tuple.S("two"), tuple.F(3), tuple.S(""), tuple.I(-5)}
		ans := core.Answer{N: len(vals), Cols: make([]vec.Col, 2)}
		for i, v := range vals {
			ans.Cols[0].Append(v)
			ans.Cols[1].Append(tuple.I(int64(i)))
		}
		peer, conn := net.Pipe()
		defer peer.Close()
		defer conn.Close()
		go srv.writeResponse(conn, &proto.Response{Code: proto.CodeOK, Body: proto.BodyRows, Lanes: &ans})
		peer.SetDeadline(time.Now().Add(10 * time.Second))
		resp, err := proto.ReadResponse(peer)
		if err != nil {
			t.Fatal(err)
		}
		if got := lanesRows(resp); !sameRows(got, resultRowsToVals(ans.Rows())) {
			t.Fatalf("served %v, the answer's rows %v", got, ans.Rows())
		}
	})
}
