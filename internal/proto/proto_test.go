package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/colpage"
	"viewmat/internal/core"
	"viewmat/internal/costmodel"
	"viewmat/internal/frame"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

func encodeRequest(t testing.TB, req *Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeResponse(t testing.TB, resp *Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// framed wraps a payload in a valid frame, so a decode test reaches the
// message decoder and not the checksum.
func framed(t testing.TB, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := frame.Write(&buf, append(make([]byte, frame.HeaderSize), payload...), 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// answer is rows, which share an arity, as the column lanes a query
// answer travels in, built cell by cell.
func answer(rows ...[]tuple.Value) *core.Answer {
	a := &core.Answer{N: len(rows), Cols: []vec.Col{}}
	if len(rows) > 0 {
		a.Cols = make([]vec.Col, len(rows[0]))
	}
	for _, r := range rows {
		for c, v := range r {
			a.Cols[c].Append(v)
		}
	}
	return a
}

// gatherRows is a decoded answer gathered to rows, as the client does.
func gatherRows(resp *Response) [][]tuple.Value {
	return core.GatherRows(*resp.Lanes, func(vals []tuple.Value) []tuple.Value { return vals })
}

func joinDef() core.Def {
	return core.Def{
		Name:      "vjoin",
		Kind:      core.Join,
		Relations: []string{"r1", "r2"},
		Pred: pred.New(
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(100)},
			pred.Cmp{Rel: 1, Col: 1, Op: pred.Eq, Val: tuple.S("x")},
			pred.JoinEq{LRel: 0, LCol: 1, RRel: 1, RCol: 0},
			// Atoms of the least size, enough of them that a count check
			// assuming a larger atom would refuse the message.
			pred.Cmp{Op: pred.Ne, Val: tuple.S("")}, pred.Cmp{Op: pred.Ne, Val: tuple.S("")},
			pred.Cmp{Op: pred.Ne, Val: tuple.S("")}, pred.Cmp{Op: pred.Ne, Val: tuple.S("")},
			pred.Cmp{Op: pred.Ne, Val: tuple.S("")}, pred.Cmp{Op: pred.Ne, Val: tuple.S("")},
		),
		Project:    [][]int{{0, 2}, {1}},
		ViewKeyCol: 0,
		AggKind:    agg.Sum,
		AggCol:     1,
		GroupBy:    -1,
	}
}

// TestRequestRoundTrip sends one request of every Op through the codec.
func TestRequestRoundTrip(t *testing.T) {
	view := joinDef()
	schema := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("s", tuple.String))
	half := tuple.F(0.5)
	reqs := []*Request{
		{Op: OpPing},
		{Op: OpCreateRelBTree, Name: "r1", Schema: schema, KeyCol: 1},
		{Op: OpCreateRelHash, Name: "r2", Schema: schema, KeyCol: 0, Buckets: 64},
		{Op: OpCreateView, View: &view, Strategy: int(core.Deferred)},
		{Op: OpDropView, Name: "vjoin"},
		{Op: OpCommit, TxOps: []TxOpDTO{
			{Kind: TxInsert, Rel: "r1", Vals: []tuple.Value{tuple.I(4), tuple.F(2.5), tuple.S("x")}},
			{Kind: TxDelete, Rel: "r1", Key: tuple.I(9), ID: 77},
			{Kind: TxUpdate, Rel: "r2", Key: tuple.S("k"), ID: math.MaxUint64, Vals: []tuple.Value{tuple.S("k"), tuple.I(-1)}},
			{Kind: TxInsert, Rel: "empty"},
		}},
		{Op: OpCommit},
		{Op: OpQueryView, Name: "v", Plan: -1},
		{Op: OpQueryView, Name: "v", Plan: int(core.PlanSequential), Range: pred.NewRange(tuple.I(1), tuple.I(50), true, false)},
		{Op: OpQueryView, Name: "v", Range: &pred.Range{Hi: &half, HiInc: true}},
		{Op: OpQueryView, Name: "v", Range: &pred.Range{}},
		{Op: OpQueryAggregate, Name: "vsum"},
		{Op: OpRefreshAll},
		{Op: OpCheckpoint},
		{Op: OpHealth},
		{Op: OpAdvisorStats},
		{Op: OpAdaptTick},
		{Op: OpCreateSecondary, Name: "r1", KeyCol: 2},
	}
	seen := map[Op]bool{}
	for _, req := range reqs {
		seen[req.Op] = true
		got, err := ReadRequest(bytes.NewReader(encodeRequest(t, req)))
		if err != nil {
			t.Fatalf("%v: %v", req.Op, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("%v: round trip mutated the request:\n got %+v\nwant %+v", req.Op, got, req)
		}
	}
	for op := OpPing; op <= OpCreateSecondary; op++ {
		if !seen[op] {
			t.Errorf("no request of op %v in the table", op)
		}
	}

}

// TestResponseRoundTrip sends a response of every Code and every Body
// through the codec.
func TestResponseRoundTrip(t *testing.T) {
	resps := []*Response{
		{Code: CodeOK},
		{Code: CodeBusy, Err: "server busy"},
		{Code: CodeBadRequest, Err: "create-view: missing definition"},
		{Code: CodeError, Err: "core: unknown view \"v\""},
		{Code: CodeShutdown, Err: ""},
		{Code: CodeOK, Body: BodyIDs, IDs: []uint64{3, 9, math.MaxUint64}},
		{Code: CodeOK, Body: BodyIDs},
		{Code: CodeOK, Body: BodyRows, Lanes: answer([]tuple.Value{tuple.I(1), tuple.S("a")}, []tuple.Value{tuple.I(2), tuple.S("")})},
		{Code: CodeOK, Body: BodyRows, Lanes: answer()},
		{Code: CodeOK, Body: BodyAgg, Agg: -2.5, AggOK: true},
		{Code: CodeOK, Body: BodyAgg},
		{Code: CodeOK, Body: BodyHealth, Health: &core.Health{Relations: 2, Views: 3, Durable: true, RefreshWaiters: 7}},
		{Code: CodeOK, Body: BodyAdvisor, Advisor: []core.AdvisorViewStat{{
			View: "v", Strategy: "deferred", Observations: 12.5, Flips: 1,
			Params: costmodel.Params{N: 1000}, Costs: map[string]float64{"deferred": 1, "immediate": 2}, Best: "deferred",
		}}},
		{Code: CodeOK, Body: BodyAdvisor},
		{Code: CodeOK, Body: BodyFlips, Flips: []core.FlipReport{{View: "v", From: "qm", To: "immediate", PredictedGain: 0.4, Reason: "model"}}},
		{Code: CodeOK, Body: BodyFlips},
	}
	codes, bodies := map[Code]bool{}, map[Body]bool{}
	for _, resp := range resps {
		codes[resp.Code], bodies[resp.Body] = true, true
		got, err := ReadResponse(bytes.NewReader(encodeResponse(t, resp)))
		if err != nil {
			t.Fatalf("%+v: %v", resp, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("round trip mutated the response:\n got %+v\nwant %+v", got, resp)
		}
	}
	for c := CodeOK; c <= CodeShutdown; c++ {
		if !codes[c] {
			t.Errorf("no response of code %d in the table", c)
		}
	}
	for b := BodyNone; b <= BodyFlips; b++ {
		if !bodies[b] {
			t.Errorf("no response of body kind %d in the table", b)
		}
	}
}

// TestReadRequestRejectsGarbagePayload: well-framed bytes that are not
// a message fail with ErrDecode, requests and responses alike — no
// unknown tag is read as something else, no count is trusted beyond the
// bytes behind it, nothing may follow a complete body.
func TestReadRequestRejectsGarbagePayload(t *testing.T) {
	u32 := func(n uint32) []byte { return binary.BigEndian.AppendUint32(nil, n) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	str := func(s string) []byte { return cat(u32(uint32(len(s))), []byte(s)) }
	i64 := func(n int64) []byte { return binary.BigEndian.AppendUint64(nil, uint64(n)) }
	// The range flag byte's bits (pred.CodeRange).
	const rangePresent, rangeHasLo = 1, 2
	ping := []byte{byte(OpPing)}
	query := cat([]byte{byte(OpQueryView)}, str("v"), i64(-1))

	requests := map[string][]byte{
		"text":                   []byte("not a request"),
		"op zero":                {0},
		"unknown op":             {byte(OpCreateSecondary) + 1},
		"trailing byte":          cat(ping, []byte{0}),
		"name cut short":         cat([]byte{byte(OpDropView)}, u32(5), []byte("ab")),
		"name length only":       cat([]byte{byte(OpDropView)}, []byte{0, 0}),
		"tx-op count too large":  cat([]byte{byte(OpCommit)}, u32(1<<31)),
		"tx-op count one over":   cat([]byte{byte(OpCommit)}, u32(2), []byte{TxInsert}, str("r"), u32(0)),
		"unknown tx-op kind":     cat([]byte{byte(OpCommit)}, u32(1), []byte{TxUpdate + 1}, str("r"), u32(0)),
		"unknown value tag":      cat([]byte{byte(OpCommit)}, u32(1), []byte{TxInsert}, str("r"), u32(1), []byte{3, 0, 0, 0, 0, 0, 0, 0, 0}),
		"value cut short":        cat([]byte{byte(OpCommit)}, u32(1), []byte{TxInsert}, str("r"), u32(1), []byte{byte(tuple.Int), 0, 0, 0, 0}),
		"value count too large":  cat([]byte{byte(OpCommit)}, u32(1), []byte{TxInsert}, str("r"), u32(1000)),
		"unknown range bit":      cat(query, []byte{rangePresent | 1<<5}),
		"range bits, no range":   cat(query, []byte{rangeHasLo}),
		"range bound missing":    cat(query, []byte{rangePresent | rangeHasLo}),
		"range bound unflagged":  cat(query, []byte{rangePresent}, tuple.AppendValue(nil, tuple.I(1))),
		"unknown column type":    cat([]byte{byte(OpCreateRelBTree)}, str("r"), u32(1), str("k"), []byte{3}, i64(0)),
		"schema count too large": cat([]byte{byte(OpCreateRelBTree)}, str("r"), u32(1<<30)),
		"atom flag not 0 or 1": cat([]byte{byte(OpCreateView)}, str("v"), i64(0), u32(0), u32(1), []byte{2},
			bytes.Repeat([]byte{0}, 64)),
	}
	for name, payload := range requests {
		if _, err := ReadRequest(bytes.NewReader(framed(t, payload))); !errors.Is(err, ErrDecode) {
			t.Errorf("request %q: err = %v, want ErrDecode", name, err)
		}
	}

	one := answer([]tuple.Value{tuple.I(1)}, []tuple.Value{tuple.I(300)})
	rows, err := colpage.AppendLanes(nil, one.N, one.Cols)
	if err != nil {
		t.Fatal(err)
	}
	okBody := func(b Body, rest ...[]byte) []byte { return cat([]byte{byte(CodeOK), byte(b)}, cat(rest...)) }
	flipLane := append([]byte(nil), rows...)
	flipLane[6] = 99 // the first lane's encoding byte
	responses := map[string][]byte{
		"unknown code":           {byte(CodeShutdown) + 1},
		"ok without body kind":   {byte(CodeOK)},
		"unknown body kind":      okBody(BodyFlips + 1),
		"status with trailer":    okBody(BodyNone, []byte{0}),
		"id count too large":     okBody(BodyIDs, u32(2), i64(1)),
		"ids with trailer":       okBody(BodyIDs, u32(1), i64(1), []byte{0}),
		"agg flag not 0 or 1":    okBody(BodyAgg, []byte{2}, i64(0)),
		"agg cut short":          okBody(BodyAgg, []byte{1, 0, 0}),
		"rows without header":    okBody(BodyRows),
		"rows cut short":         okBody(BodyRows, rows[:len(rows)-1]),
		"rows with trailer":      okBody(BodyRows, rows, []byte{0}),
		"rows, unknown lane":     okBody(BodyRows, flipLane),
		"rows over the cell cap": okBody(BodyRows, u32(maxCells+1), []byte{0, 1}),
		"health cut short":       okBody(BodyHealth, []byte("junk")),
		"health flag not 0 or 1": okBody(BodyHealth, bytes.Repeat([]byte{0}, 12*8), []byte{2}),
		"flips without a count":  okBody(BodyFlips),
		"flip count too large":   okBody(BodyFlips, u32(2), bytes.Repeat([]byte{0}, 24)),
		"advisor costs out of order": okBody(BodyAdvisor, u32(1), bytes.Repeat([]byte{0}, 6*4+16*8-4),
			u32(2), str("b"), i64(0), str("a"), i64(0), str("")),
	}
	for name, payload := range responses {
		if _, err := ReadResponse(bytes.NewReader(framed(t, payload))); !errors.Is(err, ErrDecode) {
			t.Errorf("response %q: err = %v, want ErrDecode", name, err)
		}
	}

	// Frame damage keeps the frame package's errors.
	f := framed(t, ping)
	f[len(f)-1] ^= 0xff
	if _, err := ReadRequest(bytes.NewReader(f)); !errors.Is(err, frame.ErrChecksum) {
		t.Errorf("flipped payload byte: err = %v, want frame.ErrChecksum", err)
	}
}

// TestEncodeRejectsUnknownKinds: what the decoder would refuse, the
// encoder does not produce.
func TestEncodeRejectsUnknownKinds(t *testing.T) {
	var sink bytes.Buffer
	for _, req := range []*Request{
		{Op: 0},
		{Op: OpCreateSecondary + 1},
		{Op: OpCreateView},
		{Op: OpCommit, TxOps: []TxOpDTO{{Kind: 9, Rel: "r"}}},
	} {
		if err := WriteRequest(&sink, req); err == nil {
			t.Errorf("WriteRequest(%+v) succeeded", req)
		}
	}
	for _, resp := range []*Response{
		{Code: CodeShutdown + 1},
		{Code: CodeOK, Body: BodyFlips + 1},
		{Code: CodeOK, Body: BodyHealth},
		{Code: CodeOK, Body: BodyRows, Lanes: answer([]tuple.Value{tuple.I(1)}, []tuple.Value{})}, // ragged
	} {
		if err := WriteResponse(&sink, resp); err == nil {
			t.Errorf("WriteResponse(%+v) succeeded", resp)
		}
	}
	if sink.Len() != 0 {
		t.Errorf("%d bytes written by failed encodes", sink.Len())
	}
}

// TestOversizeResponseIsTooLarge: a response that cannot fit one frame
// fails with frame.ErrTooLarge and writes nothing, whether it is the
// bytes or the cell count that is over.
func TestOversizeResponseIsTooLarge(t *testing.T) {
	var sink bytes.Buffer
	big := &Response{Code: CodeOK, Body: BodyRows, Lanes: answer([]tuple.Value{tuple.S(strings.Repeat("x", MaxFrame))})}
	if err := WriteResponse(&sink, big); !errors.Is(err, frame.ErrTooLarge) {
		t.Errorf("over-cap string cell: err = %v, want frame.ErrTooLarge", err)
	}
	wide := &Response{Code: CodeOK, Body: BodyRows, Lanes: &core.Answer{N: maxCells + 1, Cols: make([]vec.Col, 1)}}
	wide.Lanes.Cols[0].GrowInts(maxCells + 1)
	if err := WriteResponse(&sink, wide); !errors.Is(err, frame.ErrTooLarge) {
		t.Errorf("over-cap cell count: err = %v, want frame.ErrTooLarge", err)
	}
	if sink.Len() != 0 {
		t.Errorf("%d bytes written by failed encodes", sink.Len())
	}
}

// TestRowsBoundaries round-trips query answers at the edges of the row
// encoding: value for value, bit for bit.
func TestRowsBoundaries(t *testing.T) {
	seq := func(n int) [][]tuple.Value {
		rows := make([][]tuple.Value, n)
		flat := make([]tuple.Value, 2*n)
		for i := range rows {
			flat[2*i], flat[2*i+1] = tuple.I(int64(i)), tuple.I(int64(i%7))
			rows[i] = flat[2*i : 2*i+2]
		}
		return rows
	}
	col := func(vals ...tuple.Value) [][]tuple.Value {
		rows := make([][]tuple.Value, len(vals))
		for i, v := range vals {
			rows[i] = []tuple.Value{v}
		}
		return rows
	}
	dict := make([]tuple.Value, 500)
	for i := range dict {
		dict[i] = tuple.S([]string{"red", "green", "blue"}[i%3])
	}
	// A second run whose lanes differ in kind from the first's.
	twoKinds := seq(colpage.MaxChunkRows + 3)
	for _, r := range twoKinds[colpage.MaxChunkRows:] {
		r[0], r[1] = tuple.S("tail"), tuple.F(math.NaN())
	}
	cases := []struct {
		name string
		rows [][]tuple.Value
		runs int // runs of lanes the answer needs
	}{
		{"0 rows", seq(0), 0},
		{"1 row", seq(1), 1},
		{"65535 rows", seq(colpage.MaxChunkRows), 1},
		{"65536 rows", seq(colpage.MaxChunkRows + 1), 2},
		{"second run of other types", twoKinds, 2},
		{"mixed-type column", col(tuple.I(1), tuple.S("two"), tuple.F(3), tuple.S(""), tuple.I(-1)), 1},
		{"empty strings", col(tuple.S(""), tuple.S(""), tuple.S("")), 1},
		{"one empty string", col(tuple.S("")), 1},
		{"dictionary strings", col(dict...), 1},
		{"long string", col(tuple.S("a"), tuple.S(strings.Repeat("z", 70000))), 1},
		{"NaN and infinities", col(tuple.F(math.NaN()), tuple.F(math.Float64frombits(0x7ff8dead0000beef)),
			tuple.F(math.Inf(1)), tuple.F(math.Inf(-1)), tuple.F(math.Copysign(0, -1)), tuple.F(0)), 1},
		{"int extremes", col(tuple.I(math.MinInt64), tuple.I(math.MaxInt64), tuple.I(0)), 1},
		{"zero columns", [][]tuple.Value{{}, {}, {}}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if runs := (len(tc.rows) + colpage.MaxChunkRows - 1) / colpage.MaxChunkRows; runs != tc.runs {
				t.Fatalf("case needs %d runs, table says %d", runs, tc.runs)
			}
			resp, err := ReadResponse(bytes.NewReader(encodeResponse(t, &Response{Code: CodeOK, Body: BodyRows, Lanes: answer(tc.rows...)})))
			if err != nil {
				t.Fatal(err)
			}
			got := gatherRows(resp)
			if len(got) != len(tc.rows) {
				t.Fatalf("%d rows came back, want %d", len(got), len(tc.rows))
			}
			for i, want := range tc.rows {
				if len(got[i]) != len(want) {
					t.Fatalf("row %d has %d cells, want %d", i, len(got[i]), len(want))
				}
				for c := range want {
					if g, w := tuple.AppendValue(nil, got[i][c]), tuple.AppendValue(nil, want[c]); !bytes.Equal(g, w) {
						t.Fatalf("row %d column %d: got %v (%x), want %v (%x)", i, c, got[i][c], g, want[c], w)
					}
				}
			}
		})
	}
}

// benchMessages are the four messages of the system benchmark's hot
// paths (bench/workload.go): wide-mat's [lo,lo+1000) range query on v1
// with its 1000-row (k, p) answer, and commit-imm's four-update
// transaction on R(k, a, p) with its four-id answer.
func benchMessages() (query *Request, rows *Response, commit *Request, ids *Response) {
	const n, lo = 100000, 4000
	query = &Request{Op: OpQueryView, Name: "v1", Plan: -1,
		Range: pred.NewRange(tuple.I(lo), tuple.I(lo+1000), true, false)}
	vals := make([][]tuple.Value, 1000)
	for i := range vals {
		k := int64(lo + i)
		vals[i] = []tuple.Value{tuple.I(k), tuple.I(1000 + k%1000)}
	}
	rows = &Response{Code: CodeOK, Body: BodyRows, Lanes: answer(vals...)}
	commit = &Request{Op: OpCommit}
	ids = &Response{Code: CodeOK, Body: BodyIDs}
	for i := 0; i < 4; i++ {
		k := int64(7919 * (i + 1))
		commit.TxOps = append(commit.TxOps, TxOpDTO{Kind: TxUpdate, Rel: "R", Key: tuple.I(k), ID: uint64(n + i),
			Vals: []tuple.Value{tuple.I(k), tuple.I(k * 40503 % n), tuple.I(1000 + k%1000 + 1)}})
		ids.IDs = append(ids.IDs, uint64(2*n+i))
	}
	return
}

// TestWireSizes pins the frame length of the benchmark's four hot
// messages. The system benchmark holds wire_bytes_per_op to 1 %; a
// change to the encoding shows up here first.
func TestWireSizes(t *testing.T) {
	query, rows, commit, ids := benchMessages()
	for _, tc := range []struct {
		name  string
		frame []byte
		want  int
	}{
		// 8 frame + 1 op + (4+2) name + 8 plan + 1 flags + 2×9 bounds
		{"range query", encodeRequest(t, query), 42},
		// 8 frame + 2 envelope + 6 row-set header + 2 × (1 enc + 8 ref + 1 width + 1000×2)
		{"1000-row answer", encodeResponse(t, rows), 4036},
		// 8 frame + 1 op + 4 count + 4 × (1 kind + (4+1) rel + 9 key + 8 id + 4 count + 3×9 values)
		{"4-update commit", encodeRequest(t, commit), 229},
		// 8 frame + 2 envelope + 4 count + 4×8
		{"4-id answer", encodeResponse(t, ids), 46},
	} {
		if len(tc.frame) != tc.want {
			t.Errorf("%s: %d bytes on the wire, want %d", tc.name, len(tc.frame), tc.want)
		}
	}
}

var benchSink any

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

// TestReadRowsAllocations pins what a client's read of the benchmark's
// 1000-row answer allocates once the frame is in: the row-set decode
// onto lanes and the gather to rows (BenchmarkCodec's rows/decode).
// While the decoder built the rows itself, without lanes, a read took
// 6 objects and 111 KB by BenchmarkCodec (7 and 108 KiB by this test,
// race detector or not); decoded onto lanes and gathered, 11 and 124.5
// KiB (13 and 140.5 KiB under the race detector): the two int lanes.
func TestReadRowsAllocations(t *testing.T) {
	_, rows, _, _ := benchMessages()
	frame := encodeResponse(t, rows)
	src := bytes.NewReader(frame)
	read := func() {
		src.Reset(frame)
		resp, err := ReadResponse(src)
		if err != nil {
			t.Fatal(err)
		}
		got := gatherRows(resp)
		if len(got) != 1000 {
			t.Fatalf("%d rows came back, want 1000", len(got))
		}
		benchSink = got
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
	t.Logf("%.0f allocations, %.1f KiB a decoded and gathered 1000-row answer (race detector: %v)", allocs, kib, raceBuild())
	maxAllocs, maxKiB := 11.0, 125.0
	if raceBuild() {
		maxAllocs, maxKiB = 13, 141
	}
	if allocs > maxAllocs {
		t.Errorf("a read allocated %.0f objects, want at most %.0f", allocs, maxAllocs)
	}
	if kib > maxKiB {
		t.Errorf("a read allocated %.1f KiB, want at most %.0f", kib, maxKiB)
	}
}

// BenchmarkCodec times encode and decode of the benchmark's four hot
// messages; allocs/op repeat exactly. The answer is encoded from lanes,
// as the server holds it, and decoded to rows, as the client hands it
// out.
func BenchmarkCodec(b *testing.B) {
	query, rows, commit, ids := benchMessages()
	for _, m := range []struct {
		name string
		req  *Request
		resp *Response
	}{
		{"query", query, nil}, {"rows", nil, rows}, {"commit", commit, nil}, {"ids", nil, ids},
	} {
		var frame []byte
		if m.req != nil {
			frame = encodeRequest(b, m.req)
		} else {
			frame = encodeResponse(b, m.resp)
		}
		b.Run(m.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			var sink bytes.Buffer
			for i := 0; i < b.N; i++ {
				sink.Reset()
				var err error
				if m.req != nil {
					err = WriteRequest(&sink, m.req)
				} else {
					err = WriteResponse(&sink, m.resp)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(m.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			src := bytes.NewReader(frame)
			for i := 0; i < b.N; i++ {
				src.Reset(frame)
				var err error
				if m.req != nil {
					benchSink, err = ReadRequest(src)
				} else {
					var resp *Response
					if resp, err = ReadResponse(src); err == nil && resp.Lanes != nil {
						benchSink = gatherRows(resp)
					}
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzProtoCodec feeds arbitrary payloads, well framed, to both
// decoders. They never panic and fail only with ErrDecode; whatever
// decodes re-encodes to a frame that decodes to an equal message.
func FuzzProtoCodec(f *testing.F) {
	query, rows, commit, ids := benchMessages()
	view := joinDef()
	for _, req := range []*Request{query, commit, {Op: OpPing}, {Op: OpCreateView, View: &view, Strategy: 2},
		{Op: OpCreateRelHash, Name: "r", Schema: tuple.NewSchema(tuple.Col("k", tuple.Int)), Buckets: 8}} {
		f.Add(encodeRequest(f, req)[frame.HeaderSize:])
	}
	for c := range rows.Lanes.Cols {
		rows.Lanes.Cols[c].Truncate(40)
	}
	rows.Lanes.N = 40
	for _, resp := range []*Response{rows, ids, {Code: CodeBusy, Err: "busy"}, {Code: CodeOK, Body: BodyAgg, Agg: math.NaN()},
		{Code: CodeOK, Body: BodyRows, Lanes: answer([]tuple.Value{tuple.S("a"), tuple.F(1)}, []tuple.Value{tuple.S("a"), tuple.I(2)})},
		{Code: CodeOK, Body: BodyHealth, Health: &core.Health{Views: 1, Durable: true, Meter: storage.Stats{Reads: 9}}},
		{Code: CodeOK, Body: BodyAdvisor, Advisor: []core.AdvisorViewStat{{View: "v", Strategy: "deferred",
			Params: costmodel.Default(), Costs: map[string]float64{"deferred": 1, "immediate": math.NaN()}, Best: "deferred"}}},
		{Code: CodeOK, Body: BodyFlips, Flips: []core.FlipReport{{View: "v", From: "immediate", To: "deferred", PredictedGain: 0.25}}}} {
		f.Add(encodeResponse(f, resp)[frame.HeaderSize:])
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) == 0 {
			return // not a frame
		}
		in := framed(t, payload)
		if req, err := ReadRequest(bytes.NewReader(in)); err != nil {
			if !errors.Is(err, ErrDecode) {
				t.Fatalf("ReadRequest: %v, want ErrDecode", err)
			}
		} else {
			first := encodeRequest(t, req)
			again, err := ReadRequest(bytes.NewReader(first))
			if err != nil {
				t.Fatalf("re-encoded request does not decode: %v", err)
			}
			// The encoding is a function of the content, so equal bytes
			// are equal messages, NaN payloads included.
			if !bytes.Equal(first, encodeRequest(t, again)) {
				t.Fatalf("request changed in re-encoding:\n first  %+v\n second %+v", req, again)
			}
		}
		if resp, err := ReadResponse(bytes.NewReader(in)); err != nil {
			if !errors.Is(err, ErrDecode) {
				t.Fatalf("ReadResponse: %v, want ErrDecode", err)
			}
		} else {
			first := encodeResponse(t, resp)
			again, err := ReadResponse(bytes.NewReader(first))
			if err != nil {
				t.Fatalf("re-encoded response does not decode: %v", err)
			}
			if !bytes.Equal(first, encodeResponse(t, again)) {
				t.Fatalf("response changed in re-encoding:\n first  %+v\n second %+v", resp, again)
			}
		}
	})
}
