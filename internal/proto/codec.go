package proto

import (
	"fmt"
	"io"

	"viewmat/internal/colpage"
	"viewmat/internal/core"
	"viewmat/internal/frame"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
)

// The message encoding. A frame's payload is one message:
//
//	request:   [1 op][body of that op]
//	response:  [1 code] then, for CodeOK, [1 body kind][body of that kind]
//	           and for every other code the error text to the end
//
// Every body is laid out with a tuple.Coder (big-endian fixed-width
// integers, [4 len][bytes] strings, tuple values), engine types in the
// layouts their own packages define, and a query answer's rows as a
// colpage row set. codeRequest and codeResponse each describe their
// message once, for both directions. DESIGN.md "Byte formats" has every
// layout.
//
// Decoding is strict. An unknown op, code, body kind, tx-op kind, flag
// bit or value tag, a count the remaining bytes cannot hold, and bytes
// left over after a complete body all fail with ErrDecode.

// WriteRequest frames req and writes it with one Write.
func WriteRequest(w io.Writer, req *Request) error {
	f, err := encode(256, req, codeRequest)
	if err != nil {
		return fmt.Errorf("proto: encoding %v request: %w", req.Op, err)
	}
	return frame.Write(w, f, MaxFrame)
}

// WriteResponse frames resp and writes it with one Write. A response
// too large for one frame fails with frame.ErrTooLarge before anything
// is written.
func WriteResponse(w io.Writer, resp *Response) error {
	// Room for two-byte cells; append grows it for wider ones.
	a := resp.answer()
	f, err := encode(256+2*a.N*len(a.Cols), resp, codeResponse)
	if err != nil {
		return fmt.Errorf("proto: encoding response: %w", err)
	}
	return frame.Write(w, f, MaxFrame)
}

// ReadRequest reads and decodes one request frame. Frame-level damage
// surfaces as the frame package's typed errors; a frame that passes
// its checksum but does not decode wraps ErrDecode. Neither ever
// panics, whatever the bytes.
func ReadRequest(r io.Reader) (*Request, error) { return read(r, codeRequest) }

// ReadResponse reads and decodes one response frame, with ReadRequest's
// error contract.
func ReadResponse(r io.Reader) (*Response, error) { return read(r, codeResponse) }

// encode walks msg into a frame's one buffer: HeaderSize bytes of room
// for the header frame.Write fills in, then the payload, with room made
// for capacity bytes of it.
func encode[T any](capacity int, msg *T, walk func(*tuple.Coder, *T)) ([]byte, error) {
	enc := tuple.NewEncoder(make([]byte, frame.HeaderSize, frame.HeaderSize+capacity))
	walk(&enc, msg)
	return enc.Done()
}

// read receives one frame and decodes its payload through walk.
func read[T any](r io.Reader, walk func(*tuple.Coder, *T)) (*T, error) {
	payload, err := frame.Read(r, MaxFrame)
	if err != nil {
		return nil, err
	}
	msg := new(T)
	dec := tuple.NewDecoder(payload)
	walk(&dec, msg)
	if _, err := dec.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	return msg, nil
}

// minTxOpSize is the least encoded size of a tx op (core.CodeTxOp): a
// kind, an empty relation name and an empty value list.
const minTxOpSize = 1 + 4 + 4

// present readies *p for walking: a decoder allocates it, an encoder
// fails when it is nil.
func present[T any](c *tuple.Coder, p **T, what string) bool {
	if c.Decoding() {
		*p = new(T)
	} else if *p == nil {
		c.Fail("missing %s", what)
		return false
	}
	return true
}

// codeRequest walks a request: [1 op] and the op's arguments.
func codeRequest(c *tuple.Coder, req *Request) {
	c.U8((*uint8)(&req.Op))
	switch req.Op {
	case OpPing, OpRefreshAll, OpCheckpoint, OpHealth, OpAdvisorStats, OpAdaptTick:
	case OpDropView, OpQueryAggregate:
		c.Str(&req.Name)
	case OpCreateSecondary:
		c.Str(&req.Name)
		c.Int(&req.KeyCol)
	case OpCreateRelBTree, OpCreateRelHash:
		c.Str(&req.Name)
		if present(c, &req.Schema, "schema") {
			req.Schema.Code(c)
		}
		if c.Int(&req.KeyCol); req.Op == OpCreateRelHash {
			c.Int(&req.Buckets)
		}
	case OpCreateView:
		if present(c, &req.View, "view definition") {
			req.View.Code(c)
		}
		c.Int(&req.Strategy)
	case OpCommit:
		tuple.List(c, &req.TxOps, minTxOpSize, func(c *tuple.Coder, op *TxOpDTO) {
			core.CodeTxOp(c, &op.Kind, &op.Rel, &op.Key, &op.ID, &op.Vals)
		})
	case OpQueryView:
		c.Str(&req.Name)
		c.Int(&req.Plan)
		pred.CodeRange(c, &req.Range)
	default:
		c.Fail("unknown op %d", uint8(req.Op))
	}
}

// codeResponse walks a response: [1 code], then for CodeOK [1 body
// kind] and the body, for every other code the error text to the end.
func codeResponse(c *tuple.Coder, resp *Response) {
	c.U8((*uint8)(&resp.Code))
	switch {
	case resp.Code > CodeShutdown:
		c.Fail("unknown code %d", uint8(resp.Code))
	case resp.Code != CodeOK:
		text := []byte(resp.Err)
		if c.Rest(&text); c.Decoding() {
			resp.Err = string(text)
		}
	default:
		c.U8((*uint8)(&resp.Body))
		codeBody(c, resp)
	}
}

func codeBody(c *tuple.Coder, resp *Response) {
	switch resp.Body {
	case BodyNone:
	case BodyIDs:
		tuple.List(c, &resp.IDs, 8, (*tuple.Coder).U64)
	case BodyRows:
		// The one body with a codec of its own: colpage lays rows out as
		// column lanes, to the end of the payload.
		if c.Decoding() {
			var src []byte
			c.Rest(&src)
			a := new(core.Answer)
			var err error
			if a.N, a.Cols, err = colpage.DecodeLanes(src, maxCells); err != nil {
				c.Fail("%v", err)
			}
			resp.Lanes = a
		} else if a := resp.answer(); a.N*max(len(a.Cols), 1) > maxCells {
			c.Fail("%w: result of %d rows × %d columns exceeds %d cells", frame.ErrTooLarge, a.N, len(a.Cols), maxCells)
		} else {
			c.Append(func(b []byte) ([]byte, error) { return colpage.AppendLanes(b, a.N, a.Cols) })
		}
	case BodyAgg:
		c.Bool(&resp.AggOK)
		c.Float(&resp.Agg)
	case BodyHealth:
		if present(c, &resp.Health, "health body") {
			codeHealth(c, resp.Health)
		}
	case BodyAdvisor:
		tuple.List(c, &resp.Advisor, minAdvisorStatSize, codeAdvisorStat)
	case BodyFlips:
		tuple.List(c, &resp.Flips, 4*4+8, func(c *tuple.Coder, f *core.FlipReport) {
			c.Str(&f.View)
			c.Str(&f.From)
			c.Str(&f.To)
			c.Float(&f.PredictedGain)
			c.Str(&f.Reason)
		})
	default:
		c.Fail("unknown body kind %d", uint8(resp.Body))
	}
}

// answer is the query answer the encoder writes: Lanes, or the empty
// answer when Lanes is nil.
func (resp *Response) answer() core.Answer {
	if resp.Lanes == nil {
		return core.Answer{}
	}
	return *resp.Lanes
}

// codeHealth walks a Health answer: six 8-byte ints (relations, views,
// queries, commits, pool resident, pool capacity), the meter's four
// counters, the refresh leader and waiter counts, and the durable flag.
func codeHealth(c *tuple.Coder, h *core.Health) {
	for _, n := range []*int{&h.Relations, &h.Views, &h.Queries, &h.Commits, &h.PoolResident, &h.PoolCapacity} {
		c.Int(n)
	}
	for _, n := range []*int64{&h.Meter.Reads, &h.Meter.Writes, &h.Meter.Screens, &h.Meter.ADTouches,
		&h.RefreshLeaders, &h.RefreshWaiters} {
		c.I64(n)
	}
	c.Bool(&h.Durable)
}

// minAdvisorStatSize: six empty strings, sixteen numbers and an empty
// cost map.
const minAdvisorStatSize = 6*4 + 16*8 + 4

// codeAdvisorStat walks one view's advisor state: view, strategy,
// observations, [8 flips], flip score, last from / to / reason, the
// thirteen measured parameters in costmodel.Params' field order, the
// per-strategy costs sorted by strategy name, and the model's best.
func codeAdvisorStat(c *tuple.Coder, s *core.AdvisorViewStat) {
	c.Str(&s.View)
	c.Str(&s.Strategy)
	c.Float(&s.Observations)
	c.Int(&s.Flips)
	c.Float(&s.FlipScore)
	c.Str(&s.LastFrom)
	c.Str(&s.LastTo)
	c.Str(&s.LastReason)
	p := &s.Params
	for _, f := range []*float64{&p.N, &p.S, &p.B, &p.K, &p.L, &p.Q, &p.IdxRec, &p.F, &p.FV, &p.FR2, &p.C1, &p.C2, &p.C3} {
		c.Float(f)
	}
	tuple.Map(c, &s.Costs, 4+8, (*tuple.Coder).Str, (*tuple.Coder).Float)
	c.Str(&s.Best)
}
