package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"viewmat/internal/colpage"
	"viewmat/internal/core"
	"viewmat/internal/frame"
	"viewmat/internal/tuple"
)

// The message encoding. A frame's payload is one message:
//
//	request:   [1 op][body of that op]
//	response:  [1 code] then, for CodeOK, [1 body kind][body of that kind]
//	           and for every other code the error text to the end
//
// Integers are big-endian and fixed-width — counts and lengths 4 bytes,
// ids and the struct fields that are Go ints 8 — strings are
// [4 len][bytes], values the tuple value codec (tuple.AppendValue), and
// a query answer's rows a colpage row set. Only the engine's own
// reporting structs (Health, AdvisorStats, AdaptTick answers) are gob,
// each as the whole body of its kind: their fields belong to core and
// change with it, and no hot path carries them.
//
// Decoding is strict. An unknown op, code, body kind, tx-op kind, flag
// bit or value tag, a count the remaining bytes cannot hold, and bytes
// left over after a complete body all fail with ErrDecode.

// WriteRequest frames req and writes it with one Write.
func WriteRequest(w io.Writer, req *Request) error {
	payload, err := appendRequest(make([]byte, 0, 256), req)
	if err != nil {
		return fmt.Errorf("proto: encoding %v request: %w", req.Op, err)
	}
	return frame.Write(w, payload, MaxFrame)
}

// WriteResponse frames resp and writes it with one Write. A response
// too large for one frame fails with frame.ErrTooLarge before anything
// is written.
func WriteResponse(w io.Writer, resp *Response) error {
	size := 256
	if len(resp.Rows) > 0 {
		// Room for two-byte cells; append grows it for wider ones.
		size += 2 * len(resp.Rows) * len(resp.Rows[0])
	}
	payload, err := appendResponse(make([]byte, 0, size), resp)
	if err != nil {
		return fmt.Errorf("proto: encoding response: %w", err)
	}
	return frame.Write(w, payload, MaxFrame)
}

// ReadRequest reads and decodes one request frame. Frame-level damage
// surfaces as the frame package's typed errors; a frame that passes
// its checksum but does not decode wraps ErrDecode. Neither ever
// panics, whatever the bytes.
func ReadRequest(r io.Reader) (*Request, error) {
	payload, err := frame.Read(r, MaxFrame)
	if err != nil {
		return nil, err
	}
	return decodeRequest(payload)
}

// ReadResponse reads and decodes one response frame, with ReadRequest's
// error contract.
func ReadResponse(r io.Reader) (*Response, error) {
	payload, err := frame.Read(r, MaxFrame)
	if err != nil {
		return nil, err
	}
	return decodeResponse(payload)
}

// --- encode ---------------------------------------------------------------

func appendRequest(b []byte, req *Request) ([]byte, error) {
	b = append(b, byte(req.Op))
	switch req.Op {
	case OpPing, OpRefreshAll, OpCheckpoint, OpHealth, OpAdvisorStats, OpAdaptTick:
	case OpDropView, OpQueryAggregate:
		b = appendString(b, req.Name)
	case OpCreateSecondary:
		b = appendString(b, req.Name)
		b = appendInt(b, req.KeyCol)
	case OpCreateRelBTree, OpCreateRelHash:
		b = appendString(b, req.Name)
		b = appendCount(b, len(req.Schema))
		for _, c := range req.Schema {
			b = appendString(b, c.Name)
			b = append(b, c.Type)
		}
		b = appendInt(b, req.KeyCol)
		if req.Op == OpCreateRelHash {
			b = appendInt(b, req.Buckets)
		}
	case OpCreateView:
		if req.View == nil {
			return nil, fmt.Errorf("missing view definition")
		}
		b = appendView(b, req.View)
		b = appendInt(b, req.Strategy)
	case OpCommit:
		b = appendCount(b, len(req.TxOps))
		for i := range req.TxOps {
			op := &req.TxOps[i]
			b = append(b, op.Kind)
			b = appendString(b, op.Rel)
			switch op.Kind {
			case TxInsert:
				b = appendValues(b, op.Vals)
			case TxDelete:
				b = tuple.AppendValue(b, op.Key)
				b = binary.BigEndian.AppendUint64(b, op.ID)
			case TxUpdate:
				b = tuple.AppendValue(b, op.Key)
				b = binary.BigEndian.AppendUint64(b, op.ID)
				b = appendValues(b, op.Vals)
			default:
				return nil, fmt.Errorf("op %d has unknown kind %d", i, op.Kind)
			}
		}
	case OpQueryView:
		b = appendString(b, req.Name)
		b = appendInt(b, req.Plan)
		var flags byte
		if rg := req.Range; rg != nil {
			flags = rangePresent | bit(rg.HasLo, rangeHasLo) | bit(rg.HasHi, rangeHasHi) |
				bit(rg.LoInc, rangeLoInc) | bit(rg.HiInc, rangeHiInc)
		}
		b = append(b, flags)
		if flags&rangeHasLo != 0 {
			b = tuple.AppendValue(b, req.Range.Lo)
		}
		if flags&rangeHasHi != 0 {
			b = tuple.AppendValue(b, req.Range.Hi)
		}
	default:
		return nil, fmt.Errorf("unknown op %d", uint8(req.Op))
	}
	return b, nil
}

// Flag bits of an OpQueryView request's range byte. A bound is sent
// only when its Has bit is set.
const (
	rangePresent byte = 1 << iota
	rangeHasLo
	rangeHasHi
	rangeLoInc
	rangeHiInc
	rangeFlags = rangeHiInc<<1 - 1
)

// bit returns b when set and 0 otherwise.
func bit(set bool, b byte) byte {
	if set {
		return b
	}
	return 0
}

func appendView(b []byte, v *ViewDTO) []byte {
	b = appendString(b, v.Name)
	b = appendInt(b, v.Kind)
	b = appendCount(b, len(v.Relations))
	for _, r := range v.Relations {
		b = appendString(b, r)
	}
	b = appendCount(b, len(v.Atoms))
	for i := range v.Atoms {
		a := &v.Atoms[i]
		if a.Join {
			b = append(b, 1)
			for _, n := range [...]int{a.LRel, a.LCol, a.RRel, a.RCol} {
				b = appendInt(b, n)
			}
			continue
		}
		b = append(b, 0)
		b = appendInt(b, a.Rel)
		b = appendInt(b, a.Col)
		b = append(b, a.Op)
		b = tuple.AppendValue(b, a.Val)
	}
	b = appendCount(b, len(v.Project))
	for _, p := range v.Project {
		b = appendCount(b, len(p))
		for _, n := range p {
			b = appendInt(b, n)
		}
	}
	b = appendInt(b, v.ViewKeyCol)
	b = append(b, v.AggKind)
	b = appendInt(b, v.AggCol)
	return appendInt(b, v.GroupBy)
}

func appendResponse(b []byte, resp *Response) ([]byte, error) {
	b = append(b, byte(resp.Code))
	if resp.Code > CodeShutdown {
		return nil, fmt.Errorf("unknown code %d", uint8(resp.Code))
	}
	if resp.Code != CodeOK {
		return append(b, resp.Err...), nil
	}
	b = append(b, byte(resp.Body))
	switch resp.Body {
	case BodyNone:
		return b, nil
	case BodyIDs:
		b = appendCount(b, len(resp.IDs))
		for _, id := range resp.IDs {
			b = binary.BigEndian.AppendUint64(b, id)
		}
		return b, nil
	case BodyRows:
		if len(resp.Rows) > 0 && len(resp.Rows)*max(len(resp.Rows[0]), 1) > maxCells {
			return nil, fmt.Errorf("%w: result of %d rows × %d columns exceeds %d cells",
				frame.ErrTooLarge, len(resp.Rows), len(resp.Rows[0]), maxCells)
		}
		return colpage.AppendRows(b, resp.Rows)
	case BodyAgg:
		b = append(b, bit(resp.AggOK, 1))
		return binary.BigEndian.AppendUint64(b, math.Float64bits(resp.Agg)), nil
	case BodyHealth:
		if resp.Health == nil {
			return nil, fmt.Errorf("missing health body")
		}
		return appendGob(b, resp.Health)
	case BodyAdvisor:
		return appendGob(b, resp.Advisor)
	case BodyFlips:
		return appendGob(b, resp.Flips)
	default:
		return nil, fmt.Errorf("unknown body kind %d", uint8(resp.Body))
	}
}

func appendGob(b []byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer(b)
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func appendCount(b []byte, n int) []byte { return binary.BigEndian.AppendUint32(b, uint32(n)) }

func appendInt(b []byte, n int) []byte { return binary.BigEndian.AppendUint64(b, uint64(n)) }

func appendString(b []byte, s string) []byte {
	b = appendCount(b, len(s))
	return append(b, s...)
}

func appendValues(b []byte, vals []tuple.Value) []byte {
	b = appendCount(b, len(vals))
	for _, v := range vals {
		b = tuple.AppendValue(b, v)
	}
	return b
}

// --- decode ---------------------------------------------------------------

// reader consumes a payload front to back. The first failure sticks:
// later reads return zero values, and done reports it.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrDecode}, args...)...)
	}
}

// take returns the next n bytes, or nil after a failure.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.fail("%d bytes wanted, %d left", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// num reads a Go int, sent as 8 bytes.
func (r *reader) num() int { return int(r.u64()) }

// flag reads a byte that must be 0 or 1.
func (r *reader) flag() bool {
	v := r.u8()
	if v > 1 {
		r.fail("flag byte %d", v)
	}
	return v == 1
}

// count reads an element count and checks that the bytes left can hold
// that many elements of at least elemSize bytes each.
func (r *reader) count(elemSize int) int {
	b := r.take(4)
	if b == nil {
		return 0
	}
	n := int(binary.BigEndian.Uint32(b))
	if n > len(r.b)/elemSize {
		r.fail("count %d exceeds the %d bytes left", n, len(r.b))
		return 0
	}
	return n
}

func (r *reader) str() string { return string(r.take(r.count(1))) }

func (r *reader) value() tuple.Value {
	if r.err != nil {
		return tuple.Value{}
	}
	v, n, err := tuple.DecodeValue(r.b)
	if err != nil {
		r.fail("%v", err)
		return tuple.Value{}
	}
	r.b = r.b[n:]
	return v
}

// values reads a counted value list; an empty list decodes as nil.
func (r *reader) values() []tuple.Value {
	n := r.count(minValueSize)
	if n == 0 {
		return nil
	}
	out := make([]tuple.Value, n)
	for i := range out {
		out[i] = r.value()
	}
	return out
}

// rest returns everything not yet consumed.
func (r *reader) rest() []byte { return r.take(len(r.b)) }

// done reports the first failure, or bytes left after the body.
func (r *reader) done() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// Least encoded sizes, for count: a value is a tag and a 4-byte string
// length at the smallest, a tx op a kind, an empty relation name and an
// empty value list, an atom a comparison of an empty string.
const (
	minValueSize = 5
	minTxOpSize  = 1 + 4 + 4
	minAtomSize  = 1 + 8 + 8 + 1 + minValueSize
)

func decodeRequest(payload []byte) (*Request, error) {
	r := &reader{b: payload}
	req := &Request{Op: Op(r.u8())}
	switch req.Op {
	case OpPing, OpRefreshAll, OpCheckpoint, OpHealth, OpAdvisorStats, OpAdaptTick:
	case OpDropView, OpQueryAggregate:
		req.Name = r.str()
	case OpCreateSecondary:
		req.Name = r.str()
		req.KeyCol = r.num()
	case OpCreateRelBTree, OpCreateRelHash:
		req.Name = r.str()
		if n := r.count(4 + 1); n > 0 {
			req.Schema = make([]ColumnDTO, n)
			for i := range req.Schema {
				req.Schema[i] = ColumnDTO{Name: r.str(), Type: r.u8()}
			}
		}
		req.KeyCol = r.num()
		if req.Op == OpCreateRelHash {
			req.Buckets = r.num()
		}
	case OpCreateView:
		req.View = decodeView(r)
		req.Strategy = r.num()
	case OpCommit:
		if n := r.count(minTxOpSize); n > 0 {
			req.TxOps = make([]TxOpDTO, n)
		}
		for i := range req.TxOps {
			op := &req.TxOps[i]
			op.Kind, op.Rel = r.u8(), r.str()
			switch op.Kind {
			case TxInsert:
				op.Vals = r.values()
			case TxDelete:
				op.Key, op.ID = r.value(), r.u64()
			case TxUpdate:
				op.Key, op.ID = r.value(), r.u64()
				op.Vals = r.values()
			default:
				r.fail("tx op %d has unknown kind %d", i, op.Kind)
			}
		}
	case OpQueryView:
		req.Name = r.str()
		req.Plan = r.num()
		flags := r.u8()
		if flags&^rangeFlags != 0 || (flags != 0 && flags&rangePresent == 0) {
			r.fail("range flags %#x", flags)
		} else if flags != 0 {
			rg := &RangeDTO{
				HasLo: flags&rangeHasLo != 0, HasHi: flags&rangeHasHi != 0,
				LoInc: flags&rangeLoInc != 0, HiInc: flags&rangeHiInc != 0,
			}
			if rg.HasLo {
				rg.Lo = r.value()
			}
			if rg.HasHi {
				rg.Hi = r.value()
			}
			req.Range = rg
		}
	default:
		r.fail("unknown op %d", uint8(req.Op))
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return req, nil
}

func decodeView(r *reader) *ViewDTO {
	v := &ViewDTO{Name: r.str(), Kind: r.num()}
	if n := r.count(4); n > 0 {
		v.Relations = make([]string, n)
		for i := range v.Relations {
			v.Relations[i] = r.str()
		}
	}
	if n := r.count(minAtomSize); n > 0 {
		v.Atoms = make([]AtomDTO, n)
	}
	for i := range v.Atoms {
		a := &v.Atoms[i]
		if a.Join = r.flag(); a.Join {
			a.LRel, a.LCol, a.RRel, a.RCol = r.num(), r.num(), r.num(), r.num()
		} else {
			a.Rel, a.Col, a.Op, a.Val = r.num(), r.num(), r.u8(), r.value()
		}
	}
	if n := r.count(4); n > 0 {
		v.Project = make([][]int, n)
	}
	for i := range v.Project {
		if n := r.count(8); n > 0 {
			v.Project[i] = make([]int, n)
			for j := range v.Project[i] {
				v.Project[i][j] = r.num()
			}
		}
	}
	v.ViewKeyCol, v.AggKind, v.AggCol, v.GroupBy = r.num(), r.u8(), r.num(), r.num()
	return v
}

func decodeResponse(payload []byte) (*Response, error) {
	r := &reader{b: payload}
	resp := &Response{Code: Code(r.u8())}
	switch {
	case resp.Code > CodeShutdown:
		r.fail("unknown code %d", uint8(resp.Code))
	case resp.Code != CodeOK:
		resp.Err = string(r.rest())
	default:
		resp.Body = Body(r.u8())
		decodeBody(r, resp)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return resp, nil
}

func decodeBody(r *reader, resp *Response) {
	switch resp.Body {
	case BodyNone:
	case BodyIDs:
		if n := r.count(8); n > 0 {
			resp.IDs = make([]uint64, n)
			for i := range resp.IDs {
				resp.IDs[i] = r.u64()
			}
		}
	case BodyRows:
		if src := r.rest(); r.err == nil {
			var err error
			if resp.Rows, err = colpage.DecodeRows(src, maxCells); err != nil {
				r.fail("%v", err)
			}
		}
	case BodyAgg:
		resp.AggOK = r.flag()
		resp.Agg = math.Float64frombits(r.u64())
	case BodyHealth:
		resp.Health = new(core.Health)
		r.gob(resp.Health)
	case BodyAdvisor:
		r.gob(&resp.Advisor)
	case BodyFlips:
		r.gob(&resp.Flips)
	default:
		r.fail("unknown body kind %d", uint8(resp.Body))
	}
}

// gob decodes the rest of the payload, which must be exactly one gob
// value, into v.
func (r *reader) gob(v any) {
	src := bytes.NewReader(r.rest())
	if err := gob.NewDecoder(src).Decode(v); err != nil {
		r.fail("%v", err)
	} else if src.Len() != 0 {
		r.fail("%d bytes trail the gob body", src.Len())
	}
}
