// Package proto defines the wire protocol spoken between viewmatd
// (internal/server) and its Go client (internal/client): request and
// response messages in a fixed binary encoding (codec.go), carried in
// the same length-prefixed CRC-32C frames the write-ahead log uses
// (internal/frame). DESIGN.md §9 has the layout.
//
// The protocol is strictly request/response: a client writes one
// request frame and reads exactly one response frame before sending
// the next. Concurrency comes from many connections, not pipelining —
// the server multiplexes all connections onto one thread-safe
// core.Database.
//
// The encoding is stateless: a message's bytes depend on its content
// alone, never on what the process or the connection encoded before.
// Values cross as tuple.Value in the tuple value codec; predicate atoms
// and schemas, whose engine types are interfaces or carry unexported
// state, cross as the explicit DTOs below.
package proto

import (
	"errors"
	"fmt"

	"viewmat/internal/agg"
	"viewmat/internal/core"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
)

// MaxFrame caps a message payload at 16 MiB. Every message is one
// frame, so this is also the largest query answer the protocol carries
// (about two million plain integer cells, more when the column lanes
// compress); the server answers CodeError for a result over the cap.
// On the read side it keeps a corrupt or hostile length header from
// forcing a giant allocation.
const MaxFrame = 1 << 24

// maxCells caps rows × columns of a query answer — as many cells as a
// frame could carry as plain 8-byte integers. The frame size alone
// does not bound it: a constant column's lane stands for 65 535 cells
// in ten bytes.
const maxCells = MaxFrame / 8

// ErrDecode marks bytes that arrived in a valid frame but do not
// decode to a protocol message.
var ErrDecode = errors.New("proto: malformed message")

// Op enumerates the request operations.
type Op uint8

// Request operations.
const (
	// OpPing checks liveness; it carries no arguments.
	OpPing Op = 1 + iota
	// OpCreateRelBTree creates a B+-tree-clustered base relation
	// (Name, Schema, KeyCol).
	OpCreateRelBTree
	// OpCreateRelHash creates a hash-clustered base relation (Name,
	// Schema, KeyCol, Buckets).
	OpCreateRelHash
	// OpCreateView creates a view (View, Strategy).
	OpCreateView
	// OpDropView drops a view (Name).
	OpDropView
	// OpCommit applies one transaction's ops atomically (TxOps) and
	// returns the ids assigned to inserts/updates, in op order.
	OpCommit
	// OpQueryView queries a select-project or join view (Name, Range,
	// Plan).
	OpQueryView
	// OpQueryAggregate reads an aggregate view's value (Name).
	OpQueryAggregate
	// OpRefreshAll brings every stale view current.
	OpRefreshAll
	// OpCheckpoint forces a durability checkpoint.
	OpCheckpoint
	// OpHealth returns the engine health snapshot.
	OpHealth
	// OpAdvisorStats returns the adaptive advisor's per-view state.
	OpAdvisorStats
	// OpAdaptTick runs one adaptive advisor decision round and
	// returns the flips it applied.
	OpAdaptTick
	// OpCreateSecondary adds a secondary index on a base relation
	// column (Name, KeyCol).
	OpCreateSecondary
)

// String names the op for diagnostics.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpCreateRelBTree:
		return "create-rel-btree"
	case OpCreateRelHash:
		return "create-rel-hash"
	case OpCreateView:
		return "create-view"
	case OpDropView:
		return "drop-view"
	case OpCommit:
		return "commit"
	case OpQueryView:
		return "query-view"
	case OpQueryAggregate:
		return "query-aggregate"
	case OpRefreshAll:
		return "refresh-all"
	case OpCheckpoint:
		return "checkpoint"
	case OpHealth:
		return "health"
	case OpAdvisorStats:
		return "advisor-stats"
	case OpAdaptTick:
		return "adapt-tick"
	case OpCreateSecondary:
		return "create-secondary"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Code classifies a response.
type Code uint8

// Response codes.
const (
	// CodeOK is a successful response.
	CodeOK Code = iota
	// CodeBusy means the admission-control cap was reached; the
	// request was not executed and may be retried.
	CodeBusy
	// CodeBadRequest means the request could not be decoded or failed
	// validation before touching the engine.
	CodeBadRequest
	// CodeError means the engine rejected or failed the operation; Err
	// carries the message.
	CodeError
	// CodeShutdown means the server is draining and accepted no new
	// work.
	CodeShutdown
)

// Request is one client operation. Fields beyond Op are op-specific;
// see the Op constants.
type Request struct {
	Op Op

	// Name is the relation name for relation DDL and the view name for
	// view operations.
	Name string

	// Schema, KeyCol, Buckets parameterize relation DDL.
	Schema  []ColumnDTO
	KeyCol  int
	Buckets int

	// View and Strategy parameterize OpCreateView.
	View     *ViewDTO
	Strategy int

	// TxOps is OpCommit's op list.
	TxOps []TxOpDTO

	// Range optionally restricts OpQueryView to a key interval; Plan
	// (< 0 = the view's default) selects the query-modification plan.
	Range *RangeDTO
	Plan  int
}

// Body names the result an OK response carries. The server sets it
// from the op it answered; a response does not otherwise say which
// request it belongs to.
type Body uint8

// Response bodies.
const (
	// BodyNone is a bare status: Ping, DDL, RefreshAll, Checkpoint.
	BodyNone Body = iota
	// BodyIDs carries IDs (OpCommit).
	BodyIDs
	// BodyRows carries Rows (OpQueryView).
	BodyRows
	// BodyAgg carries Agg and AggOK (OpQueryAggregate).
	BodyAgg
	// BodyHealth carries Health (OpHealth).
	BodyHealth
	// BodyAdvisor carries Advisor (OpAdvisorStats).
	BodyAdvisor
	// BodyFlips carries Flips (OpAdaptTick).
	BodyFlips
)

// Response answers one Request.
type Response struct {
	Code Code
	// Err carries the failure message for non-OK codes.
	Err string

	// Body says which of the fields below an OK response carries; the
	// others are not sent.
	Body Body

	// IDs are the tuple ids assigned by OpCommit, one per insert or
	// update op, in op order.
	IDs []uint64

	// Rows is OpQueryView's result. Decoded rows slice one flat value
	// array.
	Rows [][]tuple.Value

	// Agg and AggOK are OpQueryAggregate's result (AggOK false = the
	// aggregate is undefined, e.g. AVG over the empty set).
	Agg   float64
	AggOK bool

	// Health is OpHealth's result.
	Health *core.Health

	// Advisor is OpAdvisorStats' result (nil when the advisor is
	// disabled); Flips is OpAdaptTick's result.
	Advisor []core.AdvisorViewStat
	Flips   []core.FlipReport
}

// --- DTOs -----------------------------------------------------------------

// ColumnDTO is one schema column.
type ColumnDTO struct {
	Name string
	Type uint8
}

// SchemaToDTO converts a schema for the wire.
func SchemaToDTO(s *tuple.Schema) []ColumnDTO {
	out := make([]ColumnDTO, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = ColumnDTO{Name: c.Name, Type: uint8(c.Type)}
	}
	return out
}

// SchemaFromDTO converts a wire schema back.
func SchemaFromDTO(cols []ColumnDTO) *tuple.Schema {
	out := make([]tuple.Column, len(cols))
	for i, c := range cols {
		out[i] = tuple.Column{Name: c.Name, Type: tuple.Type(c.Type)}
	}
	return tuple.NewSchema(out...)
}

// AtomDTO is one predicate atom: a comparison (Join false) or a join
// equality (Join true).
type AtomDTO struct {
	Join bool

	// Comparison fields.
	Rel, Col int
	Op       uint8
	Val      tuple.Value

	// Join-equality fields.
	LRel, LCol, RRel, RCol int
}

// ViewDTO is core.Def plus nothing: the definition's predicate atoms
// are flattened into AtomDTOs.
type ViewDTO struct {
	Name       string
	Kind       int
	Relations  []string
	Atoms      []AtomDTO
	Project    [][]int
	ViewKeyCol int
	AggKind    uint8
	AggCol     int
	GroupBy    int
}

// DefToDTO converts a view definition for the wire.
func DefToDTO(d core.Def) ViewDTO {
	dto := ViewDTO{
		Name:       d.Name,
		Kind:       int(d.Kind),
		Relations:  append([]string(nil), d.Relations...),
		Project:    d.Project,
		ViewKeyCol: d.ViewKeyCol,
		AggKind:    uint8(d.AggKind),
		AggCol:     d.AggCol,
		GroupBy:    d.GroupBy,
	}
	if d.Pred != nil {
		for _, a := range d.Pred.Atoms {
			switch at := a.(type) {
			case pred.Cmp:
				dto.Atoms = append(dto.Atoms, AtomDTO{Rel: at.Rel, Col: at.Col, Op: uint8(at.Op), Val: at.Val})
			case pred.JoinEq:
				dto.Atoms = append(dto.Atoms, AtomDTO{Join: true, LRel: at.LRel, LCol: at.LCol, RRel: at.RRel, RCol: at.RCol})
			}
		}
	}
	return dto
}

// DefFromDTO converts a wire view definition back. The result is not
// yet validated; CreateView runs Def.Validate against the live schemas.
func DefFromDTO(dto ViewDTO) core.Def {
	atoms := make([]pred.Atom, 0, len(dto.Atoms))
	for _, a := range dto.Atoms {
		if a.Join {
			atoms = append(atoms, pred.JoinEq{LRel: a.LRel, LCol: a.LCol, RRel: a.RRel, RCol: a.RCol})
		} else {
			atoms = append(atoms, pred.Cmp{Rel: a.Rel, Col: a.Col, Op: pred.Op(a.Op), Val: a.Val})
		}
	}
	return core.Def{
		Name:       dto.Name,
		Kind:       core.Kind(dto.Kind),
		Relations:  dto.Relations,
		Pred:       pred.New(atoms...),
		Project:    dto.Project,
		ViewKeyCol: dto.ViewKeyCol,
		AggKind:    agg.Kind(dto.AggKind),
		AggCol:     dto.AggCol,
		GroupBy:    dto.GroupBy,
	}
}

// RangeDTO is pred.Range with explicit presence flags for the open
// bounds.
type RangeDTO struct {
	HasLo, HasHi bool
	Lo, Hi       tuple.Value
	LoInc, HiInc bool
}

// RangeToDTO converts a query range (nil = unrestricted) for the wire.
func RangeToDTO(rg *pred.Range) *RangeDTO {
	if rg == nil {
		return nil
	}
	out := &RangeDTO{LoInc: rg.LoInc, HiInc: rg.HiInc}
	if rg.Lo != nil {
		out.HasLo, out.Lo = true, *rg.Lo
	}
	if rg.Hi != nil {
		out.HasHi, out.Hi = true, *rg.Hi
	}
	return out
}

// RangeFromDTO converts a wire range back (nil = unrestricted).
func RangeFromDTO(d *RangeDTO) *pred.Range {
	if d == nil {
		return nil
	}
	out := &pred.Range{LoInc: d.LoInc, HiInc: d.HiInc}
	if d.HasLo {
		v := d.Lo
		out.Lo = &v
	}
	if d.HasHi {
		v := d.Hi
		out.Hi = &v
	}
	return out
}

// Transaction op kinds for TxOpDTO.
const (
	// TxInsert inserts Vals.
	TxInsert uint8 = iota
	// TxDelete deletes the tuple (Key, ID).
	TxDelete
	// TxUpdate replaces the tuple (Key, ID) with Vals.
	TxUpdate
)

// TxOpDTO is one operation inside an OpCommit request. Only the
// fields its Kind uses are sent.
type TxOpDTO struct {
	Kind uint8
	Rel  string
	Vals []tuple.Value
	Key  tuple.Value
	ID   uint64
}
