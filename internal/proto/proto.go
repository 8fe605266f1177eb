// Package proto defines the wire protocol spoken between viewmatd
// (internal/server) and its Go client (internal/client): request and
// response messages in a fixed binary encoding (codec.go), carried in
// the same length-prefixed CRC-32C frames the write-ahead log uses
// (internal/frame). DESIGN.md §9 has the layout. A frame is built in one
// buffer: a message is encoded behind room for the frame header, which
// frame.Write fills in place, so no payload is copied on its way out.
//
// The protocol is strictly request/response: a client writes one
// request frame and reads exactly one response frame before sending
// the next. Concurrency comes from many connections, not pipelining —
// the server multiplexes all connections onto one thread-safe
// core.Database.
//
// The encoding is stateless: a message's bytes depend on its content
// alone, never on what the process or the connection encoded before.
// Engine types cross as themselves, each in the one byte layout its own
// package defines (tuple.Value, tuple.Schema, pred.Range, core.Def) —
// the layouts a WAL record and a checkpoint header use too.
package proto

import (
	"errors"
	"fmt"

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
// in ten bytes. The encoder holds an answer to it too, so the server
// never sends a row set its client must refuse.
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
	Schema  *tuple.Schema
	KeyCol  int
	Buckets int

	// View and Strategy parameterize OpCreateView.
	View     *core.Def
	Strategy int

	// TxOps is OpCommit's op list.
	TxOps []TxOpDTO

	// Range optionally restricts OpQueryView to a key interval; Plan
	// (< 0 = the view's default) selects the query-modification plan.
	Range *pred.Range
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
	// BodyRows carries Lanes, a query answer as a colpage row set
	// (OpQueryView).
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

	// Lanes is OpQueryView's result in column lanes, as the engine
	// answers it: what the encoder writes (nil is the empty answer) and
	// what the decoder fills, one dense column per output column.
	Lanes *core.Answer

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

// Transaction op kinds for TxOpDTO: the kind byte of core.CodeTxOp's
// layout.
const (
	// TxInsert inserts Vals.
	TxInsert uint8 = iota
	// TxDelete deletes the tuple (Key, ID).
	TxDelete
	// TxUpdate replaces the tuple (Key, ID) with Vals.
	TxUpdate
)

// TxOpDTO is one operation inside an OpCommit request, as a client
// states it: the engine assigns the ids of what it inserts. Only the
// fields its Kind uses are sent.
type TxOpDTO struct {
	Kind uint8
	Rel  string
	Vals []tuple.Value
	Key  tuple.Value
	ID   uint64
}
