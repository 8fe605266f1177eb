// Package client is the Go client for viewmatd (internal/server). A
// Client owns one TCP connection and speaks the strict
// request/response protocol of internal/proto; it is safe for
// concurrent use, serializing calls on its single connection. For
// parallel load, open one Client per goroutine — the server's
// concurrency unit is the connection.
package client

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"viewmat/internal/core"
	"viewmat/internal/pred"
	"viewmat/internal/proto"
	"viewmat/internal/tuple"
)

// Typed failures a caller can dispatch on. Engine-side errors (unknown
// view, schema mismatch, …) arrive as plain errors carrying the
// server's message.
var (
	// ErrBusy: the server's admission cap was reached; the request was
	// not executed and may be retried.
	ErrBusy = errors.New("client: server busy")
	// ErrShuttingDown: the server is draining and accepted no new work.
	ErrShuttingDown = errors.New("client: server shutting down")
	// ErrBadRequest: the server could not decode or validate the
	// request.
	ErrBadRequest = errors.New("client: bad request")
	// ErrWrongBody: an OK answer carried a body other than the call's.
	// The stream can no longer be trusted, so the client is closed.
	ErrWrongBody = errors.New("client: answer body does not match the call")
)

// Options tunes a Client.
type Options struct {
	// Timeout bounds each call end to end (dial, write, read).
	// Default 30s.
	Timeout time.Duration
}

// Client is a connection to a viewmatd server.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	timeout time.Duration
	broken  error // the failure that closed conn; every later call returns it
}

// Dial connects with default options.
func Dial(addr string) (*Client, error) { return DialOptions(addr, Options{}) }

// DialOptions connects to a viewmatd server.
func DialOptions(addr string, opts Options) (*Client, error) {
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, opts.Timeout)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, timeout: opts.Timeout}, nil
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// call sends one request and reads its response, mapping non-OK codes
// to errors (the response is then zero). An OK response must carry the
// body the call expects. Any other failure leaves the stream in an
// unknown state — after a timed-out read the late response would be
// taken for the next call's answer — so it closes the connection and
// fails every later call too.
func (c *Client) call(req *proto.Request, body proto.Body) (proto.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return proto.Response{}, c.broken
	}
	c.conn.SetDeadline(time.Now().Add(c.timeout))
	var resp *proto.Response
	err := proto.WriteRequest(c.conn, req)
	if err == nil {
		resp, err = proto.ReadResponse(c.conn)
	}
	if err == nil && resp.Code == proto.CodeOK && resp.Body != body {
		err = fmt.Errorf("%w: body kind %d, want %d", ErrWrongBody, resp.Body, body)
	}
	if err != nil {
		c.broken = fmt.Errorf("client: %v: %w", req.Op, err)
		c.conn.Close()
		return proto.Response{}, c.broken
	}
	switch resp.Code {
	case proto.CodeOK:
		return *resp, nil
	case proto.CodeBusy:
		return proto.Response{}, ErrBusy
	case proto.CodeShutdown:
		return proto.Response{}, ErrShuttingDown
	case proto.CodeBadRequest:
		return proto.Response{}, fmt.Errorf("%w: %s", ErrBadRequest, resp.Err)
	default:
		return proto.Response{}, errors.New(resp.Err)
	}
}

// Ping checks the server is alive.
func (c *Client) Ping() error {
	_, err := c.call(&proto.Request{Op: proto.OpPing}, proto.BodyNone)
	return err
}

// CreateRelationBTree creates a B+-tree-clustered base relation.
func (c *Client) CreateRelationBTree(name string, schema *tuple.Schema, keyCol int) error {
	_, err := c.call(&proto.Request{
		Op: proto.OpCreateRelBTree, Name: name,
		Schema: schema, KeyCol: keyCol,
	}, proto.BodyNone)
	return err
}

// CreateRelationHash creates a hash-clustered base relation.
func (c *Client) CreateRelationHash(name string, schema *tuple.Schema, keyCol, buckets int) error {
	_, err := c.call(&proto.Request{
		Op: proto.OpCreateRelHash, Name: name,
		Schema: schema, KeyCol: keyCol, Buckets: buckets,
	}, proto.BodyNone)
	return err
}

// CreateSecondaryIndex adds a secondary index on col of a base
// relation.
func (c *Client) CreateSecondaryIndex(rel string, col int) error {
	_, err := c.call(&proto.Request{Op: proto.OpCreateSecondary, Name: rel, KeyCol: col}, proto.BodyNone)
	return err
}

// CreateView registers a view with the given maintenance strategy.
func (c *Client) CreateView(def core.Def, strategy core.Strategy) error {
	_, err := c.call(&proto.Request{Op: proto.OpCreateView, View: &def, Strategy: int(strategy)}, proto.BodyNone)
	return err
}

// DropView removes a view.
func (c *Client) DropView(name string) error {
	_, err := c.call(&proto.Request{Op: proto.OpDropView, Name: name}, proto.BodyNone)
	return err
}

// QueryView queries a select-project or join view, optionally
// restricted to rg, under the view's default plan. Rows arrive as
// value slices in the view's output schema.
func (c *Client) QueryView(name string, rg *pred.Range) ([][]tuple.Value, error) {
	return c.QueryViewPlan(name, rg, -1)
}

// QueryViewPlan is QueryView with an explicit query-modification plan
// (pass a core.QueryPlan; negative = the view's default).
func (c *Client) QueryViewPlan(name string, rg *pred.Range, plan int) ([][]tuple.Value, error) {
	resp, err := c.call(&proto.Request{
		Op: proto.OpQueryView, Name: name,
		Range: rg, Plan: plan,
	}, proto.BodyRows)
	if err != nil {
		return nil, err
	}
	return core.GatherRows(*resp.Lanes, func(vals []tuple.Value) []tuple.Value { return vals }), nil
}

// QueryAggregate reads an aggregate view's value; ok is false when the
// aggregate is undefined (MIN/MAX/AVG over the empty set).
func (c *Client) QueryAggregate(name string) (value float64, ok bool, err error) {
	resp, err := c.call(&proto.Request{Op: proto.OpQueryAggregate, Name: name}, proto.BodyAgg)
	return resp.Agg, resp.AggOK, err
}

// RefreshAll brings every stale view current (the idle-time refresh).
func (c *Client) RefreshAll() error {
	_, err := c.call(&proto.Request{Op: proto.OpRefreshAll}, proto.BodyNone)
	return err
}

// Checkpoint forces a durability checkpoint (errors if the server runs
// without -wal).
func (c *Client) Checkpoint() error {
	_, err := c.call(&proto.Request{Op: proto.OpCheckpoint}, proto.BodyNone)
	return err
}

// Health fetches the engine health snapshot.
func (c *Client) Health() (core.Health, error) {
	resp, err := c.call(&proto.Request{Op: proto.OpHealth}, proto.BodyHealth)
	if err != nil {
		return core.Health{}, err
	}
	return *resp.Health, nil // a BodyHealth answer always decodes one
}

// AdvisorStats fetches the adaptive advisor's per-view state (nil
// when the server's advisor is disabled).
func (c *Client) AdvisorStats() ([]core.AdvisorViewStat, error) {
	resp, err := c.call(&proto.Request{Op: proto.OpAdvisorStats}, proto.BodyAdvisor)
	return resp.Advisor, err
}

// AdaptTick asks the server to run one adaptive advisor decision
// round and returns the strategy flips it applied.
func (c *Client) AdaptTick() ([]core.FlipReport, error) {
	resp, err := c.call(&proto.Request{Op: proto.OpAdaptTick}, proto.BodyFlips)
	return resp.Flips, err
}

// Tx buffers one transaction client-side; Commit ships it as a single
// OpCommit request the server applies atomically.
type Tx struct {
	c    *Client
	ops  []proto.TxOpDTO
	done bool
}

// Begin starts a client-side transaction buffer.
func (c *Client) Begin() *Tx { return &Tx{c: c} }

// Insert queues an insertion. The tuple's id is assigned server-side
// and returned by Commit.
func (tx *Tx) Insert(rel string, vals ...tuple.Value) {
	tx.ops = append(tx.ops, proto.TxOpDTO{Kind: proto.TxInsert, Rel: rel, Vals: slices.Clone(vals)})
}

// Delete queues the deletion of the tuple with the given clustering-key
// value and id (from an earlier Commit's returned ids).
func (tx *Tx) Delete(rel string, key tuple.Value, id uint64) {
	tx.ops = append(tx.ops, proto.TxOpDTO{Kind: proto.TxDelete, Rel: rel, Key: key, ID: id})
}

// Update queues the replacement of tuple (key, id) with vals; the
// replacement's fresh id is returned by Commit.
func (tx *Tx) Update(rel string, key tuple.Value, id uint64, vals ...tuple.Value) {
	tx.ops = append(tx.ops, proto.TxOpDTO{Kind: proto.TxUpdate, Rel: rel, Key: key, ID: id, Vals: slices.Clone(vals)})
}

// Commit applies the buffered ops atomically. On success it returns
// the ids assigned to inserts and updates, in the order those ops were
// queued. A transaction acknowledged here is durable if the server
// runs with a WAL: the server syncs the commit record before
// responding.
func (tx *Tx) Commit() ([]uint64, error) {
	if tx.done {
		return nil, errors.New("client: transaction already committed")
	}
	tx.done = true
	resp, err := tx.c.call(&proto.Request{Op: proto.OpCommit, TxOps: tx.ops}, proto.BodyIDs)
	return resp.IDs, err
}
