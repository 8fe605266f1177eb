package client

import (
	"errors"
	"net"
	"testing"
	"time"

	"viewmat/internal/core"
	"viewmat/internal/pred"
	"viewmat/internal/proto"
	"viewmat/internal/tuple"
)

// TestWrongBodyPoisonsClient: an OK answer whose body is not the one the
// call asked for used to read as an empty result — no rows, a zero
// aggregate, no ids — with no error. Each call now fails with
// ErrWrongBody and closes the client, like a decode error: the next call
// fails at once without touching the connection.
func TestWrongBodyPoisonsClient(t *testing.T) {
	schema := tuple.NewSchema(tuple.Col("k", tuple.Int))
	view := core.Def{Name: "v", Kind: core.SelectProject, Relations: []string{"r"}, Pred: pred.New(), Project: [][]int{{0}}}
	calls := []struct {
		name string
		want proto.Body
		call func(c *Client) error
	}{
		{"Ping", proto.BodyNone, func(c *Client) error { return c.Ping() }},
		{"CreateRelationBTree", proto.BodyNone, func(c *Client) error { return c.CreateRelationBTree("r", schema, 0) }},
		{"CreateRelationHash", proto.BodyNone, func(c *Client) error { return c.CreateRelationHash("r", schema, 0, 4) }},
		{"CreateSecondaryIndex", proto.BodyNone, func(c *Client) error { return c.CreateSecondaryIndex("r", 0) }},
		{"CreateView", proto.BodyNone, func(c *Client) error { return c.CreateView(view, core.Immediate) }},
		{"DropView", proto.BodyNone, func(c *Client) error { return c.DropView("v") }},
		{"QueryView", proto.BodyRows, func(c *Client) error { _, err := c.QueryView("v", nil); return err }},
		{"QueryViewPlan", proto.BodyRows, func(c *Client) error { _, err := c.QueryViewPlan("v", nil, 0); return err }},
		{"QueryAggregate", proto.BodyAgg, func(c *Client) error { _, _, err := c.QueryAggregate("v"); return err }},
		{"RefreshAll", proto.BodyNone, func(c *Client) error { return c.RefreshAll() }},
		{"Checkpoint", proto.BodyNone, func(c *Client) error { return c.Checkpoint() }},
		{"Health", proto.BodyHealth, func(c *Client) error { _, err := c.Health(); return err }},
		{"AdvisorStats", proto.BodyAdvisor, func(c *Client) error { _, err := c.AdvisorStats(); return err }},
		{"AdaptTick", proto.BodyFlips, func(c *Client) error { _, err := c.AdaptTick(); return err }},
		{"Commit", proto.BodyIDs, func(c *Client) error {
			tx := c.Begin()
			tx.Insert("r", tuple.I(1))
			_, err := tx.Commit()
			return err
		}},
	}
	for _, tc := range calls {
		t.Run(tc.name, func(t *testing.T) {
			peer, conn := net.Pipe()
			defer peer.Close()
			c := &Client{conn: conn, timeout: 10 * time.Second}
			defer c.Close()
			wrong := proto.BodyRows
			if tc.want == proto.BodyRows {
				wrong = proto.BodyNone
			}
			served := make(chan error, 1)
			go func() {
				if _, err := proto.ReadRequest(peer); err != nil {
					served <- err
					return
				}
				served <- proto.WriteResponse(peer, &proto.Response{Code: proto.CodeOK, Body: wrong})
			}()
			if err := tc.call(c); !errors.Is(err, ErrWrongBody) {
				t.Fatalf("answered with body %d: err = %v, want ErrWrongBody", wrong, err)
			}
			if err := <-served; err != nil {
				t.Fatalf("serving the wrong body: %v", err)
			}
			if err := c.Ping(); !errors.Is(err, ErrWrongBody) {
				t.Fatalf("call after the wrong body: err = %v, want the poisoning ErrWrongBody", err)
			}
		})
	}
}
