package server

import (
	"fmt"

	"viewmat/internal/core"
	"viewmat/internal/proto"
)

// process executes one admitted request against the engine. Handler
// panics (which a hostile request must never be able to provoke, but
// defense in depth is cheap) are converted to CodeError so the
// connection goroutine survives whatever the engine does.
func (s *Server) process(req *proto.Request) (resp *proto.Response) {
	defer func() {
		if r := recover(); r != nil {
			s.cfg.Logf("server: recovered panic handling %v: %v", req.Op, r)
			resp = &proto.Response{Code: proto.CodeError, Err: fmt.Sprintf("internal: %v", r)}
		}
	}()

	switch req.Op {
	case proto.OpPing:
		return &proto.Response{Code: proto.CodeOK}

	case proto.OpCreateRelBTree, proto.OpCreateRelHash:
		if req.Schema == nil || len(req.Schema.Cols) == 0 {
			return badRequest(fmt.Sprintf("%v: empty schema", req.Op))
		}
		var err error
		if req.Op == proto.OpCreateRelBTree {
			_, err = s.db.CreateRelationBTree(req.Name, req.Schema, req.KeyCol)
		} else {
			_, err = s.db.CreateRelationHash(req.Name, req.Schema, req.KeyCol, req.Buckets)
		}
		return statusOnly(err)

	case proto.OpCreateView:
		if req.View == nil {
			return badRequest("create-view: missing definition")
		}
		if !core.Strategy(req.Strategy).Valid() {
			return badRequest(fmt.Sprintf("create-view: unknown strategy %d", req.Strategy))
		}
		return statusOnly(s.db.CreateView(*req.View, core.Strategy(req.Strategy)))

	case proto.OpDropView:
		return statusOnly(s.db.DropView(req.Name))

	case proto.OpCommit:
		return s.processCommit(req)

	case proto.OpQueryView:
		var plan *core.QueryPlan // nil: the view's default
		if req.Plan >= 0 {
			p := core.QueryPlan(req.Plan)
			plan = &p
		}
		ans, err := s.db.QueryViewLanes(req.Name, req.Range, plan)
		if err != nil {
			return engineError(err)
		}
		return &proto.Response{Code: proto.CodeOK, Body: proto.BodyRows, Lanes: &ans}

	case proto.OpQueryAggregate:
		v, ok, err := s.db.QueryAggregate(req.Name)
		if err != nil {
			return engineError(err)
		}
		return &proto.Response{Code: proto.CodeOK, Body: proto.BodyAgg, Agg: v, AggOK: ok}

	case proto.OpRefreshAll:
		return statusOnly(s.db.RefreshAll())

	case proto.OpCheckpoint:
		return statusOnly(s.db.Checkpoint())

	case proto.OpHealth:
		h := s.db.Health()
		return &proto.Response{Code: proto.CodeOK, Body: proto.BodyHealth, Health: &h}

	case proto.OpAdvisorStats:
		return &proto.Response{Code: proto.CodeOK, Body: proto.BodyAdvisor, Advisor: s.db.AdvisorStats()}

	case proto.OpCreateSecondary:
		return statusOnly(s.db.CreateSecondaryIndex(req.Name, req.KeyCol))

	case proto.OpAdaptTick:
		flips, err := s.db.AdaptTick()
		if err != nil {
			return engineError(err)
		}
		return &proto.Response{Code: proto.CodeOK, Body: proto.BodyFlips, Flips: flips}

	default:
		return badRequest(fmt.Sprintf("unknown op %d", req.Op))
	}
}

// processCommit runs one transaction: ops are validated and queued in
// request order and applied atomically by Commit. The response carries
// the id assigned to each insert and update, in op order, so clients
// can address those tuples in later transactions.
func (s *Server) processCommit(req *proto.Request) *proto.Response {
	if len(req.TxOps) == 0 {
		return badRequest("commit: empty transaction")
	}
	tx := s.db.Begin()
	ids := make([]uint64, 0, len(req.TxOps))
	for i, op := range req.TxOps {
		var id uint64
		var err error
		switch op.Kind {
		case proto.TxInsert:
			id, err = tx.Insert(op.Rel, op.Vals...)
		case proto.TxDelete:
			err = tx.Delete(op.Rel, op.Key, op.ID)
		case proto.TxUpdate:
			id, err = tx.Update(op.Rel, op.Key, op.ID, op.Vals...)
		default:
			return badRequest(fmt.Sprintf("commit: op %d has unknown kind %d", i, op.Kind))
		}
		if err != nil {
			return engineError(fmt.Errorf("op %d: %w", i, err))
		}
		if op.Kind != proto.TxDelete {
			ids = append(ids, id)
		}
	}
	if err := tx.Commit(); err != nil {
		return engineError(err)
	}
	return &proto.Response{Code: proto.CodeOK, Body: proto.BodyIDs, IDs: ids}
}

func statusOnly(err error) *proto.Response {
	if err != nil {
		return engineError(err)
	}
	return &proto.Response{Code: proto.CodeOK}
}

func engineError(err error) *proto.Response {
	return &proto.Response{Code: proto.CodeError, Err: err.Error()}
}

func badRequest(msg string) *proto.Response {
	return &proto.Response{Code: proto.CodeBadRequest, Err: msg}
}
