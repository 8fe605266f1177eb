package main

import (
	"fmt"

	"viewmat/internal/client"
	"viewmat/internal/core"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
)

// queryRange is [lo,hi) on a view's key column.
type queryRange struct{ lo, hi int64 }

func (r *queryRange) pred() *pred.Range {
	if r == nil {
		return nil
	}
	return pred.NewRange(tuple.I(r.lo), tuple.I(r.hi), true, false)
}

func (r *queryRange) String() string {
	if r == nil {
		return ""
	}
	return fmt.Sprintf("[%d,%d)", r.lo, r.hi)
}

// txRow is one row of a transaction: an insert when id is 0, otherwise
// the replacement of tuple (vals[0], id).
type txRow struct {
	rel  string
	id   uint64
	vals []tuple.Value
}

// backend is what the op stream runs against: a viewmatd connection in
// the main and traced runs, the engine itself in pass B. The same
// loader, op stream and oracle drive both.
type backend interface {
	createRelation(name string, schema *tuple.Schema, keyCol int) error
	createView(def core.Def, strategy core.Strategy) error
	query(view string, rg *queryRange) ([][]tuple.Value, error)
	aggregate(view string) (float64, bool, error)
	// commit applies rows atomically and returns the id assigned to
	// each, in order.
	commit(rows []txRow) ([]uint64, error)
}

// wireBackend speaks to a server through internal/client.
type wireBackend struct{ c *client.Client }

func (b wireBackend) createRelation(name string, schema *tuple.Schema, keyCol int) error {
	return b.c.CreateRelationBTree(name, schema, keyCol)
}

func (b wireBackend) createView(def core.Def, strategy core.Strategy) error {
	return b.c.CreateView(def, strategy)
}

func (b wireBackend) query(view string, rg *queryRange) ([][]tuple.Value, error) {
	return b.c.QueryView(view, rg.pred())
}

func (b wireBackend) aggregate(view string) (float64, bool, error) {
	return b.c.QueryAggregate(view)
}

func (b wireBackend) commit(rows []txRow) ([]uint64, error) {
	tx := b.c.Begin()
	for _, r := range rows {
		if r.id == 0 {
			tx.Insert(r.rel, r.vals...)
		} else {
			tx.Update(r.rel, r.vals[0], r.id, r.vals...)
		}
	}
	return tx.Commit()
}

// engineBackend calls the engine directly, exactly as
// internal/server's handler does.
type engineBackend struct{ db *core.Database }

func (b engineBackend) createRelation(name string, schema *tuple.Schema, keyCol int) error {
	_, err := b.db.CreateRelationBTree(name, schema, keyCol)
	return err
}

func (b engineBackend) createView(def core.Def, strategy core.Strategy) error {
	return b.db.CreateView(def, strategy)
}

func (b engineBackend) query(view string, rg *queryRange) ([][]tuple.Value, error) {
	rows, err := b.db.QueryView(view, rg.pred())
	if err != nil {
		return nil, err
	}
	out := make([][]tuple.Value, len(rows))
	for i, r := range rows {
		out[i] = r.Vals
	}
	return out, nil
}

func (b engineBackend) aggregate(view string) (float64, bool, error) {
	return b.db.QueryAggregate(view)
}

func (b engineBackend) commit(rows []txRow) ([]uint64, error) {
	tx := b.db.Begin()
	ids := make([]uint64, 0, len(rows))
	for _, r := range rows {
		var id uint64
		var err error
		if r.id == 0 {
			id, err = tx.Insert(r.rel, r.vals...)
		} else {
			id, err = tx.Update(r.rel, r.vals[0], r.id, r.vals...)
		}
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return ids, nil
}

// load creates the workload's relations, bulk-loads them in loadBatch-row
// transactions, records every R tuple id in the shadow and creates the
// views. It returns the number of load commits. afterBatch, when
// non-nil, is called after every batch (the set-up speed probe).
func load(be backend, w *workload, s *shadow, afterBatch func()) (commits int, err error) {
	if err := be.createRelation(relR, schemaR(), 0); err != nil {
		return 0, fmt.Errorf("create %s: %w", relR, err)
	}
	if w.r2 {
		if err := be.createRelation(relR2, schemaR2(), 0); err != nil {
			return 0, fmt.Errorf("create %s: %w", relR2, err)
		}
	}
	batch := func(rel string, lo, hi int64, row func(k int64) []tuple.Value) ([]uint64, error) {
		rows := make([]txRow, 0, hi-lo)
		for k := lo; k < hi; k++ {
			rows = append(rows, txRow{rel: rel, vals: row(k)})
		}
		ids, err := be.commit(rows)
		if err != nil {
			return nil, fmt.Errorf("load %s[%d,%d): %w", rel, lo, hi, err)
		}
		commits++
		if afterBatch != nil {
			afterBatch()
		}
		return ids, nil
	}
	for lo := int64(0); lo < w.n; lo += loadBatch {
		ids, err := batch(relR, lo, min(lo+loadBatch, w.n), func(k int64) []tuple.Value {
			return []tuple.Value{tuple.I(k), tuple.I(colA(k, w.n)), tuple.I(initP(k))}
		})
		if err != nil {
			return commits, err
		}
		copy(s.id[lo:], ids)
	}
	if w.r2 {
		for lo := int64(0); lo < r2Rows(w.n); lo += loadBatch {
			if _, err := batch(relR2, lo, min(lo+loadBatch, r2Rows(w.n)), func(jk int64) []tuple.Value {
				return []tuple.Value{tuple.I(jk), tuple.I(r2Info(jk))}
			}); err != nil {
				return commits, err
			}
		}
	}
	for _, v := range w.views() {
		if err := be.createView(v.def, v.strategy); err != nil {
			return commits, fmt.Errorf("create view %s: %w", v.def.Name, err)
		}
	}
	return commits, nil
}
