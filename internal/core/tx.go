package core

import (
	"fmt"

	"viewmat/internal/tuple"
)

// Tx is a buffered update transaction. Operations are validated and
// queued by the Insert/Delete/Update methods and applied at Commit,
// which produces the transaction's net A and D sets — the inputs to
// the differential view-update algorithm.
type Tx struct {
	db   *Database
	ops  []txOp
	done bool
}

// txOpKind is an op's kind; the values are the kind byte of the op's
// byte layout (proto.TxInsert, TxDelete, TxUpdate on the wire).
type txOpKind uint8

const (
	opInsert txOpKind = iota
	opDelete
	opUpdate
)

type txOp struct {
	kind  txOpKind
	rel   string
	vals  []tuple.Value // insert/update: new values
	key   tuple.Value   // delete/update: clustering-key value of target
	id    uint64        // insert: id assigned; delete/update: id of target
	newID uint64        // update: id assigned to the replacement
}

// minTxOpSize is the least encoded size of an op: a kind, an empty
// relation name and an empty value list.
const minTxOpSize = 1 + 4 + 4

// CodeTxOp walks one transaction op's byte layout, the one a commit
// request and a WAL commit record share: [1 kind][relation], then for
// an insert its values, for a delete the target's key and [8 id], for
// an update the target's key and [8 id] and the new values. Fields the
// kind does not use are not walked.
func CodeTxOp(c *tuple.Coder, kind *uint8, rel *string, key *tuple.Value, id *uint64, vals *[]tuple.Value) {
	c.U8(kind)
	c.Str(rel)
	switch txOpKind(*kind) {
	case opInsert:
		c.Values(vals)
	case opDelete, opUpdate:
		c.Value(key)
		if c.U64(id); txOpKind(*kind) == opUpdate {
			c.Values(vals)
		}
	default:
		c.Fail("tx op of unknown kind %d", *kind)
	}
}

// Begin starts a transaction.
func (db *Database) Begin() *Tx { return &Tx{db: db} }

// checkRow holds a row bound for rel to its schema.
func (db *Database) checkRow(rel string, vals []tuple.Value) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.rels[rel]
	if !ok {
		return fmt.Errorf("core: unknown relation %q", rel)
	}
	return r.Schema().Validate(vals)
}

// Insert queues an insertion and returns the id the new tuple will
// carry.
func (tx *Tx) Insert(rel string, vals ...tuple.Value) (uint64, error) {
	if err := tx.db.checkRow(rel, vals); err != nil {
		return 0, err
	}
	id := tx.db.nextID()
	tx.ops = append(tx.ops, txOp{kind: opInsert, rel: rel, vals: vals, id: id})
	return id, nil
}

// Delete queues the deletion of the tuple with the given clustering-key
// value and id.
func (tx *Tx) Delete(rel string, key tuple.Value, id uint64) error {
	tx.db.mu.RLock()
	_, ok := tx.db.rels[rel]
	tx.db.mu.RUnlock()
	if !ok {
		return fmt.Errorf("core: unknown relation %q", rel)
	}
	tx.ops = append(tx.ops, txOp{kind: opDelete, rel: rel, key: key, id: id})
	return nil
}

// Update queues the replacement of the tuple (key, id) with new values;
// the replacement receives a fresh id, which is returned.
func (tx *Tx) Update(rel string, key tuple.Value, id uint64, vals ...tuple.Value) (uint64, error) {
	if err := tx.db.checkRow(rel, vals); err != nil {
		return 0, err
	}
	newID := tx.db.nextID()
	tx.ops = append(tx.ops, txOp{kind: opUpdate, rel: rel, key: key, id: id, vals: vals, newID: newID})
	return newID, nil
}

// deltas are a transaction's net changes per relation.
type deltas struct {
	adds []tuple.Tuple
	dels []tuple.Tuple
}

// Commit applies the transaction: writes reach the base relations (or
// the AD differential file for HR-wrapped relations), written tuples
// are screened against every registered view, and immediate views are
// refreshed with the transaction's marked deltas. The buffer pool is
// evicted first so each transaction is charged from a cold cache, the
// accounting posture of the cost model.
func (tx *Tx) Commit() error {
	if tx.done {
		return fmt.Errorf("core: transaction already finished")
	}
	tx.done = true
	// With durability on, the commit is acknowledged only once a sync
	// covers its logical record, waited for after the engine lock is
	// released (see durability.go).
	w, err := tx.db.commit(tx.ops)
	if serr := w.settle(); err == nil {
		err = serr
	}
	return err
}

// commit applies and logs a transaction under the engine write lock,
// and returns what it still owes once the lock is released.
func (db *Database) commit(ops []txOp) (commitWait, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	clockBefore := db.clock.Load()
	if err := db.applyOpsLocked(ops); err != nil {
		return commitWait{}, err
	}
	return db.logCommitLocked(ops, clockBefore)
}

// applyOpsLocked runs a transaction's queued ops through the full
// commit pipeline: cold-cache eviction, base/AD writes, screening,
// immediate refresh, periodic deferred refresh. It is the body of
// Commit, split out so WAL replay can re-execute a logged transaction
// through the identical code path. Caller holds the engine write lock.
func (db *Database) applyOpsLocked(ops []txOp) error {
	if err := db.pool.EvictAll(); err != nil {
		return err
	}
	db.bumpCommits()

	perRel := map[string]*deltas{}
	record := func(rel string, add *tuple.Tuple, del *tuple.Tuple) {
		d := perRel[rel]
		if d == nil {
			d = &deltas{}
			perRel[rel] = d
		}
		if add != nil {
			d.adds = append(d.adds, *add)
		}
		if del != nil {
			d.dels = append(d.dels, *del)
		}
	}

	// Apply writes (PhaseCommitWrite): an HR-wrapped relation's writes
	// go to its AD file, every other relation's to its base file.
	err := db.inPhase(PhaseCommitWrite, func() error {
		for i := range ops {
			op := &ops[i]
			r := db.rels[op.rel]
			h := db.hrs[op.rel]
			switch op.kind {
			case opInsert:
				tp := tuple.Tuple{ID: op.id, Vals: op.vals}
				if h != nil {
					if err := h.Append(tp); err != nil {
						return err
					}
				} else if err := r.Insert(tp); err != nil {
					return err
				}
				record(op.rel, &tp, nil)
			case opDelete:
				var old tuple.Tuple
				var ok bool
				var err error
				if h != nil {
					old, ok, err = h.Delete(op.key, op.id)
				} else {
					old, ok, err = r.Delete(op.key, op.id)
				}
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("core: delete of absent tuple (%s, id %d) in %q", op.key, op.id, op.rel)
				}
				record(op.rel, nil, &old)
			case opUpdate:
				newTp := tuple.Tuple{ID: op.newID, Vals: op.vals}
				var old tuple.Tuple
				var ok bool
				var err error
				if h != nil {
					old, ok, err = h.Update(op.key, op.id, newTp)
				} else {
					old, ok, err = r.Update(op.key, op.id, newTp)
				}
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("core: update of absent tuple (%s, id %d) in %q", op.key, op.id, op.rel)
				}
				record(op.rel, &newTp, &old)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Screen written tuples (PhaseScreen): every inserted and deleted
	// tuple runs the two-stage test once; hits become the marked
	// per-view delta sets.
	marked := map[string]map[int]*deltas{} // view -> slot -> deltas
	err = db.inPhase(PhaseScreen, func() error {
		// One meter batch for the whole screening loop: the deferred
		// flush runs before inPhase takes its closing snapshot, so the
		// phase attribution sees every screen while the loop itself
		// pays one atomic update instead of one per candidate tuple.
		sb := db.meter.Batch()
		defer sb.Close()
		for rel, d := range perRel {
			for _, tp := range d.adds {
				for _, view := range db.locks.ScreenBatch(rel, tp, sb) {
					addMarked(marked, db.views[view], rel, tp, true)
				}
			}
			for _, tp := range d.dels {
				for _, view := range db.locks.ScreenBatch(rel, tp, sb) {
					addMarked(marked, db.views[view], rel, tp, false)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	touched := map[string]bool{}
	for rel := range perRel {
		touched[rel] = true
	}
	db.noteCommitLocked(marked, touched)
	db.observeCommitLocked(perRel, marked)

	// Drain the marked write-set into the views maintained inside the
	// commit (PhaseImmRefresh), charging the C3 bookkeeping overhead per
	// marked tuple (C_overhead). Deferred views leave theirs pending in
	// the AD file for the next deferred refresh. Views go in name order:
	// their refreshes draw view-row ids from the shared clock, so the
	// order is part of the state WAL replay must reproduce.
	err = db.inPhase(PhaseImmRefresh, func() error {
		for _, name := range sortedKeys(marked) {
			vs, slots := db.views[name], marked[name]
			if vs.row().trigger != onCommit {
				continue
			}
			var total int64
			for _, d := range slots {
				total += int64(len(d.adds) + len(d.dels))
			}
			if total == 0 {
				continue
			}
			db.meter.ADTouch(total)
			if err := db.refreshGroup([]*viewState{vs}, baseFeed(vs, slots, false)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Deferred views with a periodic refresh policy (§4) refresh here.
	if err := db.runPeriodicDeferredRefresh(); err != nil {
		return err
	}

	// Commit-triggered children of parents refreshed above consume the
	// new log entries before the commit returns.
	return db.cascadeImmediateChildrenLocked()
}

// addMarked files a marked tuple into the view's per-slot delta sets.
func addMarked(marked map[string]map[int]*deltas, vs *viewState, rel string, tp tuple.Tuple, isAdd bool) {
	if vs == nil || vs.strategy == QueryModification {
		return
	}
	slots := marked[vs.def.Name]
	if slots == nil {
		slots = map[int]*deltas{}
		marked[vs.def.Name] = slots
	}
	for slot, rn := range vs.def.Relations {
		if rn != rel {
			continue
		}
		d := slots[slot]
		if d == nil {
			d = &deltas{}
			slots[slot] = d
		}
		if isAdd {
			d.adds = append(d.adds, tp)
		} else {
			d.dels = append(d.dels, tp)
		}
	}
}

// MustCommit is Commit that panics on error; examples use it.
func (tx *Tx) MustCommit() {
	if err := tx.Commit(); err != nil {
		panic(err)
	}
}
