package core

import (
	"fmt"
	"slices"

	"viewmat/internal/colpage"
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

// checkRow holds a row bound for rel to its schema, and refuses one a
// page of the engine's cannot hold alone in any form a commit stores it
// in: the access method would refuse it halfway through the commit,
// after the rows before it. The forms are the row itself; its AD entry
// when an HR wraps rel, the row and its role (hr.adTuple); and its row
// in every select-project or grouped-aggregate view it reaches
// (tooWideIn).
func (db *Database) checkRow(rel string, vals []tuple.Value) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.rels[rel]
	if !ok {
		return fmt.Errorf("core: unknown relation %q", rel)
	}
	if err := r.Schema().Validate(vals); err != nil {
		return err
	}
	tp, page := tuple.Tuple{Vals: vals}, db.disk.PageSize()
	size := tp.EncodedSize()
	if !colpage.FitsAlone(tp, page) {
		return fmt.Errorf("core: tuple of %d bytes exceeds page capacity %d", size, page)
	}
	if _, ok := db.hrs[rel]; ok && !colpage.SizeFitsAlone(size+tuple.ValueSize(tuple.I(0)), len(vals)+1, page) {
		return fmt.Errorf("core: tuple of %d bytes: its AD entry exceeds page capacity %d", size, page)
	}
	if view := db.tooWideIn(rel, vals, page); view != "" {
		return fmt.Errorf("core: tuple of %d bytes: its row in view %q exceeds page capacity %d", size, view, page)
	}
	return nil
}

// tooWideIn returns the first in name order of the views that a row vals
// of src reaches — select-project and grouped-aggregate views over src
// whose predicate it satisfies, and views over those select-project
// views — where its stored row fits no page of page bytes alone; "" when
// there is none. A select-project view stores the projection and the
// duplicate count (NewMatView), a grouped aggregate the row's group
// value, the count, three Floats (groupStoreSchema). Every strategy
// counts: the advisor may store a query-modification view later.
func (db *Database) tooWideIn(src string, vals []tuple.Value, page int) string {
	first := ""
	for name, vs := range db.views {
		d := &vs.def
		if (d.Kind != SelectProject && d.Kind != GroupedAggregate) || d.Relations[0] != src || !d.Pred.EvalSingle(0, tuple.Tuple{Vals: vals}) {
			continue
		}
		size, cols := 8+2, 0 // id and arity
		if d.Kind == GroupedAggregate {
			size += tuple.ValueSize(tuple.Canonical(vals[d.GroupBy])) + tuple.ValueSize(tuple.I(0)) + 3*tuple.ValueSize(tuple.F(0))
			cols = 5
		} else {
			size += tuple.ValueSize(tuple.I(1)) // the count
			for _, c := range d.Project[0] {
				size += tuple.ValueSize(vals[c])
			}
			cols = len(d.Project[0]) + 1
		}
		bad := name
		if colpage.SizeFitsAlone(size, cols, page) {
			bad = ""
			if d.Kind == SelectProject && len(db.children[name]) > 0 {
				bad = db.tooWideIn(name, d.ProjectTuples(tuple.Tuple{Vals: vals}, tuple.Tuple{}), page)
			}
		}
		if bad != "" && (first == "" || bad < first) {
			first = bad
		}
	}
	return first
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
// refreshed with the transaction's marked deltas. The transaction is an
// operation of its own, charged from a cold pool, the accounting
// posture of the cost model.
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
	db.lock()
	defer db.mu.Unlock()
	clockBefore := db.clock.Load()
	err := db.run(opWhat{kind: "commit", tx: ops}, func(o *op) error {
		o.locked()
		return o.applyOpsLocked(ops)
	})
	if err != nil {
		return commitWait{}, err
	}
	return db.logCommitLocked(ops, clockBefore)
}

// applyOpsLocked runs a transaction's queued ops through the full
// commit pipeline: base/AD writes, screening, immediate refresh,
// periodic deferred refresh. It is the body of Commit, split out so WAL
// replay can re-execute a logged transaction through the identical code
// path. Caller holds the engine write lock.
func (db *op) applyOpsLocked(ops []txOp) error {
	db.statsMu.Lock()
	db.Commits++
	db.statsMu.Unlock()

	// Apply writes (PhaseCommitWrite): each stretch of consecutive ops on
	// one relation goes to its store as one signed batch, whatever the op
	// kinds — an HR-wrapped relation's to its AD file, every other
	// relation's to its base files, in the order Relation.ApplyRun gives
	// them. The rows a batch's inserts carry are the relation's adds, and
	// the rows its deletes cut are its dels, the tuples they had.
	perRel := map[string]*deltas{}
	err := db.inPhase(PhaseCommitWrite, func() error {
		for i := 0; i < len(ops); {
			rel := ops[i].rel
			j := i + 1
			for j < len(ops) && ops[j].rel == rel {
				j++
			}
			r, h := db.rels[rel], db.hrs[rel]
			rows, signs, dels := signedRows(ops[i:j], r.KeyCol())
			d := perRel[rel]
			if d == nil {
				d = &deltas{}
				perRel[rel] = d
			}
			// Room for the stretch's rows: recording them allocates once.
			d.adds, d.dels = slices.Grow(d.adds, len(rows)-dels), slices.Grow(d.dels, dels)
			var err error
			if h != nil {
				_, err = h.ApplyRun(db.pool, rows, signs, &d.dels)
			} else {
				_, err = r.ApplyRun(db.pool, rows, signs, -1, &d.dels)
			}
			if err != nil {
				return fmt.Errorf("core: %q: %w", rel, err)
			}
			for k, tp := range rows {
				if signs[k] > 0 {
					d.adds = append(d.adds, tp)
				}
			}
			i = j
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
		for rel, d := range perRel {
			for _, tp := range d.adds {
				for _, view := range db.locks.Screen(rel, tp, &db.scope) {
					addMarked(marked, db.views[view], rel, tp, true)
				}
			}
			for _, tp := range d.dels {
				for _, view := range db.locks.Screen(rel, tp, &db.scope) {
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
			db.scope.ADTouch(total)
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

// signedRows returns ops, all on one relation clustered on keyCol, as one
// signed batch, and how many of its rows are deletes: an insert is its
// row, a delete a row of its target's key and id, and an update the pair
// of the two.
func signedRows(ops []txOp, keyCol int) (rows []tuple.Tuple, signs []int8, dels int) {
	n := len(ops)
	for _, op := range ops {
		if op.kind != opInsert {
			dels++
		}
		if op.kind == opUpdate {
			n++
		}
	}
	rows, signs = make([]tuple.Tuple, 0, n), make([]int8, 0, n)
	keys := make([]tuple.Value, dels*(keyCol+1))
	for _, op := range ops {
		if op.kind == opInsert {
			rows, signs = append(rows, tuple.Tuple{ID: op.id, Vals: op.vals}), append(signs, 1)
			continue
		}
		key := keys[: keyCol+1 : keyCol+1]
		keys = keys[keyCol+1:]
		key[keyCol] = op.key
		rows, signs = append(rows, tuple.Tuple{ID: op.id, Vals: key}), append(signs, -1)
		if op.kind == opUpdate {
			rows, signs = append(rows, tuple.Tuple{ID: op.newID, Vals: op.vals}), append(signs, 1)
		}
	}
	return rows, signs, dels
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
