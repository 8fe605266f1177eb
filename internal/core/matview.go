package core

import (
	"fmt"

	"viewmat/internal/exec"
	"viewmat/internal/pred"
	"viewmat/internal/relation"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// dupCountCol is the name of the hidden duplicate-count column.
const dupCountCol = "__dup"

// MatView is a materialized view stored as a clustered B+-tree with a
// hidden duplicate count per distinct row (§2.1): projection can map
// several source tuples to one view row, and without a count a deletion
// could not tell whether the row must disappear. ApplyDeltaRun's inserts
// increment the count (inserting at 1); its deletes decrement it
// (physically removing at 0) and fail on underflow — underflow is how the
// Appendix A anomaly in Blakeley's delete expansion manifests.
type MatView struct {
	name   string
	rel    *relation.Relation
	out    *tuple.Schema // logical (count-free) schema
	keyCol int
}

// StoredCorruptError reports that rows read back from a view's stored
// copy do not have the shape the view writes — bytes changed under the
// engine, typically in a snapshot. The read fails rather than answer
// from cells of the wrong type.
type StoredCorruptError struct {
	View   string
	Detail string
}

func (e *StoredCorruptError) Error() string {
	return fmt.Sprintf("core: stored copy of view %q is corrupt: %s", e.View, e.Detail)
}

// checkLane reports a corrupt stored copy of view unless stored column
// c holds type t in every row, the condition for reading its lane.
func checkLane(view string, cols []vec.Col, c int, t tuple.Type) error {
	if got, ok := cols[c].Uniform(); !ok || got != t {
		return &StoredCorruptError{View: view, Detail: fmt.Sprintf("column %d is not %s in every row", c, t)}
	}
	return nil
}

// NewMatView creates the backing store for a materialized view with
// the given logical output schema, clustered on keyCol.
func NewMatView(disk *storage.Disk, pool *storage.Pool, name string, out *tuple.Schema, keyCol int) (*MatView, error) {
	cols := append(append([]tuple.Column(nil), out.Cols...), tuple.Col(dupCountCol, tuple.Int))
	stored := tuple.NewSchema(cols...)
	rel, err := relation.NewBTree(disk, pool, name+".view", stored, keyCol)
	if err != nil {
		return nil, err
	}
	return &MatView{name: name, rel: rel, out: out, keyCol: keyCol}, nil
}

// Schema returns the logical (count-free) output schema.
func (v *MatView) Schema() *tuple.Schema { return v.out }

// KeyCol returns the clustering column of the view.
func (v *MatView) KeyCol() int { return v.keyCol }

// DistinctRows returns the number of distinct stored rows.
func (v *MatView) DistinctRows() int { return v.rel.Len() }

// Pages returns the view's data pages (unmetered).
func (v *MatView) Pages() int { return v.rel.Pages() }

// findRow locates the stored row with exactly these values, if any.
func (v *MatView) findRow(p *storage.Pool, vals []tuple.Value) (tuple.Tuple, bool, error) {
	matches, err := v.rel.LookupKey(p, vals[v.keyCol])
	if err != nil {
		return tuple.Tuple{}, false, err
	}
	for _, m := range matches {
		if valsEqualPrefix(m.Vals, vals) {
			return m, true, nil
		}
	}
	return tuple.Tuple{}, false, nil
}

func valsEqualPrefix(stored []tuple.Value, vals []tuple.Value) bool {
	if len(stored) != len(vals)+1 {
		return false
	}
	for i := range vals {
		if !tuple.Equal(stored[i], vals[i]) {
			return false
		}
	}
	return true
}

// ApplyDeltaRun applies a signed batch of source occurrences in stream
// order and returns how many rows it applied: all of them, or those
// before the one that failed. An insert (signs[i] ≥ 0, or nil signs)
// adds one occurrence of its row: it increments the duplicate count of an
// identical stored row, or inserts it with count 1 under ids[i], a fresh
// id. A delete removes one: it decrements the count, physically deleting
// the row at zero. A missing row is an error — the differential
// algorithm never deletes what it did not insert, so a miss means the
// caller used an incorrect expansion (see Appendix A) or corrupted state.
// Every row is validated before any is applied, so a batch with an
// invalid row applies the rows before it.
//
// The stored copy takes the rows as counted rows
// (relation.Relation.ApplyRun with the count column): a leaf visit
// answers each row's lookup from the leaf it decoded and raises or lowers
// the count of the row found, splices the row in or cuts it. A row the
// visit leaves takes a point lookup and then a write of its own
// (applyAlone). Either way pages, directory and charges end as row-by-row
// lookups and writes leave them (DESIGN §6).
func (v *MatView) ApplyDeltaRun(p *storage.Pool, rows [][]tuple.Value, signs []int8, ids []uint64) (int, error) {
	w := len(v.out.Cols) + 1
	cells := make([]tuple.Value, len(rows)*w)
	tps := make([]tuple.Tuple, 0, len(rows))
	var bad error
	for i, vals := range rows {
		if err := v.out.Validate(vals); err != nil {
			bad = fmt.Errorf("matview: %w", err)
			break
		}
		stored := cells[i*w : (i+1)*w : (i+1)*w]
		copy(stored, vals)
		stored[w-1] = tuple.I(1)
		tps = append(tps, tuple.Tuple{ID: ids[i], Vals: stored})
	}
	var sg []int8
	done := 0
	for done < len(tps) {
		if signs != nil {
			sg = signs[done:]
		}
		n, err := v.rel.ApplyRun(p, tps[done:], sg, w-1, nil)
		if done += n; err != nil {
			return done, err
		}
		if done < len(tps) {
			if err := v.applyAlone(p, tps[done], signs == nil || signs[done] >= 0); err != nil {
				return done, err
			}
			done++
		}
	}
	return done, bad
}

// applyAlone adds (plus) or removes one occurrence of stored row tp, of
// count 1, with a point lookup and then one write: the row's insert when
// none is found, else the pair that cuts the row found and puts it back
// with its new count (same key and id), or at a count of zero its cut
// alone.
func (v *MatView) applyAlone(p *storage.Pool, tp tuple.Tuple, plus bool) error {
	vals := tp.Vals[:len(tp.Vals)-1]
	row, found, err := v.findRow(p, vals)
	if err != nil {
		return err
	}
	if !found && !plus {
		return fmt.Errorf("matview: delete of absent row %v (duplicate-count underflow)", vals)
	}
	rows, signs := []tuple.Tuple{tp}, []int8(nil)
	if found {
		cnt := row.Vals[len(vals)].Int() - 1
		if plus {
			cnt = row.Vals[len(vals)].Int() + 1
		}
		rows, signs = []tuple.Tuple{row}, []int8{-1}
		if cnt > 0 {
			counted := append([]tuple.Value(nil), row.Vals...)
			counted[len(vals)] = tuple.I(cnt)
			rows, signs = append(rows, tuple.Tuple{ID: row.ID, Vals: counted}), append(signs, 1)
		}
	}
	_, err = v.rel.ApplyRun(p, rows, signs, -1, nil)
	return err
}

// scanOp is the charged leaf over the stored copy restricted to rg on
// the clustering column (nil for all), in key order: the trailing
// duplicate-count column becomes each row's multiplicity — carried in
// the batch's Dup lane, or with expand the row repeated that many times.
func (v *MatView) scanOp(o exec.Options, label exec.Label, rg *pred.Range, expand bool) exec.Operator {
	return exec.NewStoredScan(o, label, v.rel, orFull(rg), v.splitDupCount, expand)
}

// splitDupCount splits stored view columns into the logical columns and
// the duplicate counts.
func (v *MatView) splitDupCount(cols []vec.Col) ([]vec.Col, []int64, error) {
	n := len(v.out.Cols)
	if len(cols) != n+1 {
		return nil, nil, &StoredCorruptError{View: v.name, Detail: fmt.Sprintf("rows of %d columns, want %d", len(cols), n+1)}
	}
	if err := checkLane(v.name, cols, n, tuple.Int); err != nil {
		return nil, nil, err
	}
	return cols[:n], cols[n].Ints, nil
}

func orFull(rg *pred.Range) *pred.Range {
	if rg == nil {
		return pred.FullRange()
	}
	return rg
}
