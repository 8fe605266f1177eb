package exec

import (
	"fmt"

	"viewmat/internal/relation"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// joinEmitter accumulates joined rows into a size-capped output batch,
// carrying a row over when the current batch is full (or its shape
// changed) so charges already issued for the row aren't repeated.
type joinEmitter struct {
	size  int
	out   *vec.Batch
	carry *Row
}

// add appends a produced row, reporting false when the current batch
// must be emitted first (the row is carried into the next batch).
func (e *joinEmitter) add(r Row) bool {
	if e.out == nil {
		e.out = &vec.Batch{}
	}
	if appendRow(e.out, r, e.size) {
		return true
	}
	e.carry = &r
	return false
}

// take hands over the current batch and seeds the next with any
// carried row; with none, the next batch is made by the next add.
func (e *joinEmitter) take() *vec.Batch {
	b := e.out
	e.out = nil
	if r := e.carry; r != nil {
		e.carry = nil
		e.add(*r)
	}
	return b
}

// pending reports whether any rows are buffered.
func (e *joinEmitter) pending() bool { return e.out != nil && e.out.NumRows() > 0 }

// outerCursor walks the live rows of a join's outer input one at a
// time, fetching input batches as needed.
type outerCursor struct {
	in [1]Operator // the input: Children hands it out unallocated
	b  *vec.Batch
	k  int // next live position in b
}

// next pulls the next live outer row.
func (c *outerCursor) next() (Row, bool, error) {
	for {
		if c.b != nil && c.k < c.b.LiveCount() {
			i := c.b.LiveIndex(c.k)
			c.k++
			return rowAt(c.b, i), true, nil
		}
		b, err := c.in[0].NextBatch()
		if err != nil || b == nil {
			return Row{}, false, err
		}
		c.b, c.k = b, 0
	}
}

// LoopJoin is the nested-loop join of Model 2: for each outer row it
// probes the inner relation's clustering index by the row's slot-0 join
// column (the inner's pages stay resident per §3.4.3) and emits one
// joined row per match, with the outer row's polarity. SkipIDs recovers
// R2' from end-of-epoch files by skipping this epoch's A-set ids. When
// chargeMatch is set every probed match costs one C1 unit (the query
// plan's per-match handling); refresh pipelines leave it unset because
// their per-tuple cost is charged upstream. The join tests nothing but
// the join value: the Filter above it tests the joined binding.
type LoopJoin struct {
	base
	outer       outerCursor
	inner       *relation.Relation
	joinCol     int
	skipIDs     map[uint64]bool
	chargeMatch bool

	em      joinEmitter
	cur     Row
	hasCur  bool
	matches []tuple.Tuple
	mi      int
}

// LoopJoinSpec configures a LoopJoin.
type LoopJoinSpec struct {
	Input   Operator
	Inner   *relation.Relation
	JoinCol int             // the outer slot-0 column probed
	SkipIDs map[uint64]bool // inner ids skipped (recover R2')
	// ChargeMatch charges one C1 per probed match.
	ChargeMatch bool
}

// NewLoopJoin builds an index nested-loop join.
func NewLoopJoin(o Options, spec LoopJoinSpec) *LoopJoin {
	return &LoopJoin{
		base: o.base(), outer: outerCursor{in: [1]Operator{spec.Input}}, inner: spec.Inner,
		joinCol: spec.JoinCol, skipIDs: spec.SkipIDs, chargeMatch: spec.ChargeMatch,
		em: joinEmitter{size: o.size()},
	}
}

func (j *LoopJoin) Open() error { return j.outer.in[0].Open() }

func (j *LoopJoin) NextBatch() (*vec.Batch, error) {
	for {
		// Drain the current outer row's matches.
		for j.hasCur && j.mi < len(j.matches) {
			t2 := j.matches[j.mi]
			j.mi++
			if j.chargeMatch {
				j.screen(1)
			}
			if !j.em.add(Row{T0: j.cur.T0, T1: t2, Insert: j.cur.Insert}) {
				return j.emitBatch(j.em.take()), nil
			}
		}
		// Advance to the next outer row, probing the inner relation.
		cur, ok, err := j.outer.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			if j.em.pending() {
				return j.emitBatch(j.em.take()), nil
			}
			return nil, nil
		}
		j.cur, j.hasCur = cur, true
		var probed []tuple.Tuple
		err = j.bracket(func() error {
			var e error
			probed, e = j.inner.LookupKey(j.pool, cur.T0.Vals[j.joinCol])
			return e
		})
		if err != nil {
			return nil, err
		}
		j.matches = j.matches[:0]
		for _, t2 := range probed {
			if j.skipIDs[t2.ID] {
				continue
			}
			j.matches = append(j.matches, t2)
		}
		j.mi = 0
	}
}

func (j *LoopJoin) Close() error         { return j.outer.in[0].Close() }
func (j *LoopJoin) Children() []Operator { return j.outer.in[:] }
func (j *LoopJoin) Stats() OpStats       { return j.stats() }
func (j *LoopJoin) Describe() string {
	mode := ""
	if len(j.skipIDs) > 0 {
		mode = " skip-A"
	}
	return fmt.Sprintf("LoopJoin(%s%s)", j.inner.Name(), mode)
}

// MatchDeltas joins the outer stream against in-memory delta sets by
// join-value equality — the outer row's slot-0 column outerCol against
// each delta tuple's column deltaCol: matching adds emit inserts,
// matching dels emit deletes, whatever the outer row's polarity. It
// serves every term of the corrected expansion with a delta set on the
// inner side: R1'×A2 and R1'×D2 over a scan of R1', A1×A2 over the A1
// rows with adds = A2, and D1×D2 over the D1 rows with dels = D2.
// flatScreens charges the per-delta handling cost once for the whole
// stream (the corrected expansion's C1·(|A2|+|D2|) term) at Open.
type MatchDeltas struct {
	base
	outer              outerCursor
	adds, dels         []tuple.Tuple
	outerCol, deltaCol int
	flatScreens        int64

	em     joinEmitter
	cur    Row
	hasCur bool
	phase  int // 0 = adds, 1 = dels
	di     int
}

// NewMatchDeltas builds a delta-matching join against the outer stream.
func NewMatchDeltas(o Options, input Operator, adds, dels []tuple.Tuple, outerCol, deltaCol int, flatScreens int64) *MatchDeltas {
	return &MatchDeltas{
		base: o.base(), outer: outerCursor{in: [1]Operator{input}}, adds: adds, dels: dels,
		outerCol: outerCol, deltaCol: deltaCol, flatScreens: flatScreens,
		em: joinEmitter{size: o.size()},
	}
}

func (md *MatchDeltas) Open() error {
	if md.flatScreens > 0 {
		md.screen(md.flatScreens)
	}
	return md.outer.in[0].Open()
}

func (md *MatchDeltas) NextBatch() (*vec.Batch, error) {
	for {
		if md.hasCur {
			list := md.adds
			insert := true
			if md.phase == 1 {
				list, insert = md.dels, false
			}
			for md.di < len(list) {
				t2 := list[md.di]
				md.di++
				if !tuple.Equal(md.cur.T0.Vals[md.outerCol], t2.Vals[md.deltaCol]) {
					continue
				}
				if !md.em.add(Row{T0: md.cur.T0, T1: t2, Insert: insert}) {
					return md.emitBatch(md.em.take()), nil
				}
			}
			if md.phase == 0 {
				md.phase, md.di = 1, 0
				continue
			}
			md.hasCur = false
		}
		cur, ok, err := md.outer.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			if md.em.pending() {
				return md.emitBatch(md.em.take()), nil
			}
			return nil, nil
		}
		md.cur, md.hasCur = cur, true
		md.phase, md.di = 0, 0
	}
}

func (md *MatchDeltas) Close() error         { return md.outer.in[0].Close() }
func (md *MatchDeltas) Children() []Operator { return md.outer.in[:] }
func (md *MatchDeltas) Stats() OpStats       { return md.stats() }
func (md *MatchDeltas) Describe() string {
	return fmt.Sprintf("MatchDeltas(a=%d d=%d)", len(md.adds), len(md.dels))
}
