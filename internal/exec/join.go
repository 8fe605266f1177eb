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
// carried row.
func (e *joinEmitter) take() *vec.Batch {
	b := e.out
	e.out = &vec.Batch{}
	if e.carry != nil {
		appendRow(e.out, *e.carry, e.size)
		e.carry = nil
	}
	return b
}

// pending reports whether any rows are buffered.
func (e *joinEmitter) pending() bool { return e.out != nil && e.out.NumRows() > 0 }

// LoopJoin is the nested-loop join of Model 2: for each outer row it
// probes the inner relation's clustering index by join value (the
// inner's pages stay resident per §3.4.3) and emits one joined row per
// surviving match. SkipIDs recovers R2' from end-of-epoch files by
// skipping this epoch's A-set ids. When chargeMatch is set every probed
// match costs one C1 unit (the query plan's per-match handling);
// refresh pipelines leave it unset because their per-tuple cost is
// charged upstream.
type LoopJoin struct {
	base
	in          [1]Operator // the input: Children hands it out unallocated
	inner       *relation.Relation
	joinVal     func(Row) tuple.Value
	on          func(Row) bool
	skipIDs     map[uint64]bool
	chargeMatch bool

	em      joinEmitter
	inb     *vec.Batch
	k       int // next live position in inb
	cur     Row
	hasCur  bool
	matches []tuple.Tuple
	mi      int
}

// LoopJoinSpec configures a LoopJoin.
type LoopJoinSpec struct {
	Input   Operator
	Inner   *relation.Relation
	JoinVal func(Row) tuple.Value // outer row → join value probed
	On      func(Row) bool        // joined-binding predicate (nil = all)
	SkipIDs map[uint64]bool       // inner ids skipped (recover R2')
	// ChargeMatch charges one C1 per probed match.
	ChargeMatch bool
}

// NewLoopJoin builds an index nested-loop join.
func NewLoopJoin(o Options, spec LoopJoinSpec) *LoopJoin {
	return &LoopJoin{
		base: base{meter: o.Meter}, in: [1]Operator{spec.Input}, inner: spec.Inner,
		joinVal: spec.JoinVal, on: spec.On, skipIDs: spec.SkipIDs, chargeMatch: spec.ChargeMatch,
		em: joinEmitter{size: o.size()},
	}
}

func (j *LoopJoin) Open() error { return j.in[0].Open() }

func (j *LoopJoin) NextBatch() (*vec.Batch, error) {
	for {
		// Drain the current outer row's surviving matches.
		for j.hasCur && j.mi < len(j.matches) {
			t2 := j.matches[j.mi]
			j.mi++
			if j.chargeMatch {
				j.screen(1)
			}
			row := Row{T0: j.cur.T0, T1: t2, Insert: j.cur.Insert}
			if j.on == nil || j.on(row) {
				if !j.em.add(row) {
					return j.emitBatch(j.em.take()), nil
				}
			}
		}
		// Advance to the next outer row, probing the inner relation.
		cur, ok, err := j.nextOuter()
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
			probed, e = j.inner.LookupKey(j.joinVal(cur))
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

// nextOuter pulls the next live outer row, fetching input batches as
// needed.
func (j *LoopJoin) nextOuter() (Row, bool, error) {
	for {
		if j.inb != nil && j.k < j.inb.LiveCount() {
			i := j.inb.LiveIndex(j.k)
			j.k++
			return rowAt(j.inb, i), true, nil
		}
		b, err := j.in[0].NextBatch()
		if err != nil || b == nil {
			return Row{}, false, err
		}
		j.inb, j.k = b, 0
	}
}

func (j *LoopJoin) Close() error         { return j.in[0].Close() }
func (j *LoopJoin) Children() []Operator { return j.in[:] }
func (j *LoopJoin) Stats() OpStats       { return j.stats() }
func (j *LoopJoin) Describe() string {
	mode := ""
	if len(j.skipIDs) > 0 {
		mode = " skip-A"
	}
	return fmt.Sprintf("LoopJoin(%s%s)", j.inner.Name(), mode)
}

// MatchDeltas joins the outer stream against in-memory R2-side delta
// sets by join-value equality: matching A2 tuples emit inserts,
// matching D2 tuples emit deletes. flatScreens charges the per-delta
// handling cost once for the whole stream (the corrected expansion's
// C1·(|A2|+|D2|) term) at Open.
type MatchDeltas struct {
	base
	in          [1]Operator // the input: Children hands it out unallocated
	adds, dels  []tuple.Tuple
	outerVal    func(Row) tuple.Value
	deltaCol    int
	on          func(Row) bool
	flatScreens int64

	em     joinEmitter
	inb    *vec.Batch
	k      int
	cur    Row
	hasCur bool
	phase  int // 0 = adds, 1 = dels
	di     int
}

// NewMatchDeltas builds a delta-matching join against the outer stream.
func NewMatchDeltas(o Options, input Operator, adds, dels []tuple.Tuple,
	outerVal func(Row) tuple.Value, deltaCol int, on func(Row) bool, flatScreens int64) *MatchDeltas {
	return &MatchDeltas{
		base: base{meter: o.Meter}, in: [1]Operator{input}, adds: adds, dels: dels,
		outerVal: outerVal, deltaCol: deltaCol, on: on, flatScreens: flatScreens,
		em: joinEmitter{size: o.size()},
	}
}

func (md *MatchDeltas) Open() error {
	if md.flatScreens > 0 {
		md.screen(md.flatScreens)
	}
	return md.in[0].Open()
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
				if !tuple.Equal(md.outerVal(md.cur), t2.Vals[md.deltaCol]) {
					continue
				}
				row := Row{T0: md.cur.T0, T1: t2, Insert: insert}
				if md.on == nil || md.on(row) {
					if !md.em.add(row) {
						return md.emitBatch(md.em.take()), nil
					}
				}
			}
			if md.phase == 0 {
				md.phase, md.di = 1, 0
				continue
			}
			md.hasCur = false
		}
		cur, ok, err := md.nextOuter()
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

func (md *MatchDeltas) nextOuter() (Row, bool, error) {
	for {
		if md.inb != nil && md.k < md.inb.LiveCount() {
			i := md.inb.LiveIndex(md.k)
			md.k++
			return rowAt(md.inb, i), true, nil
		}
		b, err := md.in[0].NextBatch()
		if err != nil || b == nil {
			return Row{}, false, err
		}
		md.inb, md.k = b, 0
	}
}

func (md *MatchDeltas) Close() error         { return md.in[0].Close() }
func (md *MatchDeltas) Children() []Operator { return md.in[:] }
func (md *MatchDeltas) Stats() OpStats       { return md.stats() }
func (md *MatchDeltas) Describe() string {
	return fmt.Sprintf("MatchDeltas(a=%d d=%d)", len(md.adds), len(md.dels))
}

// CrossDeltas emits the delta cross terms of the corrected expansion:
// A1×A2 joined pairs as inserts, then D1×D2 pairs as deletes, matched
// on join-value equality. Both sets are in memory; no charges accrue.
type CrossDeltas struct {
	base
	a1, a2, d1, d2 []tuple.Tuple
	col0, col1     int
	on             func(Row) bool

	em     joinEmitter
	phase  int // 0 = A1×A2, 1 = D1×D2
	i, jdx int
}

// NewCrossDeltas builds the cross-term source.
func NewCrossDeltas(o Options, a1, a2, d1, d2 []tuple.Tuple, col0, col1 int, on func(Row) bool) *CrossDeltas {
	return &CrossDeltas{a1: a1, a2: a2, d1: d1, d2: d2, col0: col0, col1: col1, on: on,
		em: joinEmitter{size: o.size()}}
}

func (cd *CrossDeltas) Open() error { return nil }

func (cd *CrossDeltas) NextBatch() (*vec.Batch, error) {
	for {
		outer, inner := cd.a1, cd.a2
		insert := true
		if cd.phase == 1 {
			outer, inner, insert = cd.d1, cd.d2, false
		}
		if cd.i >= len(outer) {
			if cd.phase == 0 {
				cd.phase, cd.i, cd.jdx = 1, 0, 0
				continue
			}
			if cd.em.pending() {
				return cd.emitBatch(cd.em.take()), nil
			}
			return nil, nil
		}
		if cd.jdx >= len(inner) {
			cd.i++
			cd.jdx = 0
			continue
		}
		t1, t2 := outer[cd.i], inner[cd.jdx]
		cd.jdx++
		if !tuple.Equal(t1.Vals[cd.col0], t2.Vals[cd.col1]) {
			continue
		}
		row := Row{T0: t1, T1: t2, Insert: insert}
		if cd.on == nil || cd.on(row) {
			if !cd.em.add(row) {
				return cd.emitBatch(cd.em.take()), nil
			}
		}
	}
}

func (cd *CrossDeltas) Close() error         { return nil }
func (cd *CrossDeltas) Children() []Operator { return nil }
func (cd *CrossDeltas) Stats() OpStats       { return cd.stats() }
func (cd *CrossDeltas) Describe() string {
	return fmt.Sprintf("CrossDeltas(a1×a2=%dx%d d1×d2=%dx%d)", len(cd.a1), len(cd.a2), len(cd.d1), len(cd.d2))
}
