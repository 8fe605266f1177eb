package main

import (
	"fmt"

	"viewmat/internal/tuple"
)

// answer is the closed-form digest every query result is reduced to:
// row count, smallest and largest key (column 0), and the column sums
// (column 1 is always p; column 2, when present, the join's info).
type answer struct {
	rows           int
	minKey, maxKey int64
	sumKey         int64
	sumP, sumX     int64
}

func digest(rows [][]tuple.Value) answer {
	var a answer
	for i, r := range rows {
		k := r[0].Int()
		if i == 0 || k < a.minKey {
			a.minKey = k
		}
		if i == 0 || k > a.maxKey {
			a.maxKey = k
		}
		a.rows++
		a.sumKey += k
		a.sumP += r[1].Int()
		if len(r) > 2 {
			a.sumX += r[2].Int()
		}
	}
	return a
}

// shadow is the harness's own copy of R's mutable state: p and the
// current tuple id of every key. Client c reads and writes only the
// entries of its own blocks while the run is in flight; whole-relation
// reads happen only after every client has stopped.
type shadow struct {
	n  int64
	p  []int64
	id []uint64
	// scan and aggSum never change: scan-qm has no updates, and every
	// transaction preserves SUM(p) over the view region.
	scan   answer
	aggSum float64
}

func newShadow(n int64) *shadow {
	s := &shadow{n: n, p: make([]int64, n), id: make([]uint64, n)}
	for k := int64(0); k < n; k++ {
		s.p[k] = initP(k)
		if k < n/2 {
			s.aggSum += float64(s.p[k])
		}
		if a := colA(k, n); a < scanBelow(n) {
			if s.scan.rows == 0 || a < s.scan.minKey {
				s.scan.minKey = a
			}
			if a > s.scan.maxKey {
				s.scan.maxKey = a
			}
			s.scan.rows++
			s.scan.sumKey += a
			s.scan.sumP += s.p[k]
		}
	}
	return s
}

// expectRange is the Model-1 view's answer for keys [lo,hi), which must
// lie inside the view region.
func (s *shadow) expectRange(lo, hi int64) answer {
	a := answer{rows: int(hi - lo), minKey: lo, maxKey: hi - 1}
	for k := lo; k < hi; k++ {
		a.sumKey += k
		a.sumP += s.p[k]
	}
	return a
}

// expectJoin is the Model-2 view's answer for keys [lo,hi): R rows whose
// a falls on one of R2's keys.
func (s *shadow) expectJoin(lo, hi int64) answer {
	var a answer
	for k := lo; k < hi; k++ {
		jk := colA(k, s.n)
		if jk >= r2Rows(s.n) {
			continue
		}
		if a.rows == 0 {
			a.minKey = k
		}
		a.maxKey = k
		a.rows++
		a.sumKey += k
		a.sumP += s.p[k]
		a.sumX += r2Info(jk)
	}
	return a
}

// check runs one query op against be and compares the result with the
// shadow's closed form.
func (s *shadow) check(be backend, o op) error {
	var want answer
	var view string
	var rg *queryRange
	switch o.class {
	case classRange:
		view, rg, want = viewV1, &queryRange{o.lo, o.hi}, s.expectRange(o.lo, o.hi)
	case classJoin:
		view, rg, want = viewV2, &queryRange{o.lo, o.hi}, s.expectJoin(o.lo, o.hi)
	case classScan:
		view, want = viewVQ, s.scan
	case classAgg:
		v, ok, err := be.aggregate(viewV3)
		if err != nil {
			return err
		}
		if !ok || v != s.aggSum {
			return fmt.Errorf("%s = %v (ok=%v), want %v", viewV3, v, ok, s.aggSum)
		}
		return nil
	default:
		return fmt.Errorf("op class %d is not a query", o.class)
	}
	rows, err := be.query(view, rg)
	if err != nil {
		return err
	}
	if got := digest(rows); got != want {
		return fmt.Errorf("%s%v = %+v, want %+v", view, rg, got, want)
	}
	return nil
}

// commit applies one update transaction through be and, once it is
// acknowledged, to the shadow.
func (s *shadow) commit(be backend, o op) error {
	rows := make([]txRow, txRows)
	for i, k := range o.keys {
		rows[i] = txRow{rel: relR, id: s.id[k], vals: []tuple.Value{tuple.I(k), tuple.I(colA(k, s.n)), tuple.I(s.p[k] + o.deltas[i])}}
	}
	ids, err := be.commit(rows)
	if err != nil {
		return err
	}
	if len(ids) != txRows {
		return fmt.Errorf("commit returned %d ids, want %d", len(ids), txRows)
	}
	for i, k := range o.keys {
		if ids[i] <= s.id[k] {
			return fmt.Errorf("commit reissued id %d for key %d (had %d)", ids[i], k, s.id[k])
		}
		s.id[k] = ids[i]
		s.p[k] += o.deltas[i]
	}
	return nil
}

// do executes one op of either kind.
func (s *shadow) do(be backend, o op) error {
	if o.class == classCommit {
		return s.commit(be, o)
	}
	return s.check(be, o)
}

// verifyAll checks every view's complete contents against the shadow
// and returns how many checks it made. It is the post-run and
// post-recovery oracle, called with no client in flight.
func (s *shadow) verifyAll(be backend, w *workload) (checks int, err error) {
	var ops []op
	if w.headline == classScan {
		ops = []op{{class: classScan}}
	} else {
		ops = []op{{class: classRange, lo: 0, hi: s.n / 2}}
		if w.r2 {
			ops = append(ops, op{class: classJoin, lo: 0, hi: s.n / 2}, op{class: classAgg})
		}
	}
	for _, o := range ops {
		checks++
		if err := s.check(be, o); err != nil {
			return checks, fmt.Errorf("verify %s: %w", classNames[o.class], err)
		}
	}
	return checks, nil
}
