// Package rules implements rule indexing for view-maintenance
// screening (Hanson §1, after the rule wake-up scheme of [Ston86]).
//
// For each materialized view, the index intervals covered by the view
// predicate's clauses on a relation's indexed column are locked with
// trigger-locks (t-locks). Screening an inserted or deleted tuple is a
// two-stage test:
//
//	stage 1 (free):  does the tuple disturb a t-locked index interval?
//	stage 2 (C1):    is the view predicate, with the tuple substituted,
//	                 still satisfiable?
//
// Stage 2 depends on the tuple only through its own values, so
// Register compiles it once per lock into a residual predicate over the
// written tuple alone (pred.P.Residual), and screening evaluates that.
//
// A tuple that passes both stages is marked for the view and must be
// used to refresh it; a tuple failing either stage provably cannot
// change the view. Stage 1 can produce false drops (the interval is a
// superset of the predicate), which is exactly why stage 2 exists.
package rules

import (
	"sort"

	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// Lock is one t-lock: it guards the index interval rg on column col of
// a named relation, on behalf of a view.
type Lock struct {
	View     string
	Relation string
	RelSlot  int // the view predicate's slot for this relation
	Col      int // indexed column guarded
	Rg       pred.Range
	// Residual is stage 2: the view predicate with a tuple of RelSlot
	// substituted, over that tuple bound at slot 0; nil when no tuple
	// can satisfy the view.
	Residual *pred.P
}

// Table holds every registered t-lock, bucketed by relation name.
type Table struct {
	locks map[string][]*Lock
}

// NewTable creates an empty t-lock table.
func NewTable() *Table {
	return &Table{locks: map[string][]*Lock{}}
}

// Register places a t-lock for view on (relation, col), deriving the
// guarded interval from the predicate's restriction of relSlot.col and
// compiling stage 2 into the lock's residual. An unconstrained column
// yields a whole-index lock (every tuple disturbs it).
func (t *Table) Register(view, relName string, relSlot, col int, p *pred.P) {
	rg, constrained := p.IntervalFor(relSlot, col)
	if !constrained {
		rg = *pred.FullRange()
	}
	t.locks[relName] = append(t.locks[relName], &Lock{
		View:     view,
		Relation: relName,
		RelSlot:  relSlot,
		Col:      col,
		Rg:       rg,
		Residual: p.Residual(relSlot),
	})
}

// Unregister removes every t-lock held by the view.
func (t *Table) Unregister(view string) {
	for rel, locks := range t.locks {
		kept := locks[:0]
		for _, l := range locks {
			if l.View != view {
				kept = append(kept, l)
			}
		}
		if len(kept) == 0 {
			delete(t.locks, rel)
		} else {
			t.locks[rel] = kept
		}
	}
}

// Views returns the sorted set of views holding locks anywhere.
func (t *Table) Views() []string {
	seen := map[string]bool{}
	for _, locks := range t.locks {
		for _, l := range locks {
			seen[l.View] = true
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Screen runs the two-stage test for a tuple inserted into or deleted
// from relName, returning the names of views the tuple may affect
// (its "markers", in the paper's terms). Stage 1 is free; each stage-2
// satisfiability test charges one C1 unit to m, the committing
// operation's meter.
func (t *Table) Screen(relName string, tp tuple.Tuple, m *storage.Meter) []string {
	var hits []string
	for _, l := range t.locks[relName] {
		// Stage 1: does the tuple disturb the locked interval?
		if !l.Rg.Contains(tp.Vals[l.Col]) {
			continue
		}
		// Stage 2: substitution + satisfiability, at C1.
		m.Screen(1)
		if l.Residual != nil && l.Residual.EvalJoined(tp, tuple.Tuple{}) {
			hits = append(hits, l.View)
		}
	}
	return hits
}
