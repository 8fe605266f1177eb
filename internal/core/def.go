// Package core implements the paper's subject matter: view definitions
// over the storage substrates, materialized views with duplicate
// counts, the differential (incremental) view-update algorithm in its
// corrected form (§2.1), and the three maintenance strategies compared
// by the performance analysis — query modification, immediate
// maintenance, and the proposed deferred maintenance — behind a single
// Database engine.
package core

import (
	"fmt"

	"viewmat/internal/agg"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
)

// Kind classifies a view definition by the paper's three models.
type Kind int

const (
	// SelectProject is Model 1: a selection and projection of one
	// relation.
	SelectProject Kind = iota
	// Join is Model 2: the natural join of two relations with a
	// restriction on the first.
	Join
	// Aggregate is Model 3: an aggregate over a Model-1-shaped view;
	// only the aggregate state is stored.
	Aggregate
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case SelectProject:
		return "select-project"
	case Join:
		return "join"
	case Aggregate:
		return "aggregate"
	case GroupedAggregate:
		return "grouped-aggregate"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Model is the number of the paper's cost model that prices the kind:
// 1 select-project, 2 join, 3 aggregate, and 0 for a kind the paper has
// no model for (which costmodel.CostsFor prices as Model 1).
func (k Kind) Model() int {
	switch k {
	case SelectProject:
		return 1
	case Join:
		return 2
	case Aggregate:
		return 3
	default:
		return 0
	}
}

// Strategy selects how a view is materialized and kept current.
type Strategy int

const (
	// QueryModification never materializes: queries are rewritten onto
	// the base relations [Ston75].
	QueryModification Strategy = iota
	// Immediate keeps a materialized copy updated after every
	// transaction [Blak86].
	Immediate
	// Deferred keeps a materialized copy updated just before data is
	// retrieved from it, from net changes captured in hypothetical
	// relations (the paper's proposal).
	Deferred
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case QueryModification:
		return "query-modification"
	case Immediate:
		return "immediate"
	case Deferred:
		return "deferred"
	case Snapshot:
		return "snapshot"
	case RecomputeOnDemand:
		return "recompute-on-demand"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Def is a view definition. Relation slots in Pred refer to positions
// in Relations (slot 0 = Relations[0], …).
type Def struct {
	Name string
	Kind Kind

	// Relations names the base relations; 1 entry for SelectProject
	// and Aggregate, 2 for Join.
	Relations []string

	// Pred is the view predicate X: restrictions for SelectProject and
	// Aggregate; restrictions plus exactly one JoinEq atom for Join.
	Pred *pred.P

	// Project lists, per relation slot, the column positions projected
	// into the view's target list (the paper's Y). Ignored for
	// Aggregate.
	Project [][]int

	// ViewKeyCol is the output-schema column the materialized view is
	// clustered on (the paper clusters V on the view-predicate field).
	// Ignored for Aggregate.
	ViewKeyCol int

	// AggKind and AggCol define Model-3 views: the aggregate function
	// and the (slot-0, pre-projection) column aggregated.
	AggKind agg.Kind
	AggCol  int

	// GroupBy is the slot-0 column grouped on for GroupedAggregate
	// views (the GROUP BY extension of Model 3).
	GroupBy int
}

// Code walks the definition's byte layout — the one a create-view
// request and a checkpoint header both carry: name, [8 kind], the
// relation names, the predicate's atoms (pred.CodeAtoms), one counted
// list of 8-byte columns per projected slot, then [8 key column]
// [1 aggregate kind] [8 aggregate column] [8 group-by column]. Decoding
// checks the layout only; Validate holds the result to the schemas.
func (d *Def) Code(c *tuple.Coder) {
	c.Str(&d.Name)
	c.Int((*int)(&d.Kind))
	tuple.List(c, &d.Relations, 4, (*tuple.Coder).Str)
	p := d.Pred
	if c.Decoding() || p == nil {
		p = &pred.P{}
	}
	if pred.CodeAtoms(c, &p.Atoms); c.Decoding() {
		d.Pred = p
	}
	tuple.List(c, &d.Project, 4, func(c *tuple.Coder, cols *[]int) { tuple.List(c, cols, 8, (*tuple.Coder).Int) })
	c.Int(&d.ViewKeyCol)
	c.U8((*uint8)(&d.AggKind))
	c.Int(&d.AggCol)
	c.Int(&d.GroupBy)
}

// Validate checks structural well-formedness against the given base
// schemas (one per relation slot).
func (d *Def) Validate(schemas []*tuple.Schema) error {
	if d.Name == "" {
		return fmt.Errorf("core: view needs a name")
	}
	if d.Kind < SelectProject || d.Kind > GroupedAggregate {
		return fmt.Errorf("core: view %q has unknown kind %d", d.Name, int(d.Kind))
	}
	wantRels := 1
	if d.Kind == Join {
		wantRels = 2
	}
	if len(d.Relations) != wantRels {
		return fmt.Errorf("core: %s view %q needs %d relation(s), got %d", d.Kind, d.Name, wantRels, len(d.Relations))
	}
	if len(schemas) != wantRels {
		return fmt.Errorf("core: view %q given %d schemas, want %d", d.Name, len(schemas), wantRels)
	}
	if d.Pred == nil {
		return fmt.Errorf("core: view %q has no predicate (use pred.True())", d.Name)
	}
	// hasCol: slot names a relation of the view and col one of its columns.
	hasCol := func(slot, col int) bool {
		return slot >= 0 && slot < wantRels && col >= 0 && col < len(schemas[slot].Cols)
	}
	joins := 0
	for _, a := range d.Pred.Atoms {
		switch at := a.(type) {
		case pred.Cmp:
			if !hasCol(at.Rel, at.Col) {
				return fmt.Errorf("core: view %q predicate references column %d of slot %d", d.Name, at.Col, at.Rel)
			}
			if at.Op > pred.Ge {
				return fmt.Errorf("core: view %q predicate has unknown operator %d", d.Name, uint8(at.Op))
			}
		case pred.JoinEq:
			joins++
			if !hasCol(at.LRel, at.LCol) || !hasCol(at.RRel, at.RCol) {
				return fmt.Errorf("core: view %q joins column %d of slot %d to column %d of slot %d, out of range",
					d.Name, at.LCol, at.LRel, at.RCol, at.RRel)
			}
		}
	}
	if d.Kind == Join && joins != 1 {
		return fmt.Errorf("core: join view %q needs exactly one join atom, got %d", d.Name, joins)
	}
	if d.Kind != Join && joins != 0 {
		return fmt.Errorf("core: %s view %q must not contain join atoms", d.Kind, d.Name)
	}
	if d.Kind == Aggregate || d.Kind == GroupedAggregate {
		if d.AggCol < 0 || d.AggCol >= len(schemas[0].Cols) {
			return fmt.Errorf("core: view %q aggregates column %d, out of range", d.Name, d.AggCol)
		}
		if d.AggKind > agg.StdDev {
			return fmt.Errorf("core: view %q has unknown aggregate kind %d", d.Name, uint8(d.AggKind))
		}
		if ct := schemas[0].Cols[d.AggCol].Type; d.AggKind != agg.Count && ct == tuple.String {
			return fmt.Errorf("core: view %q cannot %s a string column", d.Name, d.AggKind)
		}
		if d.Kind == GroupedAggregate {
			if d.GroupBy < 0 || d.GroupBy >= len(schemas[0].Cols) {
				return fmt.Errorf("core: view %q groups by column %d, out of range", d.Name, d.GroupBy)
			}
		}
		return nil
	}
	if len(d.Project) != wantRels {
		return fmt.Errorf("core: view %q needs %d projection lists, got %d", d.Name, wantRels, len(d.Project))
	}
	total := 0
	for slot, cols := range d.Project {
		for _, c := range cols {
			if c < 0 || c >= len(schemas[slot].Cols) {
				return fmt.Errorf("core: view %q projects column %d of slot %d, out of range", d.Name, c, slot)
			}
		}
		total += len(cols)
	}
	if total == 0 {
		return fmt.Errorf("core: view %q projects no columns", d.Name)
	}
	if d.ViewKeyCol < 0 || d.ViewKeyCol >= total {
		return fmt.Errorf("core: view %q clusters on output column %d, out of range", d.Name, d.ViewKeyCol)
	}
	return nil
}

// OutputSchema computes the view's result schema from the base schemas.
// Aggregate views have a fixed one-column schema.
func (d *Def) OutputSchema(schemas []*tuple.Schema) *tuple.Schema {
	if d.Kind == Aggregate {
		return tuple.NewSchema(tuple.Col("value", tuple.Float))
	}
	if d.Kind == GroupedAggregate {
		return tuple.NewSchema(
			tuple.Col("group", schemas[0].Cols[d.GroupBy].Type),
			tuple.Col("value", tuple.Float),
		)
	}
	cols := []tuple.Column{}
	for slot, idx := range d.Project {
		for _, c := range idx {
			col := schemas[slot].Cols[c]
			name := col.Name
			if slot > 0 {
				name = fmt.Sprintf("%s.%s", d.Relations[slot], col.Name)
			}
			cols = append(cols, tuple.Column{Name: name, Type: col.Type})
		}
	}
	return tuple.NewSchema(cols...)
}

// JoinAtom returns the join view's single join atom.
func (d *Def) JoinAtom() (pred.JoinEq, bool) {
	for _, a := range d.Pred.Atoms {
		if j, ok := a.(pred.JoinEq); ok {
			return j, true
		}
	}
	return pred.JoinEq{}, false
}

// ProjectSpec flattens the projection into output-ordered
// (slot, column) pairs — the executor's column-gather form, which
// projects batches by sharing column vectors instead of building a
// per-row slot binding.
func (d *Def) ProjectSpec() [][2]int {
	out := make([][2]int, 0, 8)
	for slot, idx := range d.Project {
		for _, c := range idx {
			out = append(out, [2]int{slot, c})
		}
	}
	return out
}

// ProjectTuples builds the view row values from the bound slot tuples
// (t1 is ignored for single-relation views).
func (d *Def) ProjectTuples(t0, t1 tuple.Tuple) []tuple.Value {
	slots := [2]tuple.Tuple{t0, t1}
	out := make([]tuple.Value, 0, 8)
	for slot, idx := range d.Project {
		tp := slots[slot]
		for _, c := range idx {
			out = append(out, tp.Vals[c])
		}
	}
	return out
}
