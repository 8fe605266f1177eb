package exec

import (
	"fmt"

	"viewmat/internal/vec"
)

// Shared-delta plan nodes: when several views in one refresh unit have
// differential plans whose delta sub-expression is identical (same base
// relation, same join shape), the planner materializes that sub-plan
// once and feeds every consumer from the transient result — the
// multi-query-optimized maintenance of [MRSR01], with the delta plan
// treated as a first-class reusable node per DBToaster. The pieces
// here are the exec-layer half: the fingerprint that identifies a
// shareable delta sub-plan, the source operator that replays the
// materialized rows to each consumer, and the plan-node constructors
// Explain uses to render sharing without breaking the attribution
// invariant (charges land once, on the tree that executed the build;
// every other consumer renders a zero-cost reference).

// DeltaFingerprint identifies the shareable delta sub-plan of one
// view's differential refresh. Two views whose fingerprints are equal
// (and comparable with ==) expand exactly the same delta stream and
// can consume one shared materialization of it.
type DeltaFingerprint struct {
	// Kind is "delta" for a single-relation net-change stream
	// (select-project and aggregate views), "join" for the corrected
	// two-relation delta expansion, or "viewdelta" for a parent view's
	// materialized delta log consumed by child views.
	Kind string
	// Rel1 is the updated relation; Rel2 the probed inner relation
	// (join only).
	Rel1, Rel2 string
	// Col1, Col2 are the join columns per slot (join only).
	Col1, Col2 int
}

// String renders the fingerprint for plan display.
func (fp DeltaFingerprint) String() string {
	if fp.Kind == "join" {
		return fmt.Sprintf("join %s.%d=%s.%d", fp.Rel1, fp.Col1, fp.Rel2, fp.Col2)
	}
	if fp.Kind == "viewdelta" {
		return fmt.Sprintf("viewdelta %s", fp.Rel1)
	}
	return fmt.Sprintf("delta %s", fp.Rel1)
}

// NewSharedDeltaScan replays an already-materialized shared delta to one
// consumer's apply pipeline. The rows were produced (and their charges
// attributed) by the build tree that ran once for the whole group, so
// this source charges nothing — the consumer's own screening and apply
// costs accrue downstream.
func NewSharedDeltaScan(o Options, fp DeltaFingerprint, rows []Row) *MemSource {
	s := NewMemSource(o, Label{}, rows)
	s.kind, s.fp, s.n = sharedDeltaScan, fp, [2]int{len(rows)}
	return s
}

// NewSharedDeltaBuild is the build a group materializes once: the
// phases of its delta expansion, run in order (a Seq).
func NewSharedDeltaBuild(fp DeltaFingerprint, phases ...Operator) *Seq {
	s := NewSeq(Label{}, phases...)
	s.fp = fp
	return s
}

// SharedDeltaNode wraps the executed build subtree for the one view
// that carries the group's shared-scan charges (the first consumer, by
// name). TotalCost over the wrapper equals the build's metered cost.
func SharedDeltaNode(fp DeltaFingerprint, views int, build Operator) Operator {
	return &group{kind: sharedDelta, fp: fp, views: views, in: [2]Operator{build}, n: 1}
}

// SharedDeltaRef is the zero-cost plan node every other consumer
// renders in place of the build subtree, naming the view the build was
// charged to — the "attributed once, split visibly" half of the meter
// contract.
func SharedDeltaRef(fp DeltaFingerprint, chargedTo string) Operator {
	return &group{kind: sharedDeltaRef, fp: fp, name: chargedTo}
}

// SharedRefresh is one consumer's refresh plan in a shared group: its
// share of the build (SharedDeltaNode or SharedDeltaRef) beside the
// apply tree it ran.
func SharedRefresh(view string, shared, tree Operator) Operator {
	return &group{kind: sharedRefresh, name: view, in: [2]Operator{shared, tree}, n: 2}
}

// groupKind names what a group node shows.
type groupKind uint8

const (
	sharedDelta groupKind = iota
	sharedDeltaRef
	sharedRefresh
)

// group is a plan node over trees that have already run: it groups them
// for display and runs nothing, so it streams no row and charges nothing.
// It keeps what its name is made of, and makes the name only when a plan
// is read.
type group struct {
	kind  groupKind
	fp    DeltaFingerprint
	name  string // the view charged (SharedDeltaRef) or refreshed (SharedRefresh)
	views int
	in    [2]Operator
	n     int
}

func (g *group) Open() error                    { return nil }
func (g *group) NextBatch() (*vec.Batch, error) { return nil, nil }
func (g *group) Close() error                   { return nil }
func (g *group) Children() []Operator           { return g.in[:g.n] }
func (g *group) Stats() OpStats                 { return OpStats{} }
func (g *group) Describe() string {
	switch g.kind {
	case sharedDelta:
		return fmt.Sprintf("SharedDelta(%s views=%d)", g.fp, g.views)
	case sharedDeltaRef:
		return fmt.Sprintf("SharedDeltaRef(%s charged-to=%s)", g.fp, g.name)
	}
	return "shared-refresh(" + g.name + ")"
}
