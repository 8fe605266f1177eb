package exec

import "fmt"

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
	return NewMemSource(o, fmt.Sprintf("SharedDeltaScan(%s rows=%d)", fp, len(rows)), rows)
}

// SharedDeltaNode wraps the executed build subtree for the one view
// that carries the group's shared-scan charges (the first consumer, by
// name). TotalCost over the wrapper equals the build's metered cost.
func SharedDeltaNode(fp DeltaFingerprint, views int, build *PlanNode) *PlanNode {
	return Node(fmt.Sprintf("SharedDelta(%s views=%d)", fp, views), build)
}

// SharedDeltaRef is the zero-cost plan node every other consumer
// renders in place of the build subtree, naming the view the build was
// charged to — the "attributed once, split visibly" half of the meter
// contract.
func SharedDeltaRef(fp DeltaFingerprint, chargedTo string) *PlanNode {
	return Node(fmt.Sprintf("SharedDeltaRef(%s charged-to=%s)", fp, chargedTo))
}
