package exec

import (
	"fmt"
	"strings"

	"viewmat/internal/storage"
)

// PlanNode is an immutable snapshot of one operator in an executed
// tree: its description, instrumentation, an optional analytic cost
// prediction, and its children. Captures outlive the operators, so the
// engine can retain the last-executed plan per view for Explain.
type PlanNode struct {
	Name      string
	Stats     OpStats
	Predicted float64 // analytic ms estimate; NaN/negative = no model term
	Children  []*PlanNode
}

// Capture snapshots an operator tree after execution: the one place an
// operator is described, so that a tree no one reads is never labelled.
func Capture(op Operator) *PlanNode {
	n := &PlanNode{Name: op.Describe(), Stats: op.Stats(), Predicted: -1}
	for _, c := range op.Children() {
		n.Children = append(n.Children, Capture(c))
	}
	return n
}

// Pruned sums the pages the tree's scans skipped by their zone maps
// (OpStats.Pruned) — what a capture of it would sum, without making one.
func Pruned(op Operator) int64 {
	total := op.Stats().Pruned
	for _, c := range op.Children() {
		total += Pruned(c)
	}
	return total
}

// TotalCost sums the metered charges over the whole tree — by the
// attribution invariant, equal to the storage.Meter delta spanning the
// tree's execution in its operation's meter scope.
func (n *PlanNode) TotalCost() storage.Stats {
	total := n.Stats.Cost
	for _, c := range n.Children {
		total = total.Add(c.TotalCost())
	}
	return total
}

// Render draws the plan tree with per-operator measured costs priced
// at the given unit costs (the paper's C1, C2, C3) and the analytic
// prediction where one was assigned.
func Render(n *PlanNode, c1, c2, c3 float64) string {
	var sb strings.Builder
	renderInto(&sb, n, "", true, true, c1, c2, c3)
	return sb.String()
}

func renderInto(sb *strings.Builder, n *PlanNode, prefix string, isRoot, isLast bool, c1, c2, c3 float64) {
	if !isRoot {
		connector := "├── "
		if isLast {
			connector = "└── "
		}
		sb.WriteString(prefix)
		sb.WriteString(connector)
	}
	sb.WriteString(n.Name)
	fmt.Fprintf(sb, " rows=%d batches=%d", n.Stats.RowsOut, n.Stats.Batches)
	if n.Stats.Pruned > 0 {
		fmt.Fprintf(sb, " pruned=%d", n.Stats.Pruned)
	}
	if c := n.Stats.Cost; c.Reads+c.Writes+c.Screens+c.ADTouches > 0 {
		fmt.Fprintf(sb, " io{r=%d w=%d s=%d ad=%d}", c.Reads, c.Writes, c.Screens, c.ADTouches)
	}
	fmt.Fprintf(sb, " meas=%.1fms", n.Stats.Cost.Cost(c1, c2, c3))
	if n.Predicted >= 0 {
		fmt.Fprintf(sb, " pred≈%.1fms", n.Predicted)
	}
	sb.WriteByte('\n')
	childPrefix := prefix
	if !isRoot {
		if isLast {
			childPrefix += "    "
		} else {
			childPrefix += "│   "
		}
	}
	for i, c := range n.Children {
		renderInto(sb, c, childPrefix, false, i == len(n.Children)-1, c1, c2, c3)
	}
}
