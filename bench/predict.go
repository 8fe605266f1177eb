package main

import "viewmat/internal/costmodel"

// tupleBytes is the paper's S for R(k,a,p): about 133 three-int tuples
// fit a 4000-byte page.
const tupleBytes = 30

// predictedMsPerOp is the analytic model's cost of one op of the
// workload, at the workload's true N, f, fv, k, q and l. The model
// prices a view query and the maintenance between two queries; a
// workload's op is a query, a transaction, or half of each.
func predictedMsPerOp(w *workload) float64 {
	p := costmodel.Default()
	p.N, p.S, p.B = float64(w.n), tupleBytes, pageSize
	p.L = txRows
	p.F = 0.5 // the views select k < N/2
	p.FR2 = float64(r2Rows(w.n)) / float64(w.n)
	p.C1, p.C2, p.C3 = c1, c2, c3
	p.K, p.Q = 1, 1 // one transaction per query: per-query maintenance = per-transaction

	viewRows := p.F * p.N
	// maintenance returns what one transaction costs a strategy's three
	// views beyond the base update: each total minus its query term.
	maintenance := func(tot1, tot2, tot3 func(costmodel.Params) float64) float64 {
		return tot1(p) - costmodel.CQuery1(p) + tot2(p) - costmodel.CQuery2(p) + tot3(p) - costmodel.CQuery3(p)
	}
	switch w.name {
	case "wide-mat":
		p.FV = float64(wideRows(w.n)) / viewRows
		return costmodel.CQuery1(p)
	case "scan-qm":
		return costmodel.TotalSequential(p)
	case "commit-imm":
		return maintenance(costmodel.TotalImmediate1, costmodel.TotalImmediate2, costmodel.TotalImmediate3)
	default: // mixed-def: half the ops are transactions, half queries rotating over the three views
		tx := maintenance(costmodel.TotalDeferred1, costmodel.TotalDeferred2, costmodel.TotalDeferred3)
		p.FV = float64(rangeRows(w.n)) / viewRows
		q1 := costmodel.CQuery1(p)
		p.FV = float64(joinSpan(w.n)) / viewRows
		q2 := costmodel.CQuery2(p)
		return (tx + (q1+q2+costmodel.CQuery3(p))/3) / 2
	}
}
