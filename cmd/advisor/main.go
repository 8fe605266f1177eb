// Command advisor inverts the cost model: given a workload profile it
// reports, per view model, which materialization strategy is cheapest
// and how far away the nearest crossover lies. This operationalizes
// the paper's conclusion that "the choice of the most efficient view
// materialization algorithm is highly application-dependent."
//
//	advisor -p 0.5 -f 0.1 -fv 0.1 -l 25
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"viewmat"
	"viewmat/internal/report"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("advisor", flag.ContinueOnError)
	pP := fs.Float64("p", 0.5, "probability an operation is an update (P)")
	f := fs.Float64("f", 0.1, "view predicate selectivity (f)")
	fv := fs.Float64("fv", 0.1, "fraction of view retrieved per query (fv)")
	l := fs.Float64("l", 25, "tuples modified per transaction (l)")
	n := fs.Float64("n", 100000, "tuples in the base relation (N)")
	fr2 := fs.Float64("fr2", 0.1, "|R2|/|R1| for join views")
	c3 := fs.Float64("c3", 1, "A/D upkeep cost per tuple (C3, ms)")
	extended := fs.Bool("extended", false, "include snapshot and recompute-on-demand (Model 1 only)")
	snapEvery := fs.Float64("snapshot-every", 10, "snapshot refresh period in transactions (with -extended)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	p := viewmat.DefaultParams()
	p.F, p.FV, p.L, p.N, p.FR2, p.C3 = *f, *fv, *l, *n, *fr2, *c3
	p = p.WithP(*pP)
	if err := p.Validate(); err != nil {
		return err
	}

	fmt.Fprintf(w, "workload: P=%.2f f=%g fv=%g l=%g N=%g (u=%.1f updated tuples per query)\n\n",
		p.P(), p.F, p.FV, p.L, p.N, p.U())
	if *extended {
		fmt.Fprintln(w, "(extended: snapshot verdicts trade staleness of up to", *snapEvery, "transactions for cost)")
		fmt.Fprintln(w)
	}
	for _, m := range []struct {
		name string
		kind viewmat.ViewKind
	}{
		{"Model 1: select-project view", viewmat.SelectProject},
		{"Model 2: two-way join view", viewmat.Join},
		{"Model 3: aggregate view", viewmat.Aggregate},
	} {
		advise := func(q viewmat.Params) (viewmat.Recommendation, error) {
			if *extended && m.kind == viewmat.SelectProject {
				return viewmat.AdviseExtended(q, *snapEvery)
			}
			return viewmat.Advise(m.kind, q)
		}
		rec, err := advise(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", m.name)
		ranked := rec.Ranked()
		rows := [][]string{}
		for _, name := range ranked {
			marker := ""
			if name == rec.Best {
				marker = "  <- recommended"
			}
			rows = append(rows, []string{name, fmt.Sprintf("%.1f", rec.Costs[name]), marker})
		}
		fmt.Fprint(w, report.Table([]string{"strategy", "ms/query", ""}, rows))
		// The margin to the cheapest strictly dearer strategy.
		margin := 0.0
		for _, name := range ranked {
			if d := rec.Costs[name] - rec.Costs[rec.Best]; d > 0 {
				margin = d
				break
			}
		}
		if cross, ok := nearestCrossover(p, advise, rec.Best); ok {
			fmt.Fprintf(w, "nearest crossover: at P ≈ %.3f the recommendation changes (current P = %.2f, margin %.1f ms)\n",
				cross, p.P(), margin)
		} else {
			fmt.Fprintf(w, "recommendation stable across P for these parameters (margin %.1f ms)\n", margin)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// nearestCrossover scans P for the closest point where the
// recommendation changes.
func nearestCrossover(p viewmat.Params, advise func(viewmat.Params) (viewmat.Recommendation, error), best string) (float64, bool) {
	bestDist, found, ok := 2.0, 0.0, false
	for i := 1; i < 200; i++ {
		pv := float64(i) / 200
		rec, err := advise(p.WithP(pv))
		if err != nil || rec.Best == best {
			continue
		}
		if d := math.Abs(pv - p.P()); d < bestDist {
			bestDist, found, ok = d, pv, true
		}
	}
	return found, ok
}
