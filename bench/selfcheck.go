package main

import (
	"fmt"
	"math"
	"os"
)

// selfCheck asks whether the benchmark is steady enough to be believed:
// it runs every workload 2×runs times as two alternating sets
// (A B A B …) of the same code and fails if any end-to-end metric's
// medians differ between the sets by more than that metric's bound.
// It then runs the traced mode twice on one seed and requires every
// exact count to print identically.
func selfCheck(runs int, seed int64, seconds float64) error {
	if runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	var failures []string
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*runs; i++ {
			res, err := measure(w, seed+int64(i), seconds, false)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i, err)
			}
			if res.failed > 0 {
				return fmt.Errorf("%s run %d: %d ops failed, first: %v", w.name, i, res.failed, res.firstErr)
			}
			for _, d := range endToEnd {
				sets[i%2][d.name] = append(sets[i%2][d.name], res.metrics[d.name])
			}
		}
		fmt.Printf("%s (%d runs per set)\n", w.name, runs)
		fmt.Printf("  %-24s %-5s %12s %12s %12s %12s %8s %6s\n", "metric", "unit", "A median", "A q1..q3", "B median", "B q1..q3", "gap", "bound")
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			aq1, aq3 := quartiles(a)
			bq1, bq3 := quartiles(b)
			gap := math.Abs(median(b)-median(a)) / math.Min(median(a), median(b))
			verdict := ""
			if gap > d.bound {
				verdict = "  <-- exceeds bound"
				failures = append(failures, fmt.Sprintf("%s/%s gap %.1f%% > %.0f%%", w.name, d.name, 100*gap, 100*d.bound))
			}
			fmt.Printf("  %-24s %-5s %12.4f %5.3g..%-6.3g %12.4f %5.3g..%-6.3g %7.2f%% %5.0f%%%s\n",
				d.name, d.unit, median(a), aq1, aq3, median(b), bq1, bq3, 100*gap, 100*d.bound, verdict)
		}
	}

	for _, w := range workloads {
		var first map[string]float64
		for i := 0; i < 2; i++ {
			res, err := measure(w, seed, seconds, true)
			if err != nil {
				return fmt.Errorf("%s traced run %d: %w", w.name, i, err)
			}
			if res.failed > 0 {
				return fmt.Errorf("%s traced run %d: %d ops failed, first: %v", w.name, i, res.failed, res.firstErr)
			}
			if first == nil {
				first = res.metrics
				continue
			}
			same := 0
			for _, d := range perLayer {
				if !d.exact {
					continue
				}
				if a, b := fmt.Sprint(first[d.name]), fmt.Sprint(res.metrics[d.name]); a != b {
					failures = append(failures, fmt.Sprintf("%s/%s traced twice: %s vs %s", w.name, d.name, a, b))
				} else {
					same++
				}
			}
			fmt.Printf("%s traced twice: %d exact counts identical\n", w.name, same)
		}
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "selfcheck:", f)
		}
		return fmt.Errorf("selfcheck: %d metrics not steady", len(failures))
	}
	fmt.Println("selfcheck: passed")
	return nil
}
