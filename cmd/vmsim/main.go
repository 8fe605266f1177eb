// Command vmsim replays a paper-style workload against the executable
// engine and reports measured cost per query next to the analytic
// model's prediction, for all three maintenance strategies:
//
//	vmsim -model 1 -n 5000 -k 20 -q 20 -l 10
//	vmsim -model 2 -f 0.2 -fv 0.05
//	vmsim -model 3 -agg sum -l 5
//
// "measured" is the whole-system average (including base-relation
// update I/O); "scope" excludes the commit-write and fold phases and is
// the number directly comparable to the model column.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"viewmat/internal/agg"
	"viewmat/internal/core"
	"viewmat/internal/costmodel"
	"viewmat/internal/report"
	"viewmat/internal/sim"
	"viewmat/internal/storage"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("vmsim", flag.ContinueOnError)
	model := fs.Int("model", 1, "view model: 1 (select-project), 2 (join), 3 (aggregate)")
	n := fs.Float64("n", 5000, "tuples in the base relation (N)")
	k := fs.Float64("k", 20, "update transactions (k)")
	q := fs.Float64("q", 20, "view queries (q)")
	l := fs.Float64("l", 10, "tuples modified per transaction (l)")
	f := fs.Float64("f", 0.1, "view predicate selectivity (f)")
	fv := fs.Float64("fv", 0.1, "fraction of view retrieved per query (fv)")
	fr2 := fs.Float64("fr2", 0.1, "|R2|/|R1| (fR2)")
	seed := fs.Int64("seed", 1, "workload seed")
	skew := fs.Float64("skew", 0, "update-key Zipf skew (0 = uniform)")
	aggName := fs.String("agg", "sum", "model-3 aggregate: count, sum, avg, min, max")
	sweep := fs.String("sweep", "", "comma-separated P values: measure all strategies at each (engine-side Figure 1/5)")
	verbose := fs.Bool("v", false, "print the per-phase cost breakdown for each strategy")
	plans := fs.Bool("plans", false, "print each strategy's last executed operator trees (query/refresh/populate)")
	allStrategies := fs.Bool("all-strategies", false, "also measure snapshot and recompute-on-demand")
	snapEvery := fs.Int("snapshot-every", 5, "snapshot refresh period in commits (with -all-strategies)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
	walDir := fs.String("wal", "", "run a durable demo workload with WAL+snapshots under this directory")
	recoverDir := fs.String("recover", "", "recover a database from the WAL+snapshots under this directory and report what survived")
	ckptEvery := fs.Int("checkpoint-every", 8, "commits between automatic checkpoints (with -wal/-recover)")
	qmPlan := fs.String("qm-plan", "auto", "model-1 query-modification access path: auto, clustered, or sequential (sequential scans prune via zone maps)")
	hierarchy := fs.Bool("hierarchy", false, "run the views-over-views demo: a deferred chain with shared sibling drains under a skewed update burst (honors -skew and -seed)")
	phaseShift := fs.Bool("phase-shift", false, "run static query modification, static immediate and the adaptive advisor over a query-heavy then update-heavy stream, on models 1-3 at fixed parameters (honors -seed)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *phaseShift {
		var others []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "phase-shift" && f.Name != "seed" {
				others = append(others, "-"+f.Name)
			}
		})
		if len(others) > 0 {
			return fmt.Errorf("vmsim: -phase-shift runs at fixed parameters and takes only -seed, not %s", strings.Join(others, " "))
		}
		return runPhaseShift(w, *seed)
	}
	if *hierarchy {
		return runHierarchy(w, *skew, *seed)
	}

	// Only Model 1's select-project view reads the plan, and its relation
	// has no secondary index, so there is no unclustered path to choose.
	plan, ok := map[string]core.QueryPlan{"auto": core.PlanAuto, "clustered": core.PlanClustered, "sequential": core.PlanSequential}[*qmPlan]
	switch {
	case !ok:
		return fmt.Errorf("vmsim: -qm-plan must be auto, clustered, or sequential, got %q", *qmPlan)
	case plan != core.PlanAuto && *model != 1:
		return fmt.Errorf("vmsim: -qm-plan applies to -model 1 only")
	case plan != core.PlanAuto && (*sweep != "" || *allStrategies):
		return fmt.Errorf("vmsim: -qm-plan is not supported with -sweep or -all-strategies")
	}

	if *recoverDir != "" {
		return runRecover(w, *recoverDir, *ckptEvery)
	}
	if *walDir != "" {
		return runWAL(w, *walDir, *ckptEvery, 200, 40, 5, *seed)
	}

	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	p := costmodel.Default()
	p.N, p.K, p.Q, p.L, p.F, p.FV, p.FR2 = *n, *k, *q, *l, *f, *fv, *fr2
	if err := p.Validate(); err != nil {
		return err
	}
	kind, err := parseAgg(*aggName)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "model %d, N=%g k=%g q=%g l=%g f=%g fv=%g (P=%.2f, u=%g), seed %d\n\n",
		*model, p.N, p.K, p.Q, p.L, p.F, p.FV, p.P(), p.U(), *seed)

	if *sweep != "" {
		ps, err := parseFloats(*sweep)
		if err != nil {
			return err
		}
		points, err := sim.SweepP(sim.Model(*model), p, ps, *seed)
		if err != nil {
			return err
		}
		fig := sim.MeasuredFigure("sweep", fmt.Sprintf("measured model-%d sweep", *model), "P", points)
		fmt.Fprint(w, report.Render(fig))
		return nil
	}

	rows := [][]string{}
	var cmps []sim.Comparison
	if *allStrategies {
		cmps, err = sim.CompareAll(sim.Model(*model), p, *seed, *snapEvery)
	} else {
		cmps, err = sim.CompareStrategies(sim.Config{Model: sim.Model(*model), Plan: plan, Params: p, Seed: *seed, AggKind: kind, Skew: *skew}, sim.PaperStrategies)
	}
	if err != nil {
		return err
	}
	for _, c := range cmps {
		rows = append(rows, []string{
			c.Strategy,
			fmt.Sprintf("%.1f", c.Measured),
			fmt.Sprintf("%.1f", c.ModelScope),
			fmt.Sprintf("%.1f", c.Model),
		})
	}
	fmt.Fprint(w, report.Table([]string{"strategy", "measured ms/query", "scope ms/query", "model ms/query"}, rows))
	fmt.Fprintln(w, "\nscope = measured minus base-update phases (commit-write, fold); compare to model.")
	pruned := make([]string, 0, len(cmps))
	for _, c := range cmps {
		pruned = append(pruned, fmt.Sprintf("%s %.1f/query", c.Strategy, c.PrunedPerQuery))
	}
	fmt.Fprintf(w, "pages pruned (zone maps): %s\n", strings.Join(pruned, ", "))

	if *verbose || *plans {
		for _, st := range sim.PaperStrategies {
			res, err := sim.Run(sim.Config{Model: sim.Model(*model), Strategy: st, Plan: plan, Params: p, Seed: *seed, AggKind: kind})
			if err != nil {
				return err
			}
			if *verbose {
				phases := map[string]storage.Stats{}
				for ph, s := range res.Breakdown {
					phases[string(ph)] = s
				}
				fmt.Fprintf(w, "\n%s breakdown:\n", st)
				fmt.Fprint(w, report.Breakdown(phases, p.C1, p.C2, p.C3))
			}
			if *plans {
				fmt.Fprintf(w, "\n%s operator trees:\n", st)
				paths := make([]string, 0, len(res.PlanTrees))
				for path := range res.PlanTrees {
					paths = append(paths, path)
				}
				sort.Strings(paths)
				for _, path := range paths {
					fmt.Fprintf(w, "[%s]\n%s", path, res.PlanTrees[path])
				}
			}
		}
	}
	return nil
}

// runPhaseShift prints sim.PhaseShift on Models 1-3: each arm's
// model-ms per operation by phase, whole and after settling, over the
// whole run, and the adaptive arm's flips.
func runPhaseShift(w io.Writer, seed int64) error {
	phases := make([]string, len(sim.ShiftPhases))
	for i, ph := range sim.ShiftPhases {
		phases[i] = fmt.Sprintf("%g:%g:%g", ph.K, ph.Q, ph.L)
	}
	fmt.Fprintf(w, "phase shift, k:q:l %s, N=%g f=%g fv=%g zipf %g; adaptive ticks every %d ops; settled = each phase's second half; seed %d\n",
		strings.Join(phases, " then "), float64(sim.ShiftN), sim.ShiftF, sim.ShiftFV, sim.ShiftSkew, sim.ShiftTick, seed)
	for _, model := range []sim.Model{sim.Model1, sim.Model2, sim.Model3} {
		arms, err := sim.PhaseShift(model, seed)
		if err != nil {
			return err
		}
		header := []string{"arm (model-ms/op)"}
		for i := range sim.ShiftPhases {
			header = append(header, fmt.Sprintf("phase %d", i), "settled")
		}
		header = append(header, "run")
		rows := [][]string{}
		var flips []string
		for _, arm := range arms {
			row := []string{arm.Name}
			for i, ph := range arm.Phases {
				row = append(row, fmt.Sprintf("%.1f", ph.Whole), fmt.Sprintf("%.1f", ph.Settled))
				for _, f := range ph.Flips {
					flips = append(flips, fmt.Sprintf("  phase %d, after %d ops: %s -> %s, %s\n", i, f.Op, f.From, f.To, f.Reason))
				}
			}
			rows = append(rows, append(row, fmt.Sprintf("%.1f", arm.Run)))
		}
		fmt.Fprintf(w, "\nmodel %d\n%sadaptive flips:\n%s", model, report.Table(header, rows), strings.Join(flips, ""))
	}
	return nil
}

func parseFloats(csv string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(csv, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad sweep value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseAgg(name string) (agg.Kind, error) {
	switch name {
	case "count":
		return agg.Count, nil
	case "sum":
		return agg.Sum, nil
	case "avg":
		return agg.Avg, nil
	case "min":
		return agg.Min, nil
	case "max":
		return agg.Max, nil
	default:
		return 0, fmt.Errorf("unknown aggregate %q", name)
	}
}
