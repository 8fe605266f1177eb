// Command figures regenerates every figure and table from the paper's
// evaluation section (see DESIGN.md's per-experiment index):
//
//	figures -fig all            # every figure, text rendering
//	figures -fig 5              # one figure
//	figures -fig 2 -format csv  # machine-readable output
//
// Figure ids: params, 1–9, empdept.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"viewmat/internal/costmodel"
	"viewmat/internal/figures"
	"viewmat/internal/report"
	"viewmat/internal/sim"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure id (params, 1-9, empdept) or 'all'")
	format := fs.String("format", "text", "output format: text or csv")
	measured := fs.Bool("measured", false, "regenerate figures 1, 5 and 8 from measured engine runs (scaled N) instead of the analytic model")
	scaleN := fs.Float64("n", 3000, "relation size for -measured runs")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *measured {
		return printMeasured(w, *fig, *format, *scaleN)
	}

	var figs []*figures.Figure
	if *fig == "all" {
		figs = figures.All()
	} else {
		f, err := figures.ByID(*fig)
		if err != nil {
			return err
		}
		figs = []*figures.Figure{f}
	}
	for i, f := range figs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		switch *format {
		case "csv":
			fmt.Fprint(w, report.CSV(f))
		default:
			fmt.Fprint(w, report.Render(f))
		}
	}
	return nil
}

// printMeasured regenerates the P- and l-axis figures from engine runs
// at a reduced scale (measured scope cost next to the model's
// prediction at the same scaled parameters).
func printMeasured(w io.Writer, fig, format string, n float64) error {
	base := costmodel.Default()
	base.N = n
	base.K, base.Q, base.L = 20, 20, 10

	emit := func(f *figures.Figure) {
		if format == "csv" {
			fmt.Fprint(w, report.CSV(f))
		} else {
			fmt.Fprint(w, report.Render(f))
		}
	}
	wantAll := fig == "all"
	ran := false
	if wantAll || fig == "1" {
		points, err := sim.SweepP(sim.Model1, base, []float64{0.1, 0.3, 0.5, 0.7, 0.9}, 1)
		if err != nil {
			return err
		}
		emit(sim.MeasuredFigure("1m", "measured Figure 1 (Model 1 vs P, scaled)", "P", points))
		ran = true
	}
	if wantAll || fig == "5" {
		points, err := sim.SweepP(sim.Model2, base, []float64{0.1, 0.3, 0.5, 0.7, 0.9}, 1)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		emit(sim.MeasuredFigure("5m", "measured Figure 5 (Model 2 vs P, scaled)", "P", points))
		ran = true
	}
	if wantAll || fig == "8" {
		points, err := sim.SweepL(base, []float64{1, 5, 10, 25}, 1)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		emit(sim.MeasuredFigure("8m", "measured Figure 8 (Model 3 vs l, scaled)", "l", points))
		ran = true
	}
	if !ran {
		return fmt.Errorf("-measured supports figures 1, 5 and 8 (got %q)", fig)
	}
	return nil
}
