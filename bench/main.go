// Command bench is the repository's one system benchmark: it builds and
// spawns the real cmd/viewmatd, drives it over loopback through
// internal/client, checks every answer against a closed-form oracle and
// reports speed-probe-normalised timings beside exact counts. See
// README.md in this directory.
//
//	go run -C bench . -workload wide-mat -seed 1            # end-to-end metrics
//	go run -C bench . -workload wide-mat -seed 1 -trace 1   # per-layer metrics + span file
//	go run -C bench . -selfcheck -runs 3                    # is the benchmark steady?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	workloadName := flag.String("workload", "", "workload to run: wide-mat, scan-qm, commit-imm or mixed-def")
	seed := flag.Int64("seed", 1, "seed of the op stream")
	seconds := flag.Float64("seconds", 12, "nominal length of the measured op stream; the op count it fixes does not depend on the clock")
	trace := flag.Int("trace", 0, "1 = also run the traced in-process passes and print the per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "run every workload 2×runs times as two alternating sets and compare them")
	runs := flag.Int("runs", 3, "runs per set under -selfcheck")
	flag.Parse()

	// The harness is the instrument, not the subject: its collector
	// runs a quarter as often as the default, so that the client side
	// of a two-vCPU closed loop steals less from the server it measures.
	debug.SetGCPercent(400)
	cleanupOnSignal()
	var err error
	switch {
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case *selfcheck:
		err = selfCheck(*runs, *seed, *seconds)
	default:
		err = runOne(*workloadName, *seed, *seconds, *trace != 0)
	}
	runCleanups()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// result is one run's outcome: every metric it computed, by name.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	firstErr  error
}

// measure builds the server and runs one workload once. With trace it
// also runs the in-process passes, and the measured time is shared
// between them.
func measure(w *workload, seed int64, seconds float64, trace bool) (*result, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	bin, buildTime, err := buildServer(root)
	if err != nil {
		return nil, err
	}
	if !trace {
		return runMain(root, bin, buildTime, w, seed, seconds, w.sessions)
	}
	res, err := runMain(root, bin, buildTime, w, seed, seconds*mainShare, 1)
	if err != nil {
		return nil, err
	}
	if err := runTraced(root, w, seed, seconds, res); err != nil {
		return nil, err
	}
	return res, nil
}

func runOne(name string, seed int64, seconds float64, trace bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	printHeader(w, seed, seconds)
	res, err := measure(w, seed, seconds, trace)
	if err != nil {
		return err
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricJSON{}}
	// Everything that was measured goes to stderr for the reader; the
	// result line carries exactly the set the mode promises.
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if v, ok := res.metrics[d.name]; ok {
			fmt.Fprintf(os.Stderr, "%-42s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.failed > 0 {
		return fmt.Errorf("%d of %d ops failed, first: %v", res.failed, res.attempted, res.firstErr)
	}
	return nil
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printHeader says what ran and on what, so a result can be read
// without its command line.
func printHeader(w *workload, seed int64, seconds float64) {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	fmt.Fprintf(os.Stderr, "bench: workload=%s seed=%d seconds=%g clients=%d nproc=%d GOMAXPROCS=%d %s kernel=%s\n",
		w.name, seed, seconds, clients, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), strings.TrimSpace(string(kernel)))
}
