package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite cmd/vmsim/testdata/*.golden from the current output")

// goldenModes is one row per vmsim mode that prints counts only (no
// wall-clock): the flag combinations every engine refactor used to
// re-run by hand at both commits and cmp. -wal/-recover write real
// files and have their own test (wal_test.go).
// Every mode but -phase-shift, which runs at fixed parameters, runs on
// the small workload.
var goldenModes = []struct{ name, args string }{
	{"model1-plans-v", "-model 1 -plans -v" + small},
	{"model2-plans-v", "-model 2 -plans -v" + small},
	{"model3-plans-v", "-model 3 -plans -v" + small},
	{"model1-all-strategies", "-model 1 -all-strategies" + small},
	{"model2-all-strategies", "-model 2 -all-strategies" + small},
	{"model3-all-strategies", "-model 3 -all-strategies" + small},
	{"model3-max", "-model 3 -agg max -plans -v" + small},
	{"model3-min", "-model 3 -agg min -plans -v" + small},
	{"hierarchy", "-hierarchy" + small},
	{"hierarchy-skew", "-hierarchy -skew 1.2 -seed 3" + small},
	{"qm-plan-sequential", "-model 1 -qm-plan sequential -plans" + small},
	{"sweep", "-model 1 -sweep 0.1,0.5,0.9" + small},
	{"phase-shift", "-phase-shift"},
}

const small = " -n 600 -k 4 -q 4 -l 3"

// TestGolden holds every mode's stdout to the bytes under testdata/.
// A change that is meant to move a count regenerates them with
// `go test ./cmd/vmsim -run Golden -update` and reviews the diff.
func TestGolden(t *testing.T) {
	for _, m := range goldenModes {
		t.Run(m.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, strings.Fields(m.args)); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", m.name+".golden")
			if *updateGoldens {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("vmsim %s differs from %s:\n%s", m.args, path, out.String())
			}
		})
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-qm-plan", "hashed"},
		{"-qm-plan", "sequential", "-sweep", "0.5"},
		// Model 1's relation has no secondary index, and no other model
		// reads the plan.
		{"-model", "1", "-qm-plan", "unclustered"},
		{"-model", "2", "-qm-plan", "unclustered", "-plans", "-n", "600", "-k", "4", "-q", "4", "-l", "3"},
		{"-model", "3", "-qm-plan", "clustered"},
		{"-phase-shift", "-sweep", "0.5"},
		{"-phase-shift", "-model", "2"},
		{"-agg", "median"},
		{"-n", "0"},
	} {
		var out bytes.Buffer
		if err := run(&out, args); err == nil {
			t.Errorf("vmsim %v was accepted", args)
		}
		if out.Len() != 0 {
			t.Errorf("vmsim %v was rejected but still printed:\n%s", args, out.String())
		}
	}
}
