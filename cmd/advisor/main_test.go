package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// TestRunDefaultGolden pins the report at default flags. Regenerate
// with `go run ./cmd/advisor > cmd/advisor/testdata/default.golden`
// after an intended change to the cost tables or the layout.
func TestRunDefaultGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, nil); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/default.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("default report differs from testdata/default.golden:\n%s", out.String())
	}
}

func TestRunRejectsInvalidWorkload(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-n", "0"}); err == nil {
		t.Error("an empty base relation (-n 0) was accepted")
	}
	if out.Len() != 0 {
		t.Errorf("a rejected workload still printed a report:\n%s", out.String())
	}
	if err := run(io.Discard, []string{"-p", "x"}); err == nil {
		t.Error("a non-numeric -p was accepted")
	}
}
