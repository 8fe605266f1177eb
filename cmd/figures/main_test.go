package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// TestRunDefaultGolden pins every analytic figure in the text rendering
// (the default flags). Regenerate with
// `go run ./cmd/figures > cmd/figures/testdata/all.golden` after an
// intended change to the cost model or the renderer.
func TestRunDefaultGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, nil); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("default output differs from testdata/all.golden:\n%s", out.String())
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-fig", "77"}); err == nil {
		t.Error("figure id 77 was accepted")
	}
	if out.Len() != 0 {
		t.Errorf("an unknown figure still printed:\n%s", out.String())
	}
	if err := run(io.Discard, []string{"-measured", "-fig", "2"}); err == nil {
		t.Error("-measured accepted a figure it cannot regenerate")
	}
}
