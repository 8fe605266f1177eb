package exec

import (
	"testing"

	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

func TestDeltaFingerprintString(t *testing.T) {
	fp := DeltaFingerprint{Kind: "delta", Rel1: "r"}
	if got, want := fp.String(), "delta r"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	jfp := DeltaFingerprint{Kind: "join", Rel1: "r1", Rel2: "r2", Col1: 1, Col2: 0}
	if got, want := jfp.String(), "join r1.1=r2.0"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if jfp == fp {
		t.Fatal("distinct fingerprints compared equal")
	}
	if jfp != (DeltaFingerprint{Kind: "join", Rel1: "r1", Rel2: "r2", Col1: 1, Col2: 0}) {
		t.Fatal("identical fingerprints must compare equal with ==")
	}
}

func TestSharedDeltaScanReplaysRowsUncharged(t *testing.T) {
	rows := []Row{
		{T0: tuple.Tuple{ID: 1, Vals: []tuple.Value{tuple.I(1)}}, Insert: true},
		{T0: tuple.Tuple{ID: 2, Vals: []tuple.Value{tuple.I(2)}}, Insert: false, Dup: 3},
	}
	fp := DeltaFingerprint{Kind: "delta", Rel1: "r"}
	s := NewSharedDeltaScan(Options{}, fp, rows)

	// Two consecutive consumers replay the same rows (Open resets).
	for pass := 0; pass < 2; pass++ {
		got, err := gathered(Drain(s))
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if len(got) != len(rows) {
			t.Fatalf("pass %d: drained %d rows, want %d", pass, len(got), len(rows))
		}
		for i := range rows {
			if got[i].T0.ID != rows[i].T0.ID || got[i].Insert != rows[i].Insert || got[i].Dup != rows[i].Dup {
				t.Fatalf("pass %d row %d: got %+v want %+v", pass, i, got[i], rows[i])
			}
		}
	}
	st := s.Stats()
	if st.Cost != (storage.Stats{}) {
		t.Fatalf("replay source must charge nothing, got %+v", st.Cost)
	}
	if st.RowsOut != int64(2*len(rows)) {
		t.Fatalf("emitted rows = %d, want %d", st.RowsOut, 2*len(rows))
	}
}

func TestSharedDeltaPlanNodes(t *testing.T) {
	fp := DeltaFingerprint{Kind: "join", Rel1: "r1", Rel2: "r2", Col1: 1}
	build := NewSharedDeltaBuild(fp, NewMemSource(Options{}, Label{"phase"}, nil))
	n := Capture(SharedDeltaNode(fp, 3, build))
	if len(n.Children) != 1 || n.Children[0].Name != "Seq(shared-delta(join r1.1=r2.0))" {
		t.Fatal("SharedDeltaNode must wrap the build subtree")
	}
	if want := "SharedDelta(join r1.1=r2.0 views=3)"; n.Name != want {
		t.Fatalf("node name = %q, want %q", n.Name, want)
	}
	ref := Capture(SharedDeltaRef(fp, "leader"))
	if len(ref.Children) != 0 {
		t.Fatal("SharedDeltaRef must be a leaf")
	}
	if want := "SharedDeltaRef(join r1.1=r2.0 charged-to=leader)"; ref.Name != want {
		t.Fatalf("ref name = %q, want %q", ref.Name, want)
	}
	if c := ref.TotalCost(); c != (storage.Stats{}) {
		t.Fatalf("SharedDeltaRef must be zero-cost, got %+v", c)
	}
	tree := NewMemSource(Options{}, Label{"apply"}, nil)
	sr := Capture(SharedRefresh("v1", SharedDeltaRef(fp, "leader"), tree))
	if want := "shared-refresh(v1)"; sr.Name != want || len(sr.Children) != 2 || sr.Children[1].Name != "apply" {
		t.Fatalf("shared refresh node = %q over %d children, want %q over the ref and the tree", sr.Name, len(sr.Children), want)
	}
}
