package exec

import (
	"bytes"
	"fmt"
	"testing"

	"viewmat/internal/relation"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// Columnar decode hands string cells out as slices of a per-chunk
// arena; the contract (vec.Col.AppendRaw, colpage.Decode) is that the
// arena is never mutated or reused after decode, so a batch the
// consumer retains stays valid while the scan refills later batches.
// This test pins that contract: the bytes lane of an emitted batch
// must not alias any buffer a subsequent NextBatch writes through —
// nor any pool frame: on an 8-frame pool the ~50-leaf scan recycles
// every slot several times over, and a recycled slot is poisoned in a
// test binary, so a cell slicing a frame would read 0xA5 by the end —
// nor any page image a scan read in place, which the in-place rows
// overwrite with 0xA5 once the scan is done.

// aliasEnv builds a relation of 300 rows over a pool of the given
// frames whose string column holds name(i) for row i. scribble
// overwrites every page image of the relation with 0xA5 through the
// pool's writer API.
func aliasEnv(t *testing.T, frames int, name func(i int) string) (rel *relation.Relation, o Options, scribble func()) {
	t.Helper()
	d := storage.NewDisk(512)
	m := storage.NewMeter()
	p := storage.NewArena(d, frames).NewPool(m)
	o = Options{Pool: p, Meter: m, BatchSize: 64}
	schema := tuple.NewSchema(tuple.Col("key", tuple.Int), tuple.Col("val", tuple.Int), tuple.Col("name", tuple.String))
	rel, err := relation.NewBTree(d, p, "a", schema, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		tp := tuple.New(uint64(i+1), tuple.I(int64(i)), tuple.I(int64(i%7)), tuple.S(name(i)))
		if err := insert(p, rel, tp); err != nil {
			t.Fatal(err)
		}
	}
	scribble = func() {
		for _, name := range d.FileNames() {
			f := d.Open(name)
			for pn := storage.PageNum(0); pn < f.Extent(); pn++ {
				fr, err := p.Get(f, pn)
				if err != nil {
					t.Fatal(err)
				}
				copy(fr.Data, bytes.Repeat([]byte{0xA5}, len(fr.Data)))
				fr.MarkDirty()
				if err := p.Release(fr); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return rel, o, scribble
}

// testBytesLaneStability drains root (small batches force several
// refills), snapshotting each batch's string cells at emission time and
// checking each against name(key), the string the row was written with,
// then re-checks every retained batch after the scan completes and after
// (unless nil) scribble.
func testBytesLaneStability(t *testing.T, root Operator, name func(i int) string, scribble func()) {
	t.Helper()
	if err := root.Open(); err != nil {
		t.Fatal(err)
	}
	var batches []*vec.Batch
	var snaps [][][]byte
	for {
		b, err := root.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		snap := make([][]byte, b.NumRows())
		for i := 0; i < b.NumRows(); i++ {
			snap[i] = append([]byte(nil), b.Slots[0][2].Bytes[i]...)
			if want := name(int(b.Slots[0][0].Ints[i])); string(snap[i]) != want {
				t.Fatalf("row of key %d: cell %q, written as %q", b.Slots[0][0].Ints[i], snap[i], want)
			}
		}
		batches = append(batches, b)
		snaps = append(snaps, snap)
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	if scribble != nil {
		scribble()
	}
	if len(batches) < 3 {
		t.Fatalf("fixture emitted %d batches; need several to cross refills", len(batches))
	}
	total := 0
	for bi, b := range batches {
		for i := 0; i < b.NumRows(); i++ {
			if got := b.Slots[0][2].Bytes[i]; !bytes.Equal(got, snaps[bi][i]) {
				t.Fatalf("batch %d row %d: cell mutated after later NextBatch: %q != %q",
					bi, i, got, snaps[bi][i])
			}
			if got := b.TupleAt(0, i).Vals[2].Str(); got != string(snaps[bi][i]) {
				t.Fatalf("batch %d row %d: gathered value %q != snapshot %q", bi, i, got, snaps[bi][i])
			}
			total++
		}
	}
	if total != 300 {
		t.Fatalf("scanned %d rows, want 300", total)
	}
}

func TestBatchBytesLaneStableAcrossRefills(t *testing.T) {
	// Distinct per row, so an overwrite through a shared buffer cannot go
	// unnoticed; a raw bytes lane on columnar leaves.
	distinct := func(i int) string { return fmt.Sprintf("cell-%04d", i) }
	t.Run("col", func(t *testing.T) {
		rel, o, _ := aliasEnv(t, 1024, distinct)
		t.Run("seqscan", func(t *testing.T) { testBytesLaneStability(t, NewSeqScan(o, rel), distinct, nil) })
		t.Run("scan", func(t *testing.T) { testBytesLaneStability(t, NewScan(o, rel, nil), distinct, nil) })
		// Frames recycled under the scan, under both string lanes a
		// columnar leaf has: raw, and a dictionary of three entries.
		for lane, name := range map[string]func(int) string{
			"raw":  distinct,
			"dict": func(i int) string { return []string{"red", "green", "blue"}[i%3] },
		} {
			t.Run("recycled-frames/"+lane, func(t *testing.T) {
				rel, o, _ := aliasEnv(t, 8, name)
				testBytesLaneStability(t, NewSeqScan(o, rel), name, nil)
				testBytesLaneStability(t, NewScan(o, rel, nil), name, nil)
			})
			// The scans read every leaf the 8-frame pool no longer holds
			// in place from its image; the images (and frames) are then
			// overwritten under the retained batches.
			for scan, open := range map[string]func(*relation.Relation, Options) Operator{
				"seqscan": func(rel *relation.Relation, o Options) Operator { return NewSeqScan(o, rel) },
				"scan":    func(rel *relation.Relation, o Options) Operator { return NewScan(o, rel, nil) },
			} {
				t.Run("in-place/"+lane+"/"+scan, func(t *testing.T) {
					rel, o, scribble := aliasEnv(t, 8, name)
					testBytesLaneStability(t, open(rel, o), name, scribble)
				})
			}
		}
	})
}
