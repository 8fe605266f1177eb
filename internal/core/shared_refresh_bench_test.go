package core

import (
	"fmt"
	"testing"
	"time"

	"viewmat/internal/pred"
	"viewmat/internal/tuple"
)

// benchSharedRefresh measures RefreshAll over a fan-out of deferred
// join views that all share one base pair, with shared-delta refresh
// either left to the cost-model gate (the engine as shipped) or pinned
// private through the test-only share gate. The staling
// commit carries both an R1-side delta (probe work per row) and an
// R2-side delta: the latter is the expensive term, because expanding
// it scans all of R1 — once per view when unshared, once per group
// when shared. R1 is sized past the buffer pool so each unshared
// expansion re-faults it from disk rather than riding the previous
// view's pool residue, and the R1-side delta is kept to a handful of
// rows so per-view apply (identical in both modes) stays small.
// Staleness is rebuilt off-timer each iteration; the metered
// expansion count is reported as delta-scans/op.
func benchSharedRefresh(b *testing.B, fanout int, gate func() bool) {
	s1 := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("fk", tuple.Int), tuple.Col("p", tuple.String))
	s2 := tuple.NewSchema(tuple.Col("jv", tuple.Int), tuple.Col("info", tuple.String))
	const (
		nR1       = 800 // base rows scanned by every R2-side expansion
		mR2       = 64
		deltaRows = 8 // R1-side churn: per-view apply stays this small
	)
	build := func() *Database {
		db := NewDatabase(Options{
			PageSize:           512,
			PoolFrames:         56, // < R1's page count: expansions miss
			SimulatedIOLatency: 200 * time.Microsecond,
		})
		setShareGate(db, gate)
		if _, err := db.CreateRelationBTree("r1", s1, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := db.CreateRelationHash("r2", s2, 0, 4); err != nil {
			b.Fatal(err)
		}
		tx := db.Begin()
		for j := 0; j < mR2; j++ {
			if _, err := tx.Insert("r2", tuple.I(int64(j)), tuple.S("info")); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < nR1; i++ {
			if _, err := tx.Insert("r1", tuple.I(int64(i)), tuple.I(int64(i%mR2)), tuple.S("partpartpart")); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		for v := 0; v < fanout; v++ {
			def := Def{
				Name:      fmt.Sprintf("jv%03d", v),
				Kind:      Join,
				Relations: []string{"r1", "r2"},
				Pred: pred.New(
					pred.JoinEq{LRel: 0, LCol: 1, RRel: 1, RCol: 0},
					// Broad per-view restriction: every view sees the
					// whole key space, so apply cost is uniform and the
					// unshared pre-filter cannot shrink the expansion.
					pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(int64(1<<30 + v))},
				),
				Project:    [][]int{{0, 2}, {1}},
				ViewKeyCol: 0,
			}
			if err := db.CreateView(def, Deferred); err != nil {
				b.Fatal(err)
			}
		}
		// The staling commit. R2-side inserts use join values no R1
		// row carries, so the R1'xA2 expansion scans R1 and applies
		// nothing; R1-side inserts each probe R2 and apply one row.
		tx = db.Begin()
		for i := 0; i < deltaRows; i++ {
			if _, err := tx.Insert("r1", tuple.I(int64(200000+i)), tuple.I(int64(i%mR2)), tuple.S("new")); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			if _, err := tx.Insert("r2", tuple.I(int64(100000+i)), tuple.S("orphan")); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		return db
	}
	b.StopTimer()
	var deltaScans int64
	for i := 0; i < b.N; i++ {
		db := build()
		before := db.DeltaScanCount()
		b.StartTimer()
		if err := db.RefreshAll(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		deltaScans += db.DeltaScanCount() - before
	}
	b.ReportMetric(float64(deltaScans)/float64(b.N), "delta-scans/op")
}

func BenchmarkRefreshAllSharedDeltaFan1Shared(b *testing.B) {
	benchSharedRefresh(b, 1, gateModel)
}
func BenchmarkRefreshAllSharedDeltaFan1Unshared(b *testing.B) {
	benchSharedRefresh(b, 1, gatePrivate)
}
func BenchmarkRefreshAllSharedDeltaFan8Shared(b *testing.B) {
	benchSharedRefresh(b, 8, gateModel)
}
func BenchmarkRefreshAllSharedDeltaFan8Unshared(b *testing.B) {
	benchSharedRefresh(b, 8, gatePrivate)
}
func BenchmarkRefreshAllSharedDeltaFan64Shared(b *testing.B) {
	benchSharedRefresh(b, 64, gateModel)
}
func BenchmarkRefreshAllSharedDeltaFan64Unshared(b *testing.B) {
	benchSharedRefresh(b, 64, gatePrivate)
}
func BenchmarkRefreshAllSharedDeltaFan256Shared(b *testing.B) {
	benchSharedRefresh(b, 256, gateModel)
}
func BenchmarkRefreshAllSharedDeltaFan256Unshared(b *testing.B) {
	benchSharedRefresh(b, 256, gatePrivate)
}
