package core

import (
	"fmt"
	"testing"

	"viewmat/internal/colpage"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
)

// BenchmarkScanQM runs scan-qm's query in process: R(k, a, p) of
// N = 100 000 rows, a = k·40503 mod N, loaded in 2 000-row transactions
// (half-full leaves, ~1 850 of them) on 4 000-byte pages against a
// 256-frame pool, and a query-modification view σ(a < N/100) π(a, p)
// read whole — a full scan whose zone maps rule out 851 leaves and whose
// 1 000 others are read, each through the lanes the first scan of its
// image kept beside it (colpage's kept lanes): the atom is tested on the
// kept a lane and only the survivors are gathered, with no page byte
// decoded. kept-builds/op and kept-reuses/op count the leaves whose lanes
// a query built and reused: 0 and 1 000, the lanes having been built by
// the first query the benchmark ran; kept-selects/op the leaves whose rows
// it took from their selection slot, testing no cell: 1 000, the first
// query having published each read leaf's selection for a < N/100. It is the workload's CPU profile
// without a socket (the verify skill says how to take it). clients=1 issues the b.N queries from one goroutine;
// clients=2 splits them between two goroutines querying at once — the
// benchmark's two clients in process — so its ns/op is wall time per
// query, comparable with clients=1's.
func BenchmarkScanQM(b *testing.B) {
	const n, aMul = 100000, 40503
	db := NewDatabase(Options{PageSize: 4000, PoolFrames: 256})
	r := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("p", tuple.Int))
	if _, err := db.CreateRelationBTree("R", r, 0); err != nil {
		b.Fatal(err)
	}
	for lo := int64(0); lo < n; lo += 2000 {
		tx := db.Begin()
		for k := lo; k < min(lo+2000, n); k++ {
			if _, err := tx.Insert("R", tuple.I(k), tuple.I(k*aMul%n), tuple.I((k*7919+17)%1000)); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	vq := Def{
		Name: "vq", Kind: SelectProject, Relations: []string{"R"},
		Pred:    pred.New(pred.Cmp{Rel: 0, Col: 1, Op: pred.Lt, Val: tuple.I(n / 100)}),
		Project: [][]int{{1, 2}}, ViewKeyCol: 0,
	}
	if err := db.CreateView(vq, QueryModification); err != nil {
		b.Fatal(err)
	}
	for _, clients := range []int{1, 2} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			defer reportKeptLanes(b)()
			errs := make(chan error, clients)
			for c := 0; c < clients; c++ {
				go func() {
					for i := c; i < b.N; i += clients {
						rows, err := db.QueryView("vq", nil)
						if err == nil && len(rows) != n/100 {
							err = fmt.Errorf("query answered %d rows; want %d", len(rows), n/100)
						}
						if err != nil {
							errs <- err
							return
						}
					}
					errs <- nil
				}()
			}
			for c := 0; c < clients; c++ {
				if err := <-errs; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// reportKeptLanes reports, per op, the leaves whose lanes the ops' reads
// kept and the leaves they read through lanes kept before
// (colpage.KeptLanes), and the leaves whose rows a full scan took from
// their selection slot (colpage.KeptSelections): call it where the timed
// loop starts, and what it returns where the loop ends.
func reportKeptLanes(b *testing.B) func() {
	built, reused := colpage.KeptLanes()
	selected := colpage.KeptSelections()
	return func() {
		nb, nr := colpage.KeptLanes()
		b.ReportMetric(float64(nb-built)/float64(b.N), "kept-builds/op")
		b.ReportMetric(float64(nr-reused)/float64(b.N), "kept-reuses/op")
		b.ReportMetric(float64(colpage.KeptSelections()-selected)/float64(b.N), "kept-selects/op")
	}
}
