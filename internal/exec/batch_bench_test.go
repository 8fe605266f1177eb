package exec

import (
	"fmt"
	"testing"

	"viewmat/internal/pred"
	"viewmat/internal/relation"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/vec"
)

// The batch-vs-row benchmarks drive the same operator trees at the
// default batch size and at BatchSize 1 (the `vmsim -batch=off` row
// adapter). Results and metered charges are identical either way —
// the property layer proves that — so the delta here is pure
// executor overhead: per-row batch allocation, per-row brackets, and
// boxed predicate evaluation versus typed column kernels.

// benchEnv builds a hot-pool B+-tree relation of n rows clustered on
// col 0, schema (key Int, val Int, name String), sharing one meter
// with the exec options so scan brackets see their own charges.
func benchEnv(b *testing.B, name string, n int) (*relation.Relation, Options) {
	b.Helper()
	d := storage.NewDisk(4096)
	m := storage.NewMeter()
	p := storage.NewArena(d, 1<<14).NewPool(m)
	schema := tuple.NewSchema(tuple.Col("key", tuple.Int), tuple.Col("val", tuple.Int), tuple.Col("name", tuple.String))
	r, err := relation.NewBTree(d, p, name, schema, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		t := tuple.New(uint64(i+1), tuple.I(int64(i)), tuple.I(int64(i%997)), tuple.S(fmt.Sprintf("n%02d", i%64)))
		if err := insert(p, r, t); err != nil {
			b.Fatal(err)
		}
	}
	return r, Options{Pool: p, Meter: m}
}

// drainRows pulls a tree to end of stream and returns the live-row
// count, without gathering per-row structs.
func drainRows(b testing.TB, root Operator) int {
	b.Helper()
	if err := root.Open(); err != nil {
		b.Fatal(err)
	}
	n := 0
	for {
		bt, err := root.NextBatch()
		if err != nil {
			b.Fatal(err)
		}
		if bt == nil {
			break
		}
		n += bt.LiveCount()
	}
	if err := root.Close(); err != nil {
		b.Fatal(err)
	}
	return n
}

var benchModes = []struct {
	name string
	bs   int
}{
	{"batch", 0},
	{"row", 1},
}

func BenchmarkExecBatchVsRow(b *testing.B) {
	const n = 20000

	b.Run("scan-filter", func(b *testing.B) {
		rel, env := benchEnv(b, "r", n)
		p := pred.New(pred.Cmp{Col: 1, Op: pred.Lt, Val: tuple.I(500)})
		for _, mode := range benchModes {
			b.Run(mode.name, func(b *testing.B) {
				o := Options{Pool: env.Pool, Meter: env.Meter, BatchSize: mode.bs}
				want := -1
				for i := 0; i < b.N; i++ {
					f := NewFilter(o, Label{"val<500"}, NewScan(o, rel, nil), Pred{P: p}, true)
					got := drainRows(b, f)
					if want == -1 {
						want = got
					}
					if got != want || got == 0 {
						b.Fatalf("drained %d rows, want %d", got, want)
					}
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			})
		}
	})

	b.Run("join-delta", func(b *testing.B) {
		const inner, deltas = 4096, 2000
		rel, env := benchEnv(b, "r2", inner)
		var adds, dels []tuple.Tuple
		for i := 0; i < deltas; i++ {
			t := tuple.New(uint64(inner+i+1), tuple.I(int64(i%inner)), tuple.I(int64(i)), tuple.S("d"))
			if i%4 == 0 {
				dels = append(dels, t)
			} else {
				adds = append(adds, t)
			}
		}
		for _, mode := range benchModes {
			b.Run(mode.name, func(b *testing.B) {
				o := Options{Pool: env.Pool, Meter: env.Meter, BatchSize: mode.bs}
				want := -1
				for i := 0; i < b.N; i++ {
					j := NewLoopJoin(o, LoopJoinSpec{
						Input:       NewDeltaSource(o, "d1", adds, dels),
						Inner:       rel,
						JoinCol:     0,
						ChargeMatch: true,
					})
					got := drainRows(b, j)
					if want == -1 {
						want = got
					}
					if got != want || got == 0 {
						b.Fatalf("drained %d rows, want %d", got, want)
					}
				}
				b.ReportMetric(float64(deltas)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			})
		}
	})

	b.Run("agg-fold", func(b *testing.B) {
		rel, env := benchEnv(b, "r3", n)
		p := pred.New(pred.Cmp{Col: 1, Op: pred.Lt, Val: tuple.I(750)})
		for _, mode := range benchModes {
			b.Run(mode.name, func(b *testing.B) {
				o := Options{Pool: env.Pool, Meter: env.Meter, BatchSize: mode.bs}
				var want float64
				for i := 0; i < b.N; i++ {
					var sum float64
					filt := NewFilter(o, Label{"val<750"}, NewScan(o, rel, nil), Pred{P: p}, true)
					fold := NewAggFold(o, Label{"sum"}, filt, Fold{Col: 1, Val: func(v float64, insert bool) {
						if insert {
							sum += v
						} else {
							sum -= v
						}
					}})
					drainRows(b, fold)
					if i == 0 {
						want = sum
					}
					if sum != want || sum == 0 {
						b.Fatalf("sum = %v, want %v", sum, want)
					}
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			})
		}
	})
}

// projectViaBinding is the retired projection path rebuilt verbatim
// for the benchmark: bind slots into a per-row map, allocate the
// 8-cap output slice the old Def.ProjectValues allocated, then walk
// the target list through map lookups.
//
//go:noinline
func projectViaBinding(binding map[int]tuple.Tuple, spec [][2]int) []tuple.Value {
	out := make([]tuple.Value, 0, 8)
	for _, sc := range spec {
		out = append(out, binding[sc[0]].Vals[sc[1]])
	}
	return out
}

var benchProjSink []tuple.Value
var benchColSink []vec.Col

// BenchmarkProjectMapBindingVsSlot is the before/after for killing the
// per-row map[int]tuple.Tuple binding. "map-binding" replays the old
// path over 1024 rows: one map build, one 8-cap slice, and one hash
// lookup per value for every row. "column-spec" is what replaced it —
// Def.ProjectSpec's (slot, column) pairs applied per batch as column-
// header copies (the Project operator's vectorized arm), with Row.Slot
// available for the stray per-row callback. Same 1024 projected rows
// per iteration either way.
func BenchmarkProjectMapBindingVsSlot(b *testing.B) {
	rows := make([]Row, vec.DefaultBatchSize)
	batch := &vec.Batch{}
	for i := range rows {
		rows[i] = Row{
			T0:     tuple.New(uint64(i+1), tuple.I(int64(i)), tuple.I(int64(i%7)), tuple.S("a")),
			T1:     tuple.New(uint64(i+9000), tuple.I(int64(i%7)), tuple.I(int64(i)), tuple.S("b")),
			Insert: true,
		}
		if !batch.TryAppend(&rows[i].T0, &rows[i].T1, nil, true, 0, len(rows)) {
			b.Fatal("batch append rejected")
		}
	}
	spec := [][2]int{{0, 0}, {1, 1}, {0, 2}, {1, 2}}

	b.Run("map-binding", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range rows {
				benchProjSink = projectViaBinding(map[int]tuple.Tuple{0: r.T0, 1: r.T1}, spec)
			}
		}
	})
	b.Run("column-spec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cols := make([]vec.Col, len(spec))
			for c, sc := range spec {
				cols[c] = batch.Slots[sc[0]][sc[1]]
			}
			batch.SetOut(cols)
			benchColSink = cols
		}
	})
	// Per-iteration work is identical (1024 rows projected); the
	// vectorized arm just does it with len(spec) header copies.
}
