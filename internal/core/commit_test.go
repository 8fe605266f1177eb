package core

import (
	"path/filepath"
	"runtime/debug"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
	"viewmat/internal/wal"
)

// commitImm is the commit-imm benchmark workload in process: R(k, a, p)
// of n rows with a = k·40503 mod n, R2(jk, info) of n/10, and immediate
// Model 1, 2 and 3 views over σ(k < n/2)R — on the benchmark's 4 000-byte
// pages and 256-frame pool. commit runs one of its transactions: four
// rows updated, a pair inside the views' range and a pair outside, p
// moved by +d and −d.
type commitImm struct {
	db   *Database
	n    int64
	ids  []uint64 // per key: the live row's id...
	p    []int64  // ...and its p
	runs int
}

func newCommitImm(tb testing.TB, n int64) *commitImm {
	tb.Helper()
	return newCommitViews(tb, n, Immediate)
}

// newCommitViews is newCommitImm with the views under strategy: Deferred
// gives the mixed-def workload's data and views.
func newCommitViews(tb testing.TB, n int64, strategy Strategy) *commitImm {
	tb.Helper()
	const aMul = 40503
	c := &commitImm{db: NewDatabase(Options{PageSize: 4000, PoolFrames: 256}), n: n, ids: make([]uint64, n), p: make([]int64, n)}
	r := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("p", tuple.Int))
	r2 := tuple.NewSchema(tuple.Col("jk", tuple.Int), tuple.Col("info", tuple.Int))
	if _, err := c.db.CreateRelationBTree("R", r, 0); err != nil {
		tb.Fatal(err)
	}
	if _, err := c.db.CreateRelationBTree("R2", r2, 0); err != nil {
		tb.Fatal(err)
	}
	for lo := int64(0); lo < n; lo += 2000 {
		tx := c.db.Begin()
		for k := lo; k < min(lo+2000, n); k++ {
			c.p[k] = (k*7919 + 17) % 1000
			id, err := tx.Insert("R", tuple.I(k), tuple.I(k*aMul%n), tuple.I(c.p[k]))
			if err != nil {
				tb.Fatal(err)
			}
			c.ids[k] = id
		}
		if err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	tx := c.db.Begin()
	for jk := int64(0); jk < n/10; jk++ {
		if _, err := tx.Insert("R2", tuple.I(jk), tuple.I(jk*31%977)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	inView := pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(n / 2)}
	for _, d := range []Def{
		{Name: "v1", Kind: SelectProject, Relations: []string{"R"}, Pred: pred.New(inView), Project: [][]int{{0, 2}}, ViewKeyCol: 0},
		{Name: "v2", Kind: Join, Relations: []string{"R", "R2"},
			Pred:    pred.New(inView, pred.JoinEq{LRel: 0, LCol: 1, RRel: 1, RCol: 0}),
			Project: [][]int{{0, 2}, {1}}, ViewKeyCol: 0},
		{Name: "v3", Kind: Aggregate, Relations: []string{"R"}, Pred: pred.New(inView), AggKind: agg.Sum, AggCol: 2},
	} {
		if err := c.db.CreateView(d, strategy); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// commit updates keys (two below n/2, two above) by +d, −d, +d, −d.
func (c *commitImm) commit(tb testing.TB, keys [4]int64) {
	const aMul = 40503
	d := int64(1 + c.runs%9)
	if c.runs++; c.runs%2 == 0 {
		d = -d
	}
	tx := c.db.Begin()
	for i, k := range keys {
		if i%2 == 1 {
			c.p[k] -= d
		} else {
			c.p[k] += d
		}
		id, err := tx.Update("R", tuple.I(k), c.ids[k], tuple.I(k), tuple.I(k*aMul%c.n), tuple.I(c.p[k]))
		if err != nil {
			tb.Fatal(err)
		}
		c.ids[k] = id
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
}

// TestCommitAllocations pins what one commit of the commit-imm workload
// allocates, at n = 400 and without the WAL. Everything the commit does
// per row — descents, leaf rewrites, screening, immediate maintenance —
// is in the count, so a descent that allocates again, or a leaf visited
// twice, shows here. The bound is today's count: it may fall, and must
// not rise.
func TestCommitAllocations(t *testing.T) {
	c := newCommitImm(t, 400)
	// Keys 4 and 12 lie inside the views' range and join R2 (a = 12 and
	// 36, under n/10); 233 and 391 lie outside it. The same four rows are
	// rewritten every run, so every run meets the same pages.
	keys := [4]int64{4, 12, 233, 391}
	allocs := testing.AllocsPerRun(50, func() { c.commit(t, keys) })
	// 801 before descents routed on the encoded page and a delete or an
	// update visited its leaf once; 617 (race detector 825–834) while a
	// leaf or chain page edit decoded the page to tuples; 513 (race
	// detector 745–747) before the bound was brought down to 340 (race
	// detector 482–483), the count while every executed tree was captured
	// and labelled whether or not anyone read it; 251 (race detector 378,
	// bound 385) while a private join refresh ran one apply sink per
	// expansion term, with an empty cross-term operator and an id set
	// for R1' when R2 had not changed, a join made one batch past its
	// last, and labels were joined when the tree was built; 236 (race
	// detector 363, bound 370) while a range scan or a join probe
	// decoded every leaf it read. The count since is 220. The race
	// detector's count wanders by a few (330 seen), because its sync.Pool
	// drops what it is handed at random, so its bound has a little room.
	max := 220.0
	if raceEnabled() {
		max = 337
	}
	t.Logf("%.0f allocations a 4-row immediate commit (race detector: %v)", allocs, raceEnabled())
	if allocs > max {
		t.Errorf("a 4-row immediate commit allocated %.0f objects, want at most %.0f", allocs, max)
	}
	var want float64
	for k := int64(0); k < c.n/2; k++ {
		want += float64(c.p[k])
	}
	if got, ok, err := c.db.QueryAggregate("v3"); err != nil || !ok || got != want {
		t.Fatalf("v3 = %v, %v, %v; want %v", got, ok, err, want)
	}
}

// BenchmarkCommitImmediate runs commit-imm's transactions in process at
// the benchmark's N = 20 000 with the WAL and checkpoint store on files
// under the test's temporary directory (checkpoint every 8 commits), each
// transaction's keys drawn as the benchmark draws them: a pair from an
// in-view block of N/8 keys and a pair from an out-of-view one. It is the
// workload's CPU profile without a socket (the verify skill says how to
// take it).
func BenchmarkCommitImmediate(b *testing.B) {
	c := newCommitImm(b, 20000)
	c.durable(b, b.TempDir(), DurabilityOptions{CheckpointEvery: 8})
	b.ResetTimer()
	defer reportKeptLanes(b)()
	for i := 0; i < b.N; i++ {
		c.commit(b, c.benchKeys(i))
	}
}

// benchKeys draws transaction i's keys as the benchmark draws them: a
// pair from an in-view block of n/8 keys and a pair from an out-of-view
// one.
func (c *commitImm) benchKeys(i int) (keys [4]int64) {
	bl := c.n / 8
	for pair := int64(0); pair < 2; pair++ {
		base := (pair*4 + int64(i)%4) * bl // blocks 0–3 are in view, 4–7 out
		k1 := int64(i*7919) % bl
		keys[2*pair], keys[2*pair+1] = base+k1, base+(k1+1+int64(i*104729)%(bl-1))%bl
	}
	return keys
}

// durable attaches the WAL and checkpoint store on files under dir,
// as viewmatd -wal does.
func (c *commitImm) durable(tb testing.TB, dir string, opts DurabilityOptions) {
	tb.Helper()
	walDev, err := wal.OpenFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { walDev.Close() })
	snapDev, err := wal.OpenFile(filepath.Join(dir, "snapshots.log"))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { snapDev.Close() })
	if err := c.db.EnableDurability(walDev, snapDev, opts); err != nil {
		tb.Fatal(err)
	}
}

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation moves stack buffers to the heap.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
