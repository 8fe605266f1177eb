package core

import (
	"runtime"
	"testing"

	"viewmat/internal/pred"
	"viewmat/internal/tuple"
)

// mixedDefKeys returns transaction i's keys as the benchmark draws them:
// a pair from one of the four in-view blocks of n/8 keys and a pair from
// one of the four out-of-view ones.
func mixedDefKeys(n int64, i int) [4]int64 {
	var keys [4]int64
	bl := n / 8
	for pair := int64(0); pair < 2; pair++ {
		base := (pair*4 + int64(i)%4) * bl // blocks 0–3 are in view, 4–7 out
		k1 := int64(i*7919) % bl
		keys[2*pair], keys[2*pair+1] = base+k1, base+(k1+1+int64(i*104729)%(bl-1))%bl
	}
	return keys
}

// refreshAll runs the deferred refresh mixed-def's queries run: AD read
// and fold of R's net changes, then v1, v2 and v3.
func (c *commitImm) refreshAll(tb testing.TB) {
	if err := c.db.RefreshDeferredNow("v1"); err != nil {
		tb.Fatal(err)
	}
}

// TestDeferredRefreshAllocations pins what one mixed-def refresh
// allocates — the fold of a 4-row update transaction's net changes into R
// and the refresh of the three deferred views — at n = 400, without the
// WAL. The bound is today's count: it may fall, and must not rise.
func TestDeferredRefreshAllocations(t *testing.T) {
	c := newCommitViews(t, 400, Deferred)
	const runs = 50
	var total uint64
	var ms runtime.MemStats
	for i := 0; i <= runs; i++ {
		c.commit(t, [4]int64{4, 12, 233, 391})
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		c.refreshAll(t)
		runtime.ReadMemStats(&ms)
		if i > 0 { // the first run warms buffers up
			total += ms.Mallocs - before
		}
	}
	allocs := float64(total) / runs
	// 498 (race detector 793–794) while the fold and each view's apply
	// took a visit per row; 426 (race detector 655) while a refresh read
	// and folded every AD file of its component, empty or not, and
	// Truncate rewrote empty buckets; 423.1–423.2 (race detector
	// 652.6–654.3) while every executed tree was captured and labelled
	// whether or not anyone read it; 308 (race detector 511, bound 520)
	// while a private join refresh ran one apply sink per expansion
	// term, a join made one batch past its last, and labels were joined
	// when the tree was built; 293 (race detector 496, bound 505) while
	// a range scan, a join probe or a Get decoded every leaf it read. The
	// count since is 277.2 (race detector 459, which wanders as
	// TestCommitAllocations says).
	max := 278.0
	if raceEnabled() {
		max = 468
	}
	t.Logf("%.0f allocations a deferred refresh (race detector: %v)", allocs, raceEnabled())
	if allocs > max {
		t.Errorf("a deferred refresh allocated %.0f objects, want at most %.0f", allocs, max)
	}
	var want float64
	for k := int64(0); k < c.n/2; k++ {
		want += float64(c.p[k])
	}
	if got, ok, err := c.db.QueryAggregate("v3"); err != nil || !ok || got != want {
		t.Fatalf("v3 = %v, %v, %v; want %v", got, ok, err, want)
	}
}

// BenchmarkDeferredRefresh runs mixed-def's operation pair in process at
// the benchmark's N = 20 000, without the WAL: a 4-row update transaction
// drawn as the benchmark draws it, then a 200-row range query of v1,
// which refreshes the deferred views first (AD read, fold, v1–v3).
func BenchmarkDeferredRefresh(b *testing.B) {
	c := newCommitViews(b, 20000, Deferred)
	b.ReportAllocs()
	b.ResetTimer()
	defer reportKeptLanes(b)()
	for i := 0; i < b.N; i++ {
		c.commit(b, mixedDefKeys(c.n, i))
		lo := (int64(i) % 4) * c.n / 8
		if _, err := c.db.QueryView("v1", pred.NewRange(tuple.I(lo), tuple.I(lo+200), true, false)); err != nil {
			b.Fatal(err)
		}
	}
}
