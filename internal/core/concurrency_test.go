package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"viewmat/internal/pred"
	"viewmat/internal/tuple"
)

// These tests are written to run under the race detector: goroutines
// hammer the engine's update path while others read views maintained
// under every strategy, and the final logical contents are checked
// against a serial replay of the same operations.

// runUpdaterScript executes updater u's deterministic operation
// sequence: one insert per transaction, with every third transaction
// also deleting the tuple inserted two steps earlier. Updaters target
// only their own tuples (deletes go by own id), so any interleaving of
// complete transactions yields the same final multiset of rows.
func runUpdaterScript(db *Database, u, ops int) error {
	type ins struct {
		key int64
		id  uint64
	}
	var mine []ins
	for i := 0; i < ops; i++ {
		tx := db.Begin()
		key := int64((u*37 + i*13) % 40) // straddles the view predicate [10,30)
		id, err := tx.Insert("r", tuple.I(key), tuple.I(int64(u*1000+i)), tuple.S(sName(u+i)))
		if err != nil {
			return err
		}
		mine = append(mine, ins{key: key, id: id})
		if i%3 == 2 {
			victim := mine[len(mine)-2]
			if err := tx.Delete("r", tuple.I(victim.key), victim.id); err != nil {
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// checkViewRows sanity-checks rows read mid-flight: projection arity
// and the view predicate must hold no matter how updates interleave.
func checkViewRows(rows []ResultRow) error {
	for _, r := range rows {
		if len(r.Vals) != 2 {
			return fmt.Errorf("projection arity %d, want 2", len(r.Vals))
		}
		if k := r.Vals[0].Int(); k < 10 || k >= 30 {
			return fmt.Errorf("out-of-predicate row k=%d", k)
		}
	}
	return nil
}

func TestConcurrentUpdatesAndQueries(t *testing.T) {
	const updaters, queriers, ops = 4, 3, 18
	for _, st := range []Strategy{QueryModification, Immediate, Deferred} {
		st := st
		t.Run(st.String(), func(t *testing.T) {
			db := newSPDatabase(t, st, 50)
			// A QM view can ride along with deferred views over the same
			// relation: its reads overlay the pending HR changes.
			withQM := st == Deferred
			if withQM {
				if err := db.CreateView(spDef("vqm"), QueryModification); err != nil {
					t.Fatal(err)
				}
			}

			var wg sync.WaitGroup
			updErrs := make([]error, updaters)
			for u := 0; u < updaters; u++ {
				wg.Add(1)
				go func(u int) {
					defer wg.Done()
					updErrs[u] = runUpdaterScript(db, u, ops)
				}(u)
			}
			stop := make(chan struct{})
			qErrs := make([]error, queriers)
			var qwg sync.WaitGroup
			for q := 0; q < queriers; q++ {
				qwg.Add(1)
				go func(q int) {
					defer qwg.Done()
					name := "v"
					if withQM && q%2 == 1 {
						name = "vqm"
					}
					for {
						select {
						case <-stop:
							return
						default:
						}
						rows, err := db.QueryView(name, nil)
						if err == nil {
							err = checkViewRows(rows)
						}
						if err != nil {
							qErrs[q] = err
							return
						}
					}
				}(q)
			}
			wg.Wait()
			close(stop)
			qwg.Wait()
			for u, err := range updErrs {
				if err != nil {
					t.Fatalf("updater %d: %v", u, err)
				}
			}
			for q, err := range qErrs {
				if err != nil {
					t.Fatalf("querier %d: %v", q, err)
				}
			}

			// Serial replay: same seed, same scripts, one goroutine.
			replay := newSPDatabase(t, st, 50)
			for u := 0; u < updaters; u++ {
				if err := runUpdaterScript(replay, u, ops); err != nil {
					t.Fatalf("replay updater %d: %v", u, err)
				}
			}
			got, err := db.QueryView("v", nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := replay.QueryView("v", nil)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, st.String()+" vs serial replay", got, want)
			if withQM {
				gotQM, err := db.QueryView("vqm", nil)
				if err != nil {
					t.Fatal(err)
				}
				sameRows(t, "qm sibling vs serial replay", gotQM, want)
			}
		})
	}
}

// TestSingleFlightDeferredRefresh checks that many queries arriving at
// the same stale deferred view trigger exactly one differential
// refresh: the single-flight leader refreshes, everyone else either
// waits on its latch or arrives afterwards and finds the view fresh.
func TestSingleFlightDeferredRefresh(t *testing.T) {
	db := newSPDatabase(t, Deferred, 300)
	tx := db.Begin()
	for i := 0; i < 5; i++ {
		if _, err := tx.Insert("r", tuple.I(int64(11+i)), tuple.I(1), tuple.S("n")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if stale, err := db.ViewIsStale("v"); err != nil || !stale {
		t.Fatalf("expected stale deferred view (stale=%v, err=%v)", stale, err)
	}

	const readers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, readers)
	counts := make([]int, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			rows, err := db.QueryView("v", nil)
			errs[g], counts[g] = err, len(rows)
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 0; g < readers; g++ {
		if errs[g] != nil {
			t.Fatalf("reader %d: %v", g, errs[g])
		}
		if counts[g] != 25 { // 20 seeded in-range + 5 inserted
			t.Fatalf("reader %d saw %d rows, want 25", g, counts[g])
		}
	}
	n, err := db.ViewRefreshes("v")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("view refreshed %d times under concurrent readers, want exactly 1", n)
	}
	if leaders := db.Health().RefreshLeaders; leaders != 1 {
		t.Fatalf("single-flight led %d refreshes, want 1", leaders)
	}
}

// multiViewDef is spDef retargeted at one of several base relations.
func multiViewDef(view, rel string) Def {
	d := spDef(view)
	d.Relations = []string{rel}
	return d
}

// newMultiViewDatabase builds nDeferred independent deferred views (one
// per private relation) plus one snapshot view, then commits in-range
// inserts into every relation so everything is stale at once.
func newMultiViewDatabase(t testing.TB, nDeferred int) *Database {
	t.Helper()
	db := newTestDB(t)
	rels := make([]string, 0, nDeferred+1)
	for i := 0; i <= nDeferred; i++ {
		rn := fmt.Sprintf("r%d", i)
		rels = append(rels, rn)
		if _, err := db.CreateRelationBTree(rn, spSchema(), 0); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		for k := 0; k < 40; k++ {
			if _, err := tx.Insert(rn, tuple.I(int64(k)), tuple.I(int64(k*2+i)), tuple.S(sName(k+i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nDeferred; i++ {
		if err := db.CreateView(multiViewDef(fmt.Sprintf("v%d", i), rels[i]), Deferred); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateView(multiViewDef("vsnap", rels[nDeferred]), Snapshot); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i, rn := range rels {
		if _, err := tx.Insert(rn, tuple.I(int64(12+i%10)), tuple.I(int64(i)), tuple.S("fresh")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestRefreshAllParallelMatchesSerial refreshes the same stale catalog
// with a serial RefreshAll and a 4-worker RefreshAll and demands
// identical view contents and freshness afterwards.
func TestRefreshAllParallelMatchesSerial(t *testing.T) {
	const nDeferred = 6
	results := map[int]map[string][]ResultRow{}
	for _, workers := range []int{1, 4} {
		db := newMultiViewDatabase(t, nDeferred)
		db.SetMaxRefreshWorkers(workers)
		if err := db.RefreshAll(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		views := make([]string, 0, nDeferred+1)
		for i := 0; i < nDeferred; i++ {
			views = append(views, fmt.Sprintf("v%d", i))
		}
		views = append(views, "vsnap")
		rows := map[string][]ResultRow{}
		for _, v := range views {
			stale, err := db.ViewIsStale(v)
			if err != nil {
				t.Fatal(err)
			}
			if stale {
				t.Fatalf("workers=%d: view %q still stale after RefreshAll", workers, v)
			}
			r, err := db.QueryView(v, nil)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			rows[v] = r
		}
		results[workers] = rows
	}
	for v, want := range results[1] {
		sameRows(t, "parallel vs serial RefreshAll: "+v, results[4][v], want)
	}
}

// TestRefreshAllParallelFasterWithLatency pins down the point of the
// worker pool: when page transfers cost wall-clock time (simulated I/O
// latency, slept outside the pool lock), workers refreshing independent
// units overlap their waits. Instead of racing wall clocks — which
// flakes under scheduler noise — the test derives each unit's I/O time
// from the serial run's per-unit accounting (LastRefreshUnits) and
// checks that scheduling those costs over 4 workers yields a makespan
// well under the serial sum. The I/O counts are deterministic, so the
// assertion is exact and cannot flake.
func TestRefreshAllParallelFasterWithLatency(t *testing.T) {
	const nDeferred = 6
	db := newMultiViewDatabase(t, nDeferred)
	if err := db.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	units := db.LastRefreshUnits()
	if len(units) != nDeferred+1 { // v0..v5 plus vsnap
		t.Fatalf("recorded %d units, want %d", len(units), nDeferred+1)
	}
	// Each unit's simulated latency cost: one SetIOLatency sleep per
	// page transferred, slept outside the pool lock, so unit costs add
	// serially and overlap across workers.
	var serial, longest int64
	costs := make([]int64, len(units))
	for i, u := range units {
		costs[i] = u.IO.IOs()
		if costs[i] == 0 {
			t.Fatalf("unit %v transferred no pages", u.Views)
		}
		serial += costs[i]
		if costs[i] > longest {
			longest = costs[i]
		}
	}
	// Greedy list scheduling over 4 workers, the same order RefreshAll
	// hands units out in.
	workers := [4]int64{}
	for _, c := range costs {
		least := 0
		for w := 1; w < len(workers); w++ {
			if workers[w] < workers[least] {
				least = w
			}
		}
		workers[least] += c
	}
	makespan := int64(0)
	for _, w := range workers {
		if w > makespan {
			makespan = w
		}
	}
	t.Logf("serial %d page-times, 4-worker makespan %d (longest unit %d)", serial, makespan, longest)
	if makespan < longest {
		t.Fatalf("makespan %d below longest unit %d: scheduler model broken", makespan, longest)
	}
	if makespan*4 > serial*3 { // makespan ≤ 0.75 · serial
		t.Fatalf("4 workers would not beat serial: makespan %d vs serial %d", makespan, serial)
	}
}

// dupDef projects only the non-key string column, so distinct base
// tuples collapse into duplicate view rows and the stored duplicate
// counts (§2.1) carry real weight.
func dupDef(name string) Def {
	return Def{
		Name:      name,
		Kind:      SelectProject,
		Relations: []string{"r"},
		Pred: pred.New(
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(10)},
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(30)},
		),
		Project:    [][]int{{2}},
		ViewKeyCol: 0,
	}
}

// TestConcurrentPersistRoundTrip snapshots the database while read
// queries are in flight, restores it, and checks that both views —
// including one whose rows exist only as duplicate counts — answer
// identically, before and after further identical updates.
func TestConcurrentPersistRoundTrip(t *testing.T) {
	db := newSPDatabase(t, Deferred, 50)
	if err := db.CreateView(dupDef("w"), Deferred); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < 6; i++ {
		if _, err := tx.Insert("r", tuple.I(int64(10+i*3)), tuple.I(int64(i)), tuple.S(sName(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	qErrs := make([]error, 2)
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.QueryView("v", nil); err != nil {
					qErrs[q] = err
					return
				}
			}
		}(q)
	}
	var buf bytes.Buffer
	saveErr := db.Save(&buf)
	close(stop)
	wg.Wait()
	if saveErr != nil {
		t.Fatalf("Save under concurrent queries: %v", saveErr)
	}
	for q, err := range qErrs {
		if err != nil {
			t.Fatalf("querier %d: %v", q, err)
		}
	}

	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, view := range []string{"v", "w"} {
		got, err := db2.QueryView(view, nil)
		if err != nil {
			t.Fatalf("restored %q: %v", view, err)
		}
		want, err := db.QueryView(view, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "restored "+view, got, want)
	}
	// The restored engine must keep working: same mutation on both,
	// same answers after.
	for _, d := range []*Database{db, db2} {
		tx := d.Begin()
		if _, err := tx.Insert("r", tuple.I(15), tuple.I(99), tuple.S("post")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for _, view := range []string{"v", "w"} {
		got, err := db2.QueryView(view, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.QueryView(view, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "post-restore update "+view, got, want)
	}
}
