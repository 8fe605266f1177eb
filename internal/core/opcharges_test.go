package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"viewmat/internal/agg"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// chargesRels are the relations of the charges fixture: d1–d4 behind
// deferred views, i1 under immediate ones.
var chargesRels = []string{"d1", "d2", "d3", "d4", "i1"}

// chargesViews maps each view of the charges fixture to its relation
// and whether it is a SUM (else a select-project view).
var chargesViews = map[string]struct {
	rel string
	sum bool
}{
	"d1v": {"d1", false}, "d1s": {"d1", true}, "d2s": {"d2", true},
	"d3s": {"d3", true}, "d4s": {"d4", true}, "i1v": {"i1", false}, "i1s": {"i1", true},
}

// chargesFixture builds the charges fixture: each relation loaded with 60
// rows, d1 under a deferred select-project view and a deferred SUM, d2–d4
// under a deferred SUM each (one refresh unit apiece, and only d1's draws
// view-row ids, so parallel units draw none concurrently), i1 under an
// immediate select-project view and an immediate SUM; RefreshAll on four
// workers.
func chargesFixture(t testing.TB) *Database {
	t.Helper()
	db := NewDatabase(Options{PageSize: 512, PoolFrames: 16, MaxRefreshWorkers: 4})
	t.Cleanup(func() { db.assertUnpinned(t) })
	for _, rel := range chargesRels {
		if _, err := db.CreateRelationBTree(rel, spSchema(), 0); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		for i := 0; i < 60; i++ {
			if _, err := tx.Insert(rel, tuple.I(int64(i)), tuple.I(int64(i*2)), tuple.S(sName(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range sortedKeys(chargesViews) {
		v := chargesViews[name]
		def := spDef(name)
		if v.sum {
			def = aggDef(name, agg.Sum)
		}
		def.Relations = []string{v.rel}
		strategy := Deferred
		if v.rel == "i1" {
			strategy = Immediate
		}
		if err := db.CreateView(def, strategy); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// readCharges reads view as a client would.
func readCharges(db *Database, view string) error {
	if chargesViews[view].sum {
		_, _, err := db.QueryAggregate(view)
		return err
	}
	_, err := db.QueryView(view, nil)
	return err
}

// opRecord is one operation as the hooks saw it: its place in the order
// the engine lock was taken, the id clock then, what it was, what it was
// charged, and for a RefreshAll what each of its parallel units was.
type opRecord struct {
	seq     int
	clock   uint64
	what    opWhat
	charged storage.Stats
	units   map[string]storage.Stats
}

// opRecorder installs the hooks on db and keeps what they hear.
type opRecorder struct {
	mu      sync.Mutex
	next    int
	open    map[*op]*opRecord
	last    *opRecord // the operation that took the lock last
	done    []*opRecord
	charged storage.Stats // every operation's charges, units included
	errs    []string
}

func recordOps(db *Database) *opRecorder {
	r := &opRecorder{open: map[*op]*opRecord{}}
	db.onLock = func(o *op) {
		r.mu.Lock()
		defer r.mu.Unlock()
		if _, ok := r.open[o]; ok {
			return // a read taking the read lock after the refresh it led
		}
		rec := &opRecord{seq: r.next, clock: db.clock.Load()}
		r.next++
		r.open[o], r.last = rec, rec
	}
	db.onEnd = func(o *op, what opWhat, charged storage.Stats) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.charged = r.charged.Add(charged)
		rec, ok := r.open[o]
		if !ok {
			if what.kind != "unit" || r.last == nil {
				r.errs = append(r.errs, fmt.Sprintf("%s %s ended without taking the lock", what.kind, what.view))
				return
			}
			// A parallel RefreshAll unit: the RefreshAll holds the lock.
			if r.last.units == nil {
				r.last.units = map[string]storage.Stats{}
			}
			r.last.units[what.view] = charged
			return
		}
		delete(r.open, o)
		rec.what, rec.charged = what, charged
		r.done = append(r.done, rec)
	}
	return r
}

// TestConcurrentChargesEqualSerialReplay: eight clients commit to and read
// deferred and immediate views while RefreshAll runs on four workers, all
// under the race detector in CI. Every operation runs on a pool of its
// own, so each is charged what it is charged when the same operations
// run one at a time in the order they took the engine lock: the test
// replays the recorded operations serially on a second engine built the
// same way — commits with their ops and the id clock they started at,
// reads, the refreshes reads led on their own, RefreshAll with its
// parallel units — and holds every operation's charges, and every
// unit's, to the replay's. At each quiescent point the operations'
// charges sum to the meter's delta.
func TestConcurrentChargesEqualSerialReplay(t *testing.T) {
	const clients, rounds, phases = 8, 24, 2
	db := chargesFixture(t)
	start := db.Meter().Snapshot()
	rec := recordOps(db)
	views := sortedKeys(chargesViews)
	for phase := 0; phase < phases; phase++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100*phase + c)))
				for round := 0; round < rounds; round++ {
					if (c+round)%2 == 1 {
						if err := readCharges(db, views[rng.Intn(len(views))]); err != nil {
							t.Error(err)
							return
						}
						continue
					}
					rel := chargesRels[rng.Intn(len(chargesRels))]
					tx := db.Begin()
					for i := 0; i < 2; i++ {
						k := int64(5 + rng.Intn(30))
						if _, err := tx.Insert(rel, tuple.I(k), tuple.I(int64(c*1000+round)), tuple.S(sName(round))); err != nil {
							t.Error(err)
							return
						}
					}
					if err := tx.Commit(); err != nil {
						t.Error(err)
						return
					}
				}
			}(c)
		}
		clientsDone, refresher := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(refresher)
			for {
				select {
				case <-clientsDone:
					return
				default:
				}
				if err := db.RefreshAll(); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		}()
		wg.Wait()
		close(clientsDone)
		<-refresher
		// Three components left stale for one more RefreshAll, so every
		// phase runs units on the workers at once.
		for i, rel := range []string{"d2", "d3", "d4"} {
			tx := db.Begin()
			if _, err := tx.Insert(rel, tuple.I(int64(10+i)), tuple.I(int64(phase)), tuple.S("tail")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.RefreshAll(); err != nil {
			t.Fatal(err)
		}
		if t.Failed() {
			t.FailNow()
		}
		rec.mu.Lock()
		if got := db.Meter().Snapshot().Sub(start); got != rec.charged {
			t.Errorf("phase %d: the operations were charged %v in all, the meter moved %v", phase, rec.charged, got)
		}
		rec.mu.Unlock()
	}
	if len(rec.errs) > 0 {
		t.Fatal(rec.errs)
	}
	kinds, units := map[string]int{}, 0
	for _, r := range rec.done {
		kinds[r.what.kind]++
		units += len(r.units)
	}
	t.Logf("%d operations %v, %d parallel RefreshAll units", len(rec.done), kinds, units)
	if units < 3*phases {
		t.Fatalf("RefreshAll ran %d units on its workers, want at least the tails' %d", units, 3*phases)
	}

	replay := chargesFixture(t)
	var endedMu sync.Mutex // the replay's RefreshAll units end on its workers
	var ended []*opRecord
	replay.onEnd = func(_ *op, what opWhat, charged storage.Stats) {
		endedMu.Lock()
		ended = append(ended, &opRecord{what: what, charged: charged})
		endedMu.Unlock()
	}
	sort.Slice(rec.done, func(i, j int) bool { return rec.done[i].seq < rec.done[j].seq })
	for _, r := range rec.done {
		ended = ended[:0]
		replay.clock.Store(r.clock)
		var err error
		switch r.what.kind {
		case "commit":
			_, err = replay.commit(r.what.tx)
		case "read":
			err = readCharges(replay, r.what.view)
		case "refresh":
			var o *op
			if o, err = replay.refreshStale(r.what.view); err == nil && o != nil {
				_, err = o.end(opWhat{kind: "refresh", view: r.what.view})
			}
		case "refresh-all":
			err = replay.RefreshAll()
		default:
			t.Fatalf("operation %d: unexpected kind %q", r.seq, r.what.kind)
		}
		if err != nil {
			t.Fatalf("replay of operation %d (%s %s): %v", r.seq, r.what.kind, r.what.view, err)
		}
		got := map[string]storage.Stats{}
		var whole []string
		for _, e := range ended {
			if e.what.kind == "unit" {
				got[e.what.view] = e.charged
				continue
			}
			whole = append(whole, e.what.kind)
			if e.what.kind != r.what.kind || e.what.view != r.what.view {
				t.Fatalf("operation %d (%s %s) replays as %s %s", r.seq, r.what.kind, r.what.view, e.what.kind, e.what.view)
			}
			if e.charged != r.charged {
				t.Errorf("operation %d (%s %s) was charged %v, its serial replay %v", r.seq, r.what.kind, r.what.view, r.charged, e.charged)
			}
		}
		if len(whole) != 1 {
			t.Fatalf("operation %d (%s %s) replays as %v", r.seq, r.what.kind, r.what.view, whole)
		}
		if len(got) != len(r.units) {
			t.Errorf("RefreshAll %d ran units %v, its serial replay %v", r.seq, r.units, got)
		}
		for u, charged := range r.units {
			if got[u] != charged {
				t.Errorf("RefreshAll %d: unit %s was charged %v, its serial replay %v", r.seq, u, charged, got[u])
			}
		}
	}
}

// TestLeaderReadAfterCommitIsCold: a read that leads the refresh of its
// stale view goes on on the refresh's pool only while no writer has run
// since. A commit landing between the refresh and the read — the hook
// runs it there — ends the refresh as an operation of its own, and the
// read starts on a cold pool: it is charged what a read of the fresh view
// is charged, and answers what the query-modification twin does. Without
// the commit the read is charged on the refresh's warm pages, as one
// operation.
func TestLeaderReadAfterCommitIsCold(t *testing.T) {
	db := newSPDatabase(t, Deferred, 60)
	if err := db.CreateView(spDef("q"), QueryModification); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelationBTree("o", spSchema(), 0); err != nil {
		t.Fatal(err)
	}
	var ended []opRecord
	db.onEnd = func(_ *op, what opWhat, charged storage.Stats) {
		ended = append(ended, opRecord{what: what, charged: charged})
	}
	insert := func(rel string, k int64) {
		t.Helper()
		tx := db.Begin()
		if _, err := tx.Insert(rel, tuple.I(k), tuple.I(k), tuple.S("new")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	kinds := func() []string {
		var out []string
		for _, e := range ended {
			out = append(out, e.what.kind)
		}
		return out
	}
	read := func(label string) (storage.Stats, []ResultRow) {
		t.Helper()
		ended = ended[:0]
		rows, err := db.QueryView("v", nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.QueryView("q", nil)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, label, rows, want)
		return ended[len(ended)-2].charged, rows // the read of v, before q's
	}

	insert("r", 15)
	db.afterLead = func() {
		db.afterLead = nil
		insert("o", 1) // a writer, on a relation v does not read
	}
	coldRead, _ := read("read after a commit between refresh and read")
	if got := fmt.Sprint(kinds()); got != "[commit refresh read read]" {
		t.Fatalf("operations %s, want the commit, the refresh ended on its own, v's read and q's", got)
	}
	fresh, _ := read("read of the fresh view")
	if coldRead != fresh {
		t.Errorf("the read after the commit was charged %v, a read of the fresh view %v: it did not start cold", coldRead, fresh)
	}

	insert("r", 16)
	carried, _ := read("read on its refresh's pool")
	if got := fmt.Sprint(kinds()); got != "[read read]" {
		t.Fatalf("operations %s, want the refresh and v's read as one operation, and q's", got)
	}
	plans, err := db.CapturedPlans("v")
	if err != nil {
		t.Fatal(err)
	}
	if warm := plans[PlanPathQuery].Meter; warm.Reads >= fresh.Reads {
		t.Errorf("the read on its refresh's pool read %d pages, a cold read %d: the pool did not carry over", warm.Reads, fresh.Reads)
	}
	if carried.Reads <= fresh.Reads {
		t.Errorf("the refresh and read were charged %v in all, less than a read alone (%v)", carried, fresh)
	}
}
