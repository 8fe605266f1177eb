package core

import (
	"fmt"
	"math/rand"
	"testing"

	"viewmat/internal/tuple"
	"viewmat/internal/workload"
)

// The heavy-light proof layer: hot keys of a tracked relation take the
// eager path (base file + in-commit differential refresh), the long
// tail stays lazy in the AD file, and the partitioned engine agrees
// with an untracked one on every query.

// hammerKey commits reps single-op update transactions on one in-range
// key, returning the final tuple id.
func hammerKey(t testing.TB, db *Database, key int64, id uint64, reps int) uint64 {
	t.Helper()
	for i := 0; i < reps; i++ {
		tx := db.Begin()
		nid, err := tx.Update("r", tuple.I(key), id, tuple.I(key), tuple.I(int64(i)), tuple.S("hot"))
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		id = nid
	}
	return id
}

func TestHeavyLightClassification(t *testing.T) {
	db := newSPDatabase(t, Deferred, 50)
	if err := db.EnableHeavyLight("r", 0.3, 10); err != nil {
		t.Fatal(err)
	}
	// Warmup ops stay light (and sit in the AD file, pinning the key
	// light via the Bloom filter); a deferred refresh folds them, after
	// which the now-hot key routes eagerly.
	id := hammerKey(t, db, 15, 16, 12)
	if err := db.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	hammerKey(t, db, 15, id, 8)

	stats := db.HeavyLightStats()
	if len(stats) != 1 || stats[0].Rel != "r" {
		t.Fatalf("stats = %+v", stats)
	}
	st := stats[0]
	if st.Total != 20 {
		t.Errorf("total ops = %d, want 20", st.Total)
	}
	hot := false
	for _, k := range st.HotKeys {
		if k == tuple.I(15).String() {
			hot = true
		}
	}
	if !hot {
		t.Errorf("key 15 not classified hot: %+v", st)
	}
	if st.HeavyOps != 8 {
		t.Errorf("eager ops = %d, want 8 (post-fold)", st.HeavyOps)
	}
	if st.LightOps != 12 {
		t.Errorf("light ops = %d, want 12 (warmup)", st.LightOps)
	}

	// Threshold validation.
	if err := db.EnableHeavyLight("r", 0, 1); err == nil {
		t.Error("threshold 0 accepted")
	}
	if err := db.EnableHeavyLight("r", 1.5, 1); err == nil {
		t.Error("threshold > 1 accepted")
	}
	if err := db.EnableHeavyLight("missing", 0.5, 1); err == nil {
		t.Error("unknown relation accepted")
	}
	if err := db.DisableHeavyLight("r"); err != nil {
		t.Fatal(err)
	}
	if got := db.HeavyLightStats(); len(got) != 0 {
		t.Errorf("stats after disable: %+v", got)
	}
}

// TestHeavyLightBloomOrdering pins the two-path correctness rule: a
// key with entries pending in the AD file is forced light (the Bloom
// filter may not reorder same-key operations across the paths), and
// the eager path re-opens after a fold clears the filter.
func TestHeavyLightBloomOrdering(t *testing.T) {
	db := newSPDatabase(t, Deferred, 50)
	if err := db.EnableHeavyLight("r", 0.2, 3); err != nil {
		t.Fatal(err)
	}
	// No fold yet: the first ops land in the AD file, so even after the
	// key is statistically hot, its pending AD entries keep it light.
	id := hammerKey(t, db, 15, 16, 10)
	st := db.HeavyLightStats()[0]
	if st.HeavyOps != 0 {
		t.Fatalf("ops routed eagerly while AD entries pend: %+v", st)
	}
	if st.LightOps != 10 {
		t.Fatalf("light ops = %d, want 10", st.LightOps)
	}

	// Fold (deferred refresh) resets the filter; the hot key now routes
	// eagerly and the AD file stays empty.
	if err := db.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	hammerKey(t, db, 15, id, 5)
	st = db.HeavyLightStats()[0]
	if st.HeavyOps != 5 {
		t.Errorf("heavy ops after fold = %d, want 5", st.HeavyOps)
	}
	if h, ok := db.HR("r"); !ok || h.ADLen() != 0 {
		t.Errorf("AD file grew despite eager routing")
	}

	rows, err := db.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rows {
		if r.Vals[0].Int() == 15 {
			found = true
			if r.Vals[1].String() != tuple.S("hot").String() {
				t.Errorf("key 15 carries %q, want the last written value", r.Vals[1].String())
			}
		}
	}
	if !found {
		t.Error("key 15 missing from view")
	}
}

// TestHeavyLightJoinOptOut: relations feeding a deferred join view
// never route eagerly — the join delta expansion reconstructs
// pre-transaction states from the AD file, which the eager path would
// bypass.
func TestHeavyLightJoinOptOut(t *testing.T) {
	db := newFanJoinDatabase(t, gateModel, Deferred, 60, 10)
	if err := db.EnableHeavyLight("r1", 0.1, 2); err != nil {
		t.Fatal(err)
	}
	if err := db.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tx := db.Begin()
		if _, err := tx.Insert("r1", tuple.I(25), tuple.I(5), tuple.S("x")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	st := db.HeavyLightStats()[0]
	if st.HeavyOps != 0 {
		t.Errorf("join-feeding relation routed %d ops eagerly, want 0", st.HeavyOps)
	}
	if st.LightOps != 10 {
		t.Errorf("light ops = %d, want 10", st.LightOps)
	}
	if err := db.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryView("j0", nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range rows {
		if r.Vals[0].Int() == 25 {
			n++
		}
	}
	if n != 11 { // the seeded k=25 row plus ten duplicates
		t.Errorf("key 25 appears %d times in j0, want 11", n)
	}
}

// TestHeavyLightAgreesWithPlain drives a zipfian update stream from
// the workload generator through a partitioned engine and an untracked
// twin, interleaving refreshes, and requires identical view contents
// at every checkpoint — including a hierarchy child fed by the skewed
// parent.
func TestHeavyLightAgreesWithPlain(t *testing.T) {
	build := func(hl bool) *Database {
		t.Helper()
		db := newSPDatabase(t, Deferred, 50)
		if err := db.CreateView(childSPDef("c", "v", 12, 28), Deferred); err != nil {
			t.Fatal(err)
		}
		if hl {
			if err := db.EnableHeavyLight("r", 0.2, 8); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	subject, plain := build(true), build(false)

	keys := workload.KeyStream(120, 40, 1.5, 7)
	rng := rand.New(rand.NewSource(7))
	// Tuple ids are drawn from each engine's internal counter, which
	// refreshes also consume — the engines' ids diverge, so each tracks
	// its own live set. The op sequence (key + insert/delete choice) is
	// what both share.
	type engineState struct {
		db   *Database
		live map[int64][]uint64
	}
	states := []*engineState{{db: subject}, {db: plain}}
	for _, st := range states {
		st.live = map[int64][]uint64{}
		for i := 0; i < 50; i++ {
			st.live[int64(i)] = []uint64{uint64(i + 1)}
		}
	}
	for i, key := range keys {
		del := len(states[0].live[key]) > 0 && rng.Intn(3) == 0
		for _, st := range states {
			ids := st.live[key]
			tx := st.db.Begin()
			if del {
				if err := tx.Delete("r", tuple.I(key), ids[len(ids)-1]); err != nil {
					t.Fatal(err)
				}
				st.live[key] = ids[:len(ids)-1]
			} else {
				id, err := tx.Insert("r", tuple.I(key), tuple.I(int64(i)), tuple.S(sName(i)))
				if err != nil {
					t.Fatal(err)
				}
				st.live[key] = append(ids, id)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}

		if i%17 == 0 {
			if err := subject.RefreshAll(); err != nil {
				t.Fatal(err)
			}
		}
		if i%29 == 0 {
			for _, name := range []string{"v", "c"} {
				a, err := subject.QueryView(name, nil)
				if err != nil {
					t.Fatal(err)
				}
				b, err := plain.QueryView(name, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameRows(t, fmt.Sprintf("step %d %s", i, name), a, b)
			}
		}
	}
	for _, name := range []string{"v", "c"} {
		a, err := subject.QueryView(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := plain.QueryView(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "final "+name, a, b)
	}
	st := subject.HeavyLightStats()[0]
	if st.HeavyOps == 0 {
		t.Error("skewed stream never took the eager path; partitioning untested")
	}
}
