package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"viewmat/internal/exec"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// The shared-delta proof layer: every sharing decision is checked
// against the per-view unshared path and a full-recompute oracle.

// fanJoinDef is joinDef with a per-view restriction interval, so the
// fan-out views subsume different slices of r1.
func fanJoinDef(name string, lo, hi int64) Def {
	atoms := []pred.Atom{pred.JoinEq{LRel: 0, LCol: 1, RRel: 1, RCol: 0}}
	if lo > 0 {
		atoms = append(atoms, pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(lo)})
	}
	atoms = append(atoms, pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(hi)})
	return Def{
		Name:       name,
		Kind:       Join,
		Relations:  []string{"r1", "r2"},
		Pred:       pred.New(atoms...),
		Project:    [][]int{{0, 2}, {1}},
		ViewKeyCol: 0,
	}
}

// newFanJoinDatabase builds r1 (B-tree) and r2 (hash) seeded like
// newJoinDatabase, with three views over differing r1 slices.
func newFanJoinDatabase(t testing.TB, gate func() bool, strategy Strategy, n, m int) *Database {
	t.Helper()
	db := NewDatabase(testOpts())
	setShareGate(db, gate)
	t.Cleanup(func() { db.assertUnpinned(t) })
	s1, s2 := joinSchemas()
	if _, err := db.CreateRelationBTree("r1", s1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelationHash("r2", s2, 0, 8); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for j := 0; j < m; j++ {
		if _, err := tx.Insert("r2", tuple.I(int64(j)), tuple.S("info"+sName(j))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := tx.Insert("r1", tuple.I(int64(i)), tuple.I(int64(i%m)), tuple.S("p"+sName(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, d := range []Def{
		fanJoinDef("j0", 0, 100), // unbounded below
		fanJoinDef("j1", 0, 50),
		fanJoinDef("j2", 20, 80),
	} {
		if err := db.CreateView(d, strategy); err != nil {
			t.Fatal(err)
		}
	}
	db.ResetStats()
	return db
}

var fanViews = []string{"j0", "j1", "j2"}

// sameRowsExact compares result sequences positionally — the stored
// view contents must match row for row, not just as multisets.
func sameRowsExact(t *testing.T, label string, got, want []ResultRow) {
	t.Helper()
	if err := diffRowsExact(got, want); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// TestSharedDeltaJoinGroupMatchesUnsharedAndOracle drives the same
// commits through a sharing engine, a non-sharing engine, and a
// recompute-on-demand oracle, checking all three agree after every
// epoch — including an R2-side epoch that exercises the shared union
// scan, and one that changes both sides — that the shared engine
// expanded the delta once per group where the unshared engine paid once
// per view, and that a refresh read each AD file that held changes once
// and no other.
func TestSharedDeltaJoinGroupMatchesUnsharedAndOracle(t *testing.T) {
	shared := newFanJoinDatabase(t, gateModel, Deferred, 60, 10)
	unshared := newFanJoinDatabase(t, gatePrivate, Deferred, 60, 10)
	oracle := newFanJoinDatabase(t, gatePrivate, RecomputeOnDemand, 60, 10)
	all := []*Database{shared, unshared, oracle}

	// Epoch 1: R1-side churn (inserts in and out of the narrower
	// slices, a delete, an update that changes the join value).
	mutate1 := func(db *Database) error {
		tx := db.Begin()
		if _, err := tx.Insert("r1", tuple.I(70), tuple.I(3), tuple.S("new")); err != nil {
			return err
		}
		if _, err := tx.Insert("r1", tuple.I(25), tuple.I(5), tuple.S("new2")); err != nil {
			return err
		}
		if err := tx.Delete("r1", tuple.I(5), 16); err != nil { // r1 ids start at 11
			return err
		}
		if _, err := tx.Update("r1", tuple.I(30), 41, tuple.I(30), tuple.I(9), tuple.S("rejoined")); err != nil {
			return err
		}
		return tx.Commit()
	}
	for _, db := range all {
		if err := mutate1(db); err != nil {
			t.Fatal(err)
		}
	}
	checkAgreement := func(epoch string) {
		t.Helper()
		for _, v := range fanViews {
			want, err := unshared.QueryView(v, nil)
			if err != nil {
				t.Fatalf("%s unshared %s: %v", epoch, v, err)
			}
			got, err := shared.QueryView(v, nil)
			if err != nil {
				t.Fatalf("%s shared %s: %v", epoch, v, err)
			}
			sameRowsExact(t, epoch+" shared-vs-unshared "+v, got, want)
			orc, err := oracle.QueryView(v, nil)
			if err != nil {
				t.Fatalf("%s oracle %s: %v", epoch, v, err)
			}
			sameRows(t, epoch+" shared-vs-oracle "+v, got, orc)
		}
	}

	sharedBefore, unsharedBefore := shared.DeltaScanCount(), unshared.DeltaScanCount()
	// The first QueryView triggers one deferred refresh unit covering
	// all three views in both differential engines.
	checkAgreement("epoch1")
	if got := shared.DeltaScanCount() - sharedBefore; got != 1 {
		t.Errorf("shared engine ran %d delta expansions, want 1 per group", got)
	}
	if got := unshared.DeltaScanCount() - unsharedBefore; got != 3 {
		t.Errorf("unshared engine ran %d delta expansions, want 3 (one per view)", got)
	}
	if got := shared.ADScanCount(); got != 1 {
		t.Errorf("shared engine read %d AD files, want 1 (r1's; r2's is empty)", got)
	}

	// Epoch 2: R2-side churn — forces the R1' scan over the union of
	// the views' intervals in the shared build.
	mutate2 := func(db *Database) error {
		tx := db.Begin()
		if err := tx.Delete("r2", tuple.I(4), 5); err != nil { // r2 ids 1..10
			return err
		}
		if _, err := tx.Update("r2", tuple.I(7), 8, tuple.I(7), tuple.S("updated")); err != nil {
			return err
		}
		return tx.Commit()
	}
	for _, db := range all {
		if err := mutate2(db); err != nil {
			t.Fatal(err)
		}
	}
	sharedBefore, adBefore := shared.DeltaScanCount(), shared.ADScanCount()
	checkAgreement("epoch2")
	if got := shared.DeltaScanCount() - sharedBefore; got != 1 {
		t.Errorf("epoch2: shared engine ran %d delta expansions, want 1", got)
	}
	if got := shared.ADScanCount() - adBefore; got != 1 {
		t.Errorf("epoch2: shared engine read %d AD files, want 1 (r2's; r1's is empty)", got)
	}

	// Epoch 3: both sides change — a new r2 row and an r1 row that joins
	// it, so the refresh reads both AD files.
	mutate3 := func(db *Database) error {
		tx := db.Begin()
		if _, err := tx.Insert("r2", tuple.I(10), tuple.S("info-new")); err != nil {
			return err
		}
		if _, err := tx.Insert("r1", tuple.I(46), tuple.I(10), tuple.S("joins-new")); err != nil {
			return err
		}
		return tx.Commit()
	}
	for _, db := range all {
		if err := mutate3(db); err != nil {
			t.Fatal(err)
		}
	}
	adBefore = shared.ADScanCount()
	checkAgreement("epoch3")
	if got := shared.ADScanCount() - adBefore; got != 2 {
		t.Errorf("epoch3: shared engine read %d AD files, want 2 (r1, r2 once each)", got)
	}
}

// TestSharedDeltaAttributionInvariant asserts the meter contract under
// sharing: every recorded refresh plan's TotalCost equals the meter
// delta recorded with it, the group leader's tree carries the
// SharedDelta build subtree, and every other consumer renders a
// zero-cost SharedDeltaRef naming the leader.
func TestSharedDeltaAttributionInvariant(t *testing.T) {
	db := newFanJoinDatabase(t, gateModel, Deferred, 60, 10)
	var mu sync.Mutex
	type rec struct {
		view string
		root *exec.PlanNode
		diff storage.Stats
	}
	var recs []rec
	db.SetPlanObserver(func(view, path string, root *exec.PlanNode, delta storage.Stats) {
		if path != PlanPathRefresh {
			return
		}
		mu.Lock()
		recs = append(recs, rec{view, root, delta})
		mu.Unlock()
	})
	tx := db.Begin()
	if _, err := tx.Insert("r1", tuple.I(25), tuple.I(5), tuple.S("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("r1", tuple.I(5), 16); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryView("j0", nil); err != nil {
		t.Fatal(err)
	}
	db.SetPlanObserver(nil)

	if len(recs) != 3 {
		t.Fatalf("recorded %d refresh plans, want 3", len(recs))
	}
	render := func(n *exec.PlanNode) string { return exec.Render(n, 1, 30, 1) }
	buildCarriers := 0
	for _, r := range recs {
		if got := r.root.TotalCost(); got != r.diff {
			t.Errorf("%s: tree TotalCost %+v != meter delta %+v\n%s", r.view, got, r.diff, render(r.root))
		}
		s := render(r.root)
		switch {
		case strings.Contains(s, "SharedDelta(join r1.1=r2.0 views=3)"):
			buildCarriers++
			if r.view != "j0" {
				t.Errorf("build charged to %s, want first consumer j0", r.view)
			}
		case strings.Contains(s, "SharedDeltaRef(join r1.1=r2.0 charged-to=j0)"):
		default:
			t.Errorf("%s: plan shows neither build nor reference:\n%s", r.view, s)
		}
	}
	if buildCarriers != 1 {
		t.Errorf("build subtree appears in %d plans, want exactly 1", buildCarriers)
	}

	// The recorded captures survive for Explain.
	plans, err := db.CapturedPlans("j1")
	if err != nil {
		t.Fatal(err)
	}
	if pc := plans[PlanPathRefresh]; pc == nil || !strings.Contains(render(pc.Root), "SharedDeltaRef") {
		t.Error("follower's captured refresh plan lost its SharedDeltaRef node")
	}
}

// TestSharedDeltaSPGroupSharesStream checks the single-relation case:
// select-project and aggregate views over one base share the net-change
// stream (one "delta" fingerprint group) and still agree with an
// unshared engine.
func TestSharedDeltaSPGroupSharesStream(t *testing.T) {
	build := func(gate func() bool) *Database {
		db := NewDatabase(testOpts())
		setShareGate(db, gate)
		t.Cleanup(func() { db.assertUnpinned(t) })
		if _, err := db.CreateRelationBTree("r", spSchema(), 0); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		for i := 0; i < 50; i++ {
			if _, err := tx.Insert("r", tuple.I(int64(i)), tuple.I(int64(i*2)), tuple.S(sName(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		a := spDef("a")
		b := spDef("b")
		b.Pred = pred.New(
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(5)},
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(45)},
		)
		c := spDef("c")
		c.Project = [][]int{{0}}
		for _, d := range []Def{a, b, c} {
			if err := db.CreateView(d, Deferred); err != nil {
				t.Fatal(err)
			}
		}
		db.ResetStats()
		return db
	}
	shared, unshared := build(gateModel), build(gatePrivate)
	mutate := func(db *Database) {
		tx := db.Begin()
		if _, err := tx.Insert("r", tuple.I(15), tuple.I(7), tuple.S("x")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Delete("r", tuple.I(12), 13); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	mutate(shared)
	mutate(unshared)
	for _, v := range []string{"a", "b", "c"} {
		want, err := unshared.QueryView(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := shared.QueryView(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameRowsExact(t, "sp "+v, got, want)
	}
	plans, err := shared.CapturedPlans("a")
	if err != nil {
		t.Fatal(err)
	}
	s := exec.Render(plans[PlanPathRefresh].Root, 1, 30, 1)
	if !strings.Contains(s, "SharedDelta(delta r views=3)") {
		t.Errorf("leader plan missing shared stream node:\n%s", s)
	}
	if shared.ADScanCount() != 1 {
		t.Errorf("AD reads = %d, want 1", shared.ADScanCount())
	}
}

// TestSharedDeltaSingletonKeepsPrivatePlan: a lone join view (group of
// one) must refresh through its private differential plan — sharing
// only composes plans for groups of two or more, which is what keeps
// all pre-existing golden plan trees byte-identical.
func TestSharedDeltaSingletonKeepsPrivatePlan(t *testing.T) {
	db := newJoinDatabase(t, Deferred, 30, 10) // cost-model gate by default
	tx := db.Begin()
	if _, err := tx.Insert("r1", tuple.I(70), tuple.I(3), tuple.S("new")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryView("j", nil); err != nil {
		t.Fatal(err)
	}
	plans, err := db.CapturedPlans("j")
	if err != nil {
		t.Fatal(err)
	}
	s := exec.Render(plans[PlanPathRefresh].Root, 1, 30, 1)
	if strings.Contains(s, "SharedDelta") {
		t.Errorf("singleton refresh took the shared path:\n%s", s)
	}
	if !strings.Contains(s, "refresh-join(j)") {
		t.Errorf("singleton refresh lost its private plan:\n%s", s)
	}
}

// newSharedCatalogPair builds two identical multi-group catalogs:
// nGroups independent relation pairs, each carrying two join views and
// one select-project view (two fingerprint groups per refresh unit),
// plus one commit staling everything.
func newSharedCatalogPair(t testing.TB, nGroups int) (a, b *Database) {
	t.Helper()
	build := func() *Database {
		db := newTestDB(t)
		s1, s2 := joinSchemas()
		r2id4 := make([]uint64, nGroups) // id of each group's r2 tuple jv=4
		for g := 0; g < nGroups; g++ {
			r1 := fmt.Sprintf("r1_%d", g)
			r2 := fmt.Sprintf("r2_%d", g)
			if _, err := db.CreateRelationBTree(r1, s1, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := db.CreateRelationHash(r2, s2, 0, 8); err != nil {
				t.Fatal(err)
			}
			tx := db.Begin()
			for j := 0; j < 8; j++ {
				id, err := tx.Insert(r2, tuple.I(int64(j)), tuple.S("i"+sName(j)))
				if err != nil {
					t.Fatal(err)
				}
				if j == 4 {
					r2id4[g] = id
				}
			}
			for i := 0; i < 40; i++ {
				if _, err := tx.Insert(r1, tuple.I(int64(i)), tuple.I(int64(i%8)), tuple.S("p"+sName(i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			mk := func(name string, lo, hi int64) Def {
				d := fanJoinDef(name, lo, hi)
				d.Relations = []string{r1, r2}
				return d
			}
			for _, d := range []Def{mk(fmt.Sprintf("ja_%d", g), 0, 100), mk(fmt.Sprintf("jb_%d", g), 10, 35)} {
				if err := db.CreateView(d, Deferred); err != nil {
					t.Fatal(err)
				}
			}
			sp := Def{
				Name:      fmt.Sprintf("sp_%d", g),
				Kind:      SelectProject,
				Relations: []string{r1},
				Pred: pred.New(
					pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(5)},
					pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(30)},
				),
				Project:    [][]int{{0, 2}},
				ViewKeyCol: 0,
			}
			if err := db.CreateView(sp, Deferred); err != nil {
				t.Fatal(err)
			}
		}
		// One staling commit per group.
		for g := 0; g < nGroups; g++ {
			r1 := fmt.Sprintf("r1_%d", g)
			r2 := fmt.Sprintf("r2_%d", g)
			tx := db.Begin()
			if _, err := tx.Insert(r1, tuple.I(int64(50+g)), tuple.I(2), tuple.S("n")); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Insert(r1, tuple.I(int64(12)), tuple.I(3), tuple.S("n2")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Delete(r2, tuple.I(4), r2id4[g]); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	return build(), build()
}

// TestRefreshAllSharedParallelMatchesSerial refreshes one catalog with
// four workers and its twin serially, then compares every view exactly.
// Run under -race this also proves the shared-delta path is data-race
// free across concurrent refresh units.
func TestRefreshAllSharedParallelMatchesSerial(t *testing.T) {
	const groups = 6
	par, ser := newSharedCatalogPair(t, groups)
	par.SetMaxRefreshWorkers(4)
	if err := par.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	if err := ser.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < groups; g++ {
		for _, v := range []string{fmt.Sprintf("ja_%d", g), fmt.Sprintf("jb_%d", g), fmt.Sprintf("sp_%d", g)} {
			want, err := ser.QueryView(v, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := par.QueryView(v, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameRowsExact(t, v, got, want)
		}
	}
	// Each unit shared its join group: one expansion per unit, not two.
	if got, want := ser.DeltaScanCount(), int64(groups); got != want {
		t.Errorf("serial delta expansions = %d, want %d (one per unit's join group)", got, want)
	}
	if got, want := par.DeltaScanCount(), int64(groups); got != want {
		t.Errorf("parallel delta expansions = %d, want %d", got, want)
	}
	units := ser.LastRefreshUnits()
	if len(units) != groups {
		t.Fatalf("recorded %d refresh units, want %d", len(units), groups)
	}
	for _, u := range units {
		if len(u.Views) != 1 {
			t.Errorf("deferred unit lists %v, want one representative", u.Views)
		}
		if u.IO.IOs() == 0 {
			t.Errorf("unit %v recorded no I/O", u.Views)
		}
		if u.DeltaScans != 1 {
			t.Errorf("unit %v ran %d delta expansions, want 1", u.Views, u.DeltaScans)
		}
	}
}
