package viewmat_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"viewmat"
)

func TestAdviseUnknownViewKind(t *testing.T) {
	cases := []struct {
		name    string
		kind    viewmat.ViewKind
		wantErr bool
	}{
		{"select-project", viewmat.SelectProject, false},
		{"join", viewmat.Join, false},
		{"aggregate", viewmat.Aggregate, false},
		{"grouped-aggregate", viewmat.GroupedAggregate, true}, // no analytic model for the extension
		{"out-of-range", viewmat.ViewKind(99), true},
		{"negative", viewmat.ViewKind(-1), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := viewmat.Advise(tc.kind, viewmat.DefaultParams())
			if tc.wantErr {
				if !errors.Is(err, viewmat.ErrUnknownViewKind) {
					t.Fatalf("Advise(%v) error = %v, want ErrUnknownViewKind", tc.kind, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Advise(%v): %v", tc.kind, err)
			}
			if rec.Best == "" || len(rec.Costs) == 0 {
				t.Fatalf("Advise(%v) returned empty recommendation: %+v", tc.kind, rec)
			}
		})
	}

	// Invalid params must surface the validation error, not the
	// unknown-kind one.
	bad := viewmat.DefaultParams()
	bad.N = 0
	if _, err := viewmat.Advise(viewmat.SelectProject, bad); err == nil || errors.Is(err, viewmat.ErrUnknownViewKind) {
		t.Fatalf("Advise with invalid params: err = %v, want validation error", err)
	}
}

// The facade's half of the phase-shift property. The lockstep rows in
// internal/core (TestLockstepAdaptive) prove every flip safe and every
// resting strategy right; what only this package can check is that its
// offline oracle and the live advisor are one pricing path. Driven
// through the public API into a query-heavy phase, the engine must leave
// query modification, and Advise — fed the parameters the advisor itself
// measured — must price the maintenance strategies to the bit as the
// advisor's last tick did and name the same winner.
func testAdaptivePhaseShift(t *testing.T, kind viewmat.ViewKind) {
	if testing.Short() {
		t.Skip("property test")
	}
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			// r(k, a, s) with 150 rows — for a join, against the ten rows
			// of r2(a, info) — under a view over keys [10, 60).
			db := viewmat.Open(viewmat.Options{PageSize: 512, PoolFrames: 64})
			_, err := db.CreateRelationBTree("r", viewmat.NewSchema(
				viewmat.Col("k", viewmat.Int), viewmat.Col("a", viewmat.Int), viewmat.Col("s", viewmat.String)), 0)
			must(err)
			def := viewmat.Def{Name: "v", Kind: kind, Relations: []string{"r"},
				Pred: viewmat.Where(viewmat.ColRange(0, 0, viewmat.I(10), viewmat.I(60))...)}
			tx := db.Begin()
			switch kind {
			case viewmat.Join:
				_, err := db.CreateRelationHash("r2", viewmat.NewSchema(
					viewmat.Col("a", viewmat.Int), viewmat.Col("info", viewmat.String)), 0, 8)
				must(err)
				for j := int64(0); j < 10; j++ {
					_, err := tx.Insert("r2", viewmat.I(j), viewmat.S("info"))
					must(err)
				}
				def.Relations = []string{"r", "r2"}
				def.Pred = def.Pred.And(viewmat.JoinEq{LRel: 0, LCol: 1, RRel: 1, RCol: 0})
				def.Project = [][]int{{0, 2}, {1}}
			case viewmat.Aggregate:
				def.AggKind, def.AggCol = viewmat.Sum, 1
			default:
				def.Project = [][]int{{0, 2}}
			}
			for i := int64(0); i < 150; i++ {
				_, err := tx.Insert("r", viewmat.I(i), viewmat.I(i%10), viewmat.S("s"))
				must(err)
			}
			must(tx.Commit())
			must(db.CreateView(def, viewmat.QueryModification))
			must(db.EnableAdaptive(viewmat.AdvisorOptions{Hysteresis: 0.05, MinObservations: 8, HalfLife: 24}))

			// Query-heavy: a two-tuple transaction every fifth round, six
			// full reads and an advisor tick every round.
			rng := rand.New(rand.NewSource(seed))
			for round := 0; round < 30; round++ {
				if round%5 == 0 {
					tx := db.Begin()
					for _, k := range []int64{10 + rng.Int63n(50), rng.Int63n(150)} { // one in the view, one anywhere
						_, err := tx.Insert("r", viewmat.I(k), viewmat.I(rng.Int63n(10)), viewmat.S("s"))
						must(err)
					}
					must(tx.Commit())
				}
				for q := 0; q < 6; q++ {
					if kind == viewmat.Aggregate {
						_, _, err = db.QueryAggregate("v")
					} else {
						_, err = db.QueryView("v", nil)
					}
					must(err)
				}
				_, err := db.AdaptTick()
				must(err)
			}

			stats := db.AdvisorStats()
			if len(stats) != 1 {
				t.Fatalf("AdvisorStats returned %d views", len(stats))
			}
			st := stats[0]
			if st.Strategy == viewmat.QueryModification.String() {
				t.Errorf("still query modification after a query-heavy phase (costs %v)", st.Costs)
			}
			rec, err := viewmat.Advise(kind, st.Params)
			must(err)
			for _, s := range []string{"immediate", "deferred"} {
				if rec.Costs[s] != st.Costs[s] {
					t.Errorf("%s: Advise prices %v, the advisor priced %v", s, rec.Costs[s], st.Costs[s])
				}
			}
			if got := viewmat.StrategyFor(rec).String(); got != st.Best {
				t.Errorf("Advise names %s (%s), the advisor's tables named %s", rec.Best, got, st.Best)
			}
		})
	}
}

func TestAdaptivePhaseShiftModel1(t *testing.T) { testAdaptivePhaseShift(t, viewmat.SelectProject) }
func TestAdaptivePhaseShiftModel2(t *testing.T) { testAdaptivePhaseShift(t, viewmat.Join) }
func TestAdaptivePhaseShiftModel3(t *testing.T) { testAdaptivePhaseShift(t, viewmat.Aggregate) }
