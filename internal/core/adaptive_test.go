package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/wal"
)

// Tests for the adaptive advisor's flip machinery: SetStrategy between
// every strategy pair, the flip error taxonomy, crash recovery at every
// sync boundary of a workload containing flips, flips racing a
// shared-delta RefreshAll, and flips of hierarchy parents with draining
// children. The advisor's decision quality (convergence to the
// analytic oracle) is covered by the root-package phase-shift property
// test; here the claim is narrower and sharper — a flip never loses or
// invents a tuple, never wedges the engine, and never leaks a pinned
// frame.

var allStrategies = []Strategy{QueryModification, Immediate, Deferred, Snapshot, RecomputeOnDemand}

// flipScript is a deterministic mutation mix applied around each flip:
// inserts in and out of the view's [10, 30) range, a delete and an
// update crossing the range boundary. del and upd address seed tuples
// (key k holds id k+1) untouched by other rounds, so two engines
// replaying the same rounds from the same seed stay in lockstep.
func flipScript(db *Database, base, del, upd int64) error {
	tx := db.Begin()
	if _, err := tx.Insert("r", tuple.I(base), tuple.I(base), tuple.S(sName(int(base)))); err != nil {
		return err
	}
	if _, err := tx.Insert("r", tuple.I(base+40), tuple.I(1), tuple.S("out")); err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	tx = db.Begin()
	if err := tx.Delete("r", tuple.I(del), uint64(del+1)); err != nil {
		return err
	}
	if _, err := tx.Update("r", tuple.I(upd), uint64(upd+1), tuple.I(25), tuple.I(3), tuple.S("in")); err != nil {
		return err
	}
	return tx.Commit()
}

func TestSetStrategyAllPairs(t *testing.T) {
	for _, from := range allStrategies {
		for _, to := range allStrategies {
			if from == to {
				continue
			}
			t.Run(fmt.Sprintf("%v-to-%v", from, to), func(t *testing.T) {
				db := newSPDatabase(t, from, 30)
				// Mutations under the old strategy, including pending
				// deferred work the flip must fold, not drop.
				if err := flipScript(db, 11, 4, 7); err != nil {
					t.Fatal(err)
				}
				if err := db.SetStrategy("v", to); err != nil {
					t.Fatalf("flip %v→%v: %v", from, to, err)
				}
				if _, st, ok := db.View("v"); !ok || st != to {
					t.Fatalf("after flip: strategy %v, want %v", st, to)
				}
				// Mutations under the new strategy.
				if err := flipScript(db, 13, 5, 8); err != nil {
					t.Fatal(err)
				}

				// Oracle: the same ops on a query-modification engine,
				// which recomputes from base relations on every read.
				oracle := newSPDatabase(t, QueryModification, 30)
				if err := flipScript(oracle, 11, 4, 7); err != nil {
					t.Fatal(err)
				}
				if err := flipScript(oracle, 13, 5, 8); err != nil {
					t.Fatal(err)
				}
				got, err := db.QueryView("v", nil)
				if err != nil {
					t.Fatalf("query after flip: %v", err)
				}
				want, err := oracle.QueryView("v", nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := diffRows(got, want); err != nil {
					t.Fatalf("flip %v→%v diverges from recompute oracle: %v", from, to, err)
				}
			})
		}
	}
}

func TestSetStrategyErrors(t *testing.T) {
	db := newSPDatabase(t, Deferred, 30)

	if err := db.SetStrategy("nope", Immediate); err == nil {
		t.Error("flip of unknown view succeeded")
	}
	if err := db.SetStrategy("v", Strategy(99)); !errors.Is(err, ErrFlipUnsupported) {
		t.Errorf("flip to unknown strategy: got %v, want ErrFlipUnsupported", err)
	}
	if err := db.SetStrategy("v", Deferred); err != nil {
		t.Errorf("no-op flip must succeed, got %v", err)
	}

	// A view with children cannot abandon its materialization.
	if err := db.CreateView(childSPDef("c", "v", 10, 20), Deferred); err != nil {
		t.Fatal(err)
	}
	if err := db.SetStrategy("v", QueryModification); !errors.Is(err, ErrHasChildren) {
		t.Errorf("parent flip to QM: got %v, want ErrHasChildren", err)
	}

	// The deferred / base-reader conflict rule applies to flips exactly
	// as to CreateView: r already feeds the deferred view v, so a
	// second view on r may not become a base reader.
	if err := db.CreateView(crashFullDef("q", "r", 3), QueryModification); err != nil {
		t.Fatal(err)
	}
	if err := db.SetStrategy("q", Immediate); !errors.Is(err, ErrStrategyConflict) {
		t.Errorf("conflicting flip: got %v, want ErrStrategyConflict", err)
	}
	// The failed flips must leave the catalog untouched.
	for view, want := range map[string]Strategy{"v": Deferred, "c": Deferred, "q": QueryModification} {
		if _, st, ok := db.View(view); !ok || st != want {
			t.Errorf("view %q: strategy %v after failed flips, want %v", view, st, want)
		}
	}
}

func TestAdaptTickRequiresEnable(t *testing.T) {
	db := newSPDatabase(t, Deferred, 30)
	if _, err := db.AdaptTick(); !errors.Is(err, ErrAdaptiveDisabled) {
		t.Fatalf("AdaptTick without EnableAdaptive: got %v, want ErrAdaptiveDisabled", err)
	}
	if err := db.EnableAdaptive(AdvisorOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableAdaptive(AdvisorOptions{}); err == nil {
		t.Fatal("double EnableAdaptive succeeded")
	}
	if _, err := db.AdaptTick(); err != nil {
		t.Fatalf("AdaptTick with no observations: %v", err)
	}
	db.DisableAdaptive()
	if _, err := db.AdaptTick(); !errors.Is(err, ErrAdaptiveDisabled) {
		t.Fatalf("AdaptTick after DisableAdaptive: got %v, want ErrAdaptiveDisabled", err)
	}
}

// TestAdvisorObservesTuplesPerTransaction: a transaction that updates l
// tuples writes 2·l delta tuples (a delete and an insert each), and the
// advisor must measure it as the model's l, not 2·l.
func TestAdvisorObservesTuplesPerTransaction(t *testing.T) {
	const txns, l = 20, 3
	for _, st := range []Strategy{QueryModification, Immediate, Deferred} {
		t.Run(st.String(), func(t *testing.T) {
			db := newSPDatabase(t, st, 30)
			if err := db.EnableAdaptive(AdvisorOptions{MinObservations: 4}); err != nil {
				t.Fatal(err)
			}
			ids := map[int64]uint64{}
			for k := int64(0); k < 30; k++ {
				ids[k] = uint64(k + 1)
			}
			for i := int64(0); i < txns; i++ {
				tx := db.Begin()
				for j := int64(0); j < l; j++ {
					key := (i*l + j) % 30
					id, err := tx.Update("r", tuple.I(key), ids[key], tuple.I(key), tuple.I(i), tuple.S("u"))
					if err != nil {
						t.Fatal(err)
					}
					ids[key] = id
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := db.AdaptTick(); err != nil {
				t.Fatal(err)
			}
			if got := db.AdvisorStats()[0].Params.L; math.Abs(got-l) > 1e-9 {
				t.Errorf("measured l = %v after %d transactions of %d tuples each", got, txns, l)
			}
		})
	}
}

// --- Crash recovery across strategy flips ----------------------------------

// flipCrashSteps is a workload whose interesting steps are SetStrategy
// flips: vflip cycles Deferred → Immediate → QueryModification →
// Deferred with transactions between the flips, qr is the full-range
// query-modification window onto the base relation. Each flip ends in
// a catalog checkpoint (a snapshot-device sync), so the sweep's crash
// points land before, inside and after the flip's durable write.
func flipCrashSteps() []crashStep {
	flip := func(to Strategy) crashStep {
		return crashStep{name: fmt.Sprintf("flip-to-%v", to), run: func(h *crashHarness) error {
			return h.db.SetStrategy("vflip", to)
		}}
	}
	return []crashStep{
		{name: "create-r", run: func(h *crashHarness) error {
			_, err := h.db.CreateRelationBTree("r", spSchema(), 0)
			return err
		}},
		{name: "seed", run: func(h *crashHarness) error {
			tx := h.db.Begin()
			for i := 0; i < 20; i++ {
				id, err := tx.Insert("r", h.rowVals("r", int64(i), int64(i%5))...)
				if err != nil {
					return err
				}
				h.live["r"] = append(h.live["r"], liveRow{key: int64(i), id: id})
			}
			return tx.Commit()
		}},
		{name: "enable-durability", run: func(h *crashHarness) error {
			if h.walDev == nil {
				return nil
			}
			return h.db.EnableDurability(h.walDev, h.snapDev, DurabilityOptions{CheckpointEvery: h.ckptEvery})
		}},
		{name: "create-vflip", run: func(h *crashHarness) error {
			return h.db.CreateView(spDef("vflip"), Deferred)
		}},
		{name: "create-qr", run: func(h *crashHarness) error {
			return h.db.CreateView(crashFullDef("qr", "r", 3), QueryModification)
		}},
		crashTxStep("t1",
			crashOp{op: "ins", rel: "r", key: 25, val: 1},
			crashOp{op: "del", rel: "r", idx: 3}),
		flip(Immediate),
		crashTxStep("t2",
			crashOp{op: "ins", rel: "r", key: 11, val: 2},
			crashOp{op: "upd", rel: "r", idx: 5, key: 22, val: 4}),
		crashQueryStep("q1", "vflip"),
		flip(QueryModification),
		crashTxStep("t3",
			crashOp{op: "del", rel: "r", idx: 0},
			crashOp{op: "ins", rel: "r", key: 13, val: 3}),
		flip(Deferred),
		crashTxStep("t4",
			crashOp{op: "upd", rel: "r", idx: 2, key: 28, val: 6}),
		crashQueryStep("q2", "vflip"),
		crashQueryStep("q3", "qr"),
	}
}

// flipStateDiff compares the recovered engine to an oracle over the
// flip workload's catalog: strategy and full query answer of vflip
// (the flip must be atomic — the catalog is pre-flip or post-flip,
// with contents to match), plus the qr window onto the base relation.
func flipStateDiff(rec, want *Database) error {
	for _, v := range []string{"vflip", "qr"} {
		_, stR, okR := rec.View(v)
		_, stW, okW := want.View(v)
		if okR != okW {
			return fmt.Errorf("view %q: exists=%v recovered, exists=%v oracle", v, okR, okW)
		}
		if !okR {
			continue
		}
		if stR != stW {
			return fmt.Errorf("view %q: strategy %v recovered, %v oracle", v, stR, stW)
		}
		gr, err := rec.QueryView(v, nil)
		if err != nil {
			return fmt.Errorf("view %q: recovered query: %w", v, err)
		}
		gw, err := want.QueryView(v, nil)
		if err != nil {
			return fmt.Errorf("view %q: oracle query: %w", v, err)
		}
		if err := diffRows(gr, gw); err != nil {
			return fmt.Errorf("view %q: %w", v, err)
		}
	}
	return nil
}

// TestFlipCrashRecoverySweep crashes the machine at every sync
// boundary of the flip workload — clean cut and a 7-byte torn tail —
// recovers from the surviving bytes, and requires the recovered state
// to match the acknowledged prefix (or, when the crashing step's own
// checkpoint became durable, prefix+1). A crash inside a flip must
// therefore recover to exactly the pre-flip or post-flip catalog,
// never a strategy whose stored representation is missing or stale.
func TestFlipCrashRecoverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep")
	}
	const ckptEvery = 2
	steps := flipCrashSteps()
	enableIdx := 2 // "enable-durability"

	base := storage.NewCrashPlan(0, 0)
	walDev, snapDev, f, err := runCrashScript(steps, base, ckptEvery)
	if f != len(steps) {
		t.Fatalf("fault-free run failed at step %q: %v", steps[f].name, err)
	}
	total := base.Syncs()
	if total < 10 {
		t.Fatalf("flip workload produced only %d syncs", total)
	}
	oracles := map[int]*Database{}
	rec, _, err := Recover(walDev.DurableDevice(), snapDev.DurableDevice(), DurabilityOptions{CheckpointEvery: ckptEvery})
	if err != nil {
		t.Fatalf("clean-reboot recovery: %v", err)
	}
	if err := flipStateDiff(rec, crashOracle(t, oracles, steps, len(steps))); err != nil {
		t.Fatalf("clean-reboot recovery diverges: %v", err)
	}

	for n := 1; n <= total; n++ {
		for _, torn := range []int{0, 7} {
			plan := storage.NewCrashPlan(n, torn)
			walDev, snapDev, f, runErr := runCrashScript(steps, plan, ckptEvery)
			if f == len(steps) {
				t.Fatalf("sync %d torn %d: workload finished without crashing", n, torn)
			}
			if !errors.Is(runErr, storage.ErrCrashed) {
				t.Fatalf("sync %d torn %d: step %q failed with a non-crash error: %v", n, torn, steps[f].name, runErr)
			}
			rec, info, err := Recover(walDev.DurableDevice(), snapDev.DurableDevice(), DurabilityOptions{CheckpointEvery: ckptEvery})
			if err != nil {
				if f <= enableIdx && errors.Is(err, wal.ErrNoSnapshot) {
					continue
				}
				t.Fatalf("sync %d torn %d (step %q): Recover: %v", n, torn, steps[f].name, err)
			}
			if err := flipStateDiff(rec, crashOracle(t, oracles, steps, f)); err != nil {
				err2 := flipStateDiff(rec, crashOracle(t, oracles, steps, f+1))
				if err2 != nil {
					t.Fatalf("sync %d torn %d, crashed in step %q (replayed %d, skipped %d):\n  vs acknowledged prefix: %v\n  vs prefix+1: %v",
						n, torn, steps[f].name, info.Replayed, info.Skipped, err, err2)
				}
			}
			// The recovered engine must keep working, flips included.
			tx := rec.Begin()
			if _, err := tx.Insert("r", tuple.I(int64(2000+n)), tuple.I(1), tuple.S("post")); err != nil {
				t.Fatalf("sync %d torn %d: post-recovery insert: %v", n, torn, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("sync %d torn %d: post-recovery commit: %v", n, torn, err)
			}
			if _, st, ok := rec.View("vflip"); ok {
				if err := rec.SetStrategy("vflip", Immediate); err != nil && !errors.Is(err, ErrStrategyConflict) {
					t.Fatalf("sync %d torn %d: post-recovery flip from %v: %v", n, torn, st, err)
				}
			}
		}
	}
	t.Logf("swept %d sync boundaries × torn widths [0 7]", total)
}

// --- Flips racing a shared-delta refresh -----------------------------------

// TestFlipDuringSharedDeltaRefresh races SetStrategy against RefreshAll
// over a shared-delta refresh group (share gate forced, 4 workers)
// while the main goroutine commits and queries. The flip boundary is
// the engine write lock, so a flip lands between refresh units, never
// inside one; the test asserts the observable consequence — every
// query answer stays exact, the engine stays usable, and no frame
// leaks — under the race detector when enabled.
func TestFlipDuringSharedDeltaRefresh(t *testing.T) {
	opts := testOpts()
	opts.MaxRefreshWorkers = 4
	db := NewDatabase(opts)
	setShareGate(db, gateForced)
	t.Cleanup(func() { db.assertUnpinned(t) })
	if _, err := db.CreateRelationBTree("r", spSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < 30; i++ {
		if _, err := tx.Insert("r", tuple.I(int64(i)), tuple.I(int64(i*2)), tuple.S(sName(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Two deferred views over r form a shared-delta group; vflip cycles
	// between Deferred (joining the group) and QueryModification
	// (leaving it) while refreshes run.
	for _, name := range []string{"v1", "v2", "vflip"} {
		if err := db.CreateView(spDef(name), Deferred); err != nil {
			t.Fatal(err)
		}
	}

	oracle := newSPDatabase(t, QueryModification, 30)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.RefreshAll(); err != nil {
				errCh <- fmt.Errorf("RefreshAll: %w", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		to := QueryModification
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.SetStrategy("vflip", to); err != nil {
				errCh <- fmt.Errorf("flip to %v: %w", to, err)
				return
			}
			if to == QueryModification {
				to = Deferred
			} else {
				to = QueryModification
			}
		}
	}()

	// Per-engine ids of the seed tuples (key k starts at id k+1);
	// updates replace tuples with fresh ids, so track them.
	ids := map[*Database][]uint64{db: make([]uint64, 30), oracle: make([]uint64, 30)}
	for _, l := range ids {
		for k := range l {
			l[k] = uint64(k + 1)
		}
	}
	for i := 0; i < 40; i++ {
		key := int64(i % 37)
		for _, d := range []*Database{db, oracle} {
			tx := d.Begin()
			if _, err := tx.Insert("r", tuple.I(1000+key), tuple.I(key), tuple.S(sName(int(key)))); err != nil {
				t.Fatal(err)
			}
			uk := key % 30
			id, err := tx.Update("r", tuple.I(uk), ids[d][uk], tuple.I(uk), tuple.I(key), tuple.S("u"))
			if err != nil {
				t.Fatal(err)
			}
			ids[d][uk] = id
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		// All three strategies in play are always-consistent, so every
		// answer must equal the recompute oracle's, mid-race or not.
		for _, v := range []string{"v1", "vflip"} {
			got, err := db.QueryView(v, nil)
			if err != nil {
				t.Fatalf("round %d: query %q: %v", i, v, err)
			}
			want, err := oracle.QueryView("v", nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := diffRows(got, want); err != nil {
				t.Fatalf("round %d: view %q diverged mid-race: %v", i, v, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	// Updates above replaced tuples with fresh ids; the oracle replay
	// used the same deterministic sequence on both engines, so a final
	// RefreshAll and full sweep must still agree.
	if err := db.RefreshAll(); err != nil {
		t.Fatal(err)
	}
}

// --- Hierarchy parents -----------------------------------------------------

// TestHierarchyParentFlipWithDrainingChildren flips a parent view
// between materialized strategies while its children have undrained
// parent-delta-log positions, and verifies the children read exactly
// the rows a fault-free oracle computes — a flip must preserve the
// delta log's continuity or refresh the children before cutting over.
func TestHierarchyParentFlipWithDrainingChildren(t *testing.T) {
	db := newSPDatabase(t, Deferred, 30)
	if err := db.CreateView(childSPDef("c", "v", 12, 26), Deferred); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(childSPDef("cc", "c", 15, 40), Deferred); err != nil {
		t.Fatal(err)
	}

	model := applyHierarchyScript(t, db, 30)
	// Children have not drained the script's deltas yet; flip the
	// parent under them.
	if err := db.SetStrategy("v", Immediate); err != nil {
		t.Fatalf("parent flip Deferred→Immediate with draining children: %v", err)
	}
	for view, bounds := range map[string][][2]int64{
		"c":  {{12, 26}},
		"cc": {{12, 26}, {15, 40}},
	} {
		got, err := db.QueryView(view, nil)
		if err != nil {
			t.Fatalf("child %q after parent flip: %v", view, err)
		}
		if err := diffRows(got, expectSP(model, bounds...)); err != nil {
			t.Fatalf("child %q after parent flip: %v", view, err)
		}
	}

	// More mutations under the flipped parent, then flip back with the
	// children once again holding undrained deltas.
	tx := db.Begin()
	if _, err := tx.Insert("r", tuple.I(14), tuple.I(2), tuple.S("mid")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	model = append(model, hRow{14, "mid"})
	if err := db.SetStrategy("v", Deferred); err != nil {
		t.Fatalf("parent flip back to Deferred: %v", err)
	}
	got, err := db.QueryView("cc", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffRows(got, expectSP(model, [2]int64{12, 26}, [2]int64{15, 40})); err != nil {
		t.Fatalf("grandchild after flip-back: %v", err)
	}
}
