package core

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/wal"
)

// The crash-point sweep: run a fixed workload over all three view
// models with the WAL and snapshot devices on FaultDisks sharing a
// CrashPlan, crash the simulated machine at every single sync
// boundary, recover from the surviving bytes, and require the
// recovered database to answer every view query exactly like a
// fault-free serial replay of the acknowledged prefix — no committed
// transaction lost, none half-applied.
//
// The step granularity makes "acknowledged prefix" precise: a crash
// always surfaces as an error in the step whose sync tripped it, so
// the acknowledged steps are exactly those before the failing one.
// The failing step itself must be atomic: absent (the normal case —
// its record never became durable) or, for DDL steps whose eager
// checkpoint synced the snapshot before the crash, fully present.
// Recovered state is therefore compared against the prefix oracle
// first and the prefix+1 oracle as the only other legal outcome.

var crashSweepFull = flag.Bool("crash-sweep-full", false,
	"sweep extra torn-write widths and checkpoint cadences (slow)")

// crashStep is one step of the scripted workload. Steps close over
// nothing; all run state lives in the harness, so one step list can
// drive the crashing engine and every oracle replay.
type crashStep struct {
	name string
	run  func(h *crashHarness) error
	// unsynced marks a step whose only log write is a refresh record:
	// it rides the next commit's sync, so a power cut before that sync
	// may legally lose the step (the view is then stale, its answers the
	// same).
	unsynced bool
}

// crashHarness carries one run's engine and live-tuple bookkeeping.
// walDev/snapDev are nil for oracle (no-durability) replays.
type crashHarness struct {
	db        *Database
	live      map[string][]liveRow
	walDev    storage.Device
	snapDev   storage.Device
	ckptEvery int
}

// rowVals builds a relation's tuple from the script's (key, val) pair,
// mirroring the property tests' value builders.
func (h *crashHarness) rowVals(rel string, key, val int64) []tuple.Value {
	switch rel {
	case "r":
		return []tuple.Value{tuple.I(key), tuple.I(val), tuple.S(sName(int(val)))}
	case "r1":
		return []tuple.Value{tuple.I(key), tuple.I(val), tuple.S("p" + sName(int(val)))}
	default: // r2
		return []tuple.Value{tuple.I(key), tuple.S("info" + sName(int(val)))}
	}
}

// crashOp is one mutation inside a transaction step.
type crashOp struct {
	op       string // "ins", "del", "upd"
	rel      string
	key, val int64
	idx      int
}

func crashTxStep(name string, ops ...crashOp) crashStep {
	return crashStep{name: name, run: func(h *crashHarness) error {
		tx := h.db.Begin()
		for _, o := range ops {
			l := h.live[o.rel]
			switch o.op {
			case "ins":
				id, err := tx.Insert(o.rel, h.rowVals(o.rel, o.key, o.val)...)
				if err != nil {
					return err
				}
				h.live[o.rel] = append(l, liveRow{key: o.key, id: id})
			case "del":
				if len(l) == 0 {
					continue
				}
				i := o.idx % len(l)
				if err := tx.Delete(o.rel, tuple.I(l[i].key), l[i].id); err != nil {
					return err
				}
				h.live[o.rel] = append(l[:i], l[i+1:]...)
			case "upd":
				if len(l) == 0 {
					continue
				}
				i := o.idx % len(l)
				id, err := tx.Update(o.rel, tuple.I(l[i].key), l[i].id, h.rowVals(o.rel, o.key, o.val)...)
				if err != nil {
					return err
				}
				l[i] = liveRow{key: o.key, id: id}
			}
		}
		return tx.Commit()
	}}
}

func crashQueryStep(name, view string) crashStep {
	return crashStep{name: name, unsynced: true, run: func(h *crashHarness) error {
		_, err := h.db.QueryView(view, nil)
		return err
	}}
}

func crashAggQueryStep(name, view string) crashStep {
	return crashStep{name: name, unsynced: true, run: func(h *crashHarness) error {
		_, _, err := h.db.QueryAggregate(view)
		return err
	}}
}

// crashFullDef is a full-range query-modification view projecting every
// column — the sweep's window onto base-relation contents the
// materialized views' predicates do not cover.
func crashFullDef(name, rel string, cols int) Def {
	proj := make([]int, cols)
	for i := range proj {
		proj[i] = i
	}
	return Def{
		Name:       name,
		Kind:       SelectProject,
		Relations:  []string{rel},
		Pred:       pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(-1 << 40)}),
		Project:    [][]int{proj},
		ViewKeyCol: 0,
	}
}

// crashWorkloadSteps builds the scripted workload. Catalog: vsp and
// vagg are Deferred over r (Model 1 and Model 3), vjoin is an
// Immediate join over r1/r2 (Model 2) — deferred and immediate views
// may not share a base relation, so the models get disjoint bases.
// qr/qr1 are query-modification coverage views over the full key
// range.
func crashWorkloadSteps() []crashStep {
	checkpoint := crashStep{name: "checkpoint", run: func(h *crashHarness) error {
		if h.walDev == nil {
			return nil
		}
		return h.db.Checkpoint()
	}}
	steps := []crashStep{
		{name: "create-r", run: func(h *crashHarness) error {
			_, err := h.db.CreateRelationBTree("r", spSchema(), 0)
			return err
		}},
		{name: "create-r1-r2", run: func(h *crashHarness) error {
			s1, s2 := joinSchemas()
			if _, err := h.db.CreateRelationBTree("r1", s1, 0); err != nil {
				return err
			}
			_, err := h.db.CreateRelationHash("r2", s2, 0, 8)
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
			for j := 0; j < 6; j++ {
				id, err := tx.Insert("r2", h.rowVals("r2", int64(j), int64(j))...)
				if err != nil {
					return err
				}
				h.live["r2"] = append(h.live["r2"], liveRow{key: int64(j), id: id})
			}
			for i := 0; i < 12; i++ {
				id, err := tx.Insert("r1", h.rowVals("r1", int64(i), int64(i%6))...)
				if err != nil {
					return err
				}
				h.live["r1"] = append(h.live["r1"], liveRow{key: int64(i), id: id})
			}
			return tx.Commit()
		}},
		{name: "enable-durability", run: func(h *crashHarness) error {
			if h.walDev == nil {
				return nil
			}
			return h.db.EnableDurability(h.walDev, h.snapDev, DurabilityOptions{CheckpointEvery: h.ckptEvery})
		}},
		{name: "create-vsp", run: func(h *crashHarness) error {
			d := spDef("vsp")
			return h.db.CreateView(d, Deferred)
		}},
		{name: "create-vagg", run: func(h *crashHarness) error {
			return h.db.CreateView(aggDef("vagg", agg.Sum), Deferred)
		}},
		{name: "create-vjoin", run: func(h *crashHarness) error {
			d := joinDef("vjoin")
			return h.db.CreateView(d, Immediate)
		}},
		{name: "create-qr", run: func(h *crashHarness) error {
			return h.db.CreateView(crashFullDef("qr", "r", 3), QueryModification)
		}},
		{name: "create-qr1", run: func(h *crashHarness) error {
			return h.db.CreateView(crashFullDef("qr1", "r1", 3), QueryModification)
		}},

		crashTxStep("t1",
			crashOp{op: "ins", rel: "r", key: 25, val: 1},
			crashOp{op: "ins", rel: "r", key: 99, val: 2}),
		crashQueryStep("q-vsp-1", "vsp"),
		crashTxStep("t2",
			crashOp{op: "del", rel: "r", idx: 3},
			crashOp{op: "upd", rel: "r", idx: 5, key: 22, val: 4}),
		crashAggQueryStep("q-vagg-1", "vagg"),
		crashTxStep("t3",
			crashOp{op: "ins", rel: "r1", key: 40, val: 2},
			crashOp{op: "del", rel: "r1", idx: 1}),
		crashQueryStep("q-vjoin-1", "vjoin"),
		{name: "refresh-deferred-now", unsynced: true, run: func(h *crashHarness) error {
			return h.db.RefreshDeferredNow("vsp")
		}},
		crashTxStep("t4",
			crashOp{op: "ins", rel: "r", key: 11, val: 3},
			crashOp{op: "upd", rel: "r", idx: 2, key: 28, val: 6}),
		checkpoint,
		crashTxStep("t5",
			crashOp{op: "ins", rel: "r2", key: 6, val: 6},
			crashOp{op: "ins", rel: "r1", key: 41, val: 6}),
		crashQueryStep("q-vjoin-2", "vjoin"),
		crashTxStep("t6",
			crashOp{op: "del", rel: "r", idx: 0},
			crashOp{op: "ins", rel: "r", key: 13, val: 4}),
		crashQueryStep("q-vsp-2", "vsp"),
		crashAggQueryStep("q-vagg-2", "vagg"),
		crashQueryStep("q-qr", "qr"),
		crashQueryStep("q-qr1", "qr1"),

		// The tail takes the script across the checkpoint chain: a DDL
		// checkpoint whose delta removes a file (vjoin's stored copy),
		// then enough commits that the deltas since the baseline outweigh
		// the image and the rewrite rule writes a second full frame
		// (runCrashSweep checks both happened).
		{name: "drop-vjoin", run: func(h *crashHarness) error {
			return h.db.DropView("vjoin")
		}},
		crashTxStep("t7",
			crashOp{op: "ins", rel: "r1", key: 42, val: 3},
			crashOp{op: "upd", rel: "r", idx: 4, key: 17, val: 2}),
		crashQueryStep("q-vsp-3", "vsp"),
		crashTxStep("t8",
			crashOp{op: "ins", rel: "r", key: 14, val: 1},
			crashOp{op: "del", rel: "r", idx: 7}),
		crashTxStep("t9",
			crashOp{op: "upd", rel: "r", idx: 1, key: 19, val: 5},
			crashOp{op: "ins", rel: "r2", key: 7, val: 7}),
		crashAggQueryStep("q-vagg-3", "vagg"),
		checkpoint,
		crashTxStep("t10",
			crashOp{op: "ins", rel: "r", key: 21, val: 3},
			crashOp{op: "ins", rel: "r", key: 23, val: 2}),
		crashTxStep("t11",
			crashOp{op: "del", rel: "r", idx: 2},
			crashOp{op: "upd", rel: "r1", idx: 3, key: 43, val: 1}),
		crashQueryStep("q-vsp-4", "vsp"),
		checkpoint,
		crashTxStep("t12",
			crashOp{op: "ins", rel: "r", key: 26, val: 4},
			crashOp{op: "upd", rel: "r", idx: 6, key: 12, val: 6}),
		crashQueryStep("q-qr-2", "qr"),
		// The explicit checkpoints are what lets the deltas outweigh the
		// image when automatic checkpoints are off.
		checkpoint,
		crashQueryStep("q-qr1-2", "qr1"),
	}
	return steps
}

// snapshotFrameKinds lists the kind of every frame ever appended to a
// snapshot device, in order (the store itself only remembers the
// current chain).
func snapshotFrameKinds(t *testing.T, dev storage.Device) []wal.FrameKind {
	t.Helper()
	r, err := wal.NewReader(dev)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []wal.FrameKind
	for {
		payload, err := r.Next()
		if errors.Is(err, io.EOF) {
			return kinds
		}
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, wal.FrameKind(payload[8]))
	}
}

// runCrashScript drives the workload against a durability-enabled
// engine whose devices share plan. Returns the devices, the index of
// the first failing step (len(steps) on a clean run) and its error.
func runCrashScript(steps []crashStep, plan *storage.CrashPlan, ckptEvery int) (walDev, snapDev *storage.FaultDisk, failed int, failErr error) {
	walDev, snapDev = storage.NewFaultDisk(), storage.NewFaultDisk()
	plan.Attach(walDev)
	plan.Attach(snapDev)
	h := &crashHarness{
		db:        NewDatabase(testOpts()),
		live:      map[string][]liveRow{},
		walDev:    walDev,
		snapDev:   snapDev,
		ckptEvery: ckptEvery,
	}
	for i, s := range steps {
		if err := s.run(h); err != nil {
			return walDev, snapDev, i, err
		}
	}
	return walDev, snapDev, len(steps), nil
}

// crashOracle replays the first n steps fault-free with durability off
// and caches the result; oracles are only ever queried afterwards, so
// sharing them across crash points is safe.
func crashOracle(t *testing.T, cache map[int]*Database, steps []crashStep, n int) *Database {
	t.Helper()
	if db, ok := cache[n]; ok {
		return db
	}
	h := &crashHarness{db: NewDatabase(testOpts()), live: map[string][]liveRow{}}
	for i := 0; i < n; i++ {
		if err := steps[i].run(h); err != nil {
			t.Fatalf("oracle replay of step %q: %v", steps[i].name, err)
		}
	}
	cache[n] = h.db
	return h.db
}

// crashOracleImage is Save of a fault-free, durability-off replay of the
// first n steps: what the recovered engine must equal byte for byte.
// It gets its own replay because the query oracles above are refreshed
// (so changed) by the very comparisons they serve.
func crashOracleImage(t *testing.T, cache map[int][]byte, steps []crashStep, n int) []byte {
	t.Helper()
	if img, ok := cache[n]; ok {
		return img
	}
	var buf bytes.Buffer
	if err := crashOracle(t, map[int]*Database{}, steps, n).Save(&buf); err != nil {
		t.Fatalf("saving the %d-step oracle: %v", n, err)
	}
	cache[n] = buf.Bytes()
	return cache[n]
}

// crashStateExact checks the recovered engine is byte-identical to the
// oracle at a legal cut of the script: through the crashing step f
// (its record or checkpoint frame made it), just before it, or — when
// the steps before it wrote only refresh records that were still
// waiting for a sync — before any suffix of those.
func crashStateExact(t *testing.T, rec *Database, images map[int][]byte, steps []crashStep, f int) error {
	t.Helper()
	var got bytes.Buffer
	if err := rec.Save(&got); err != nil {
		return err
	}
	if bytes.Equal(got.Bytes(), crashOracleImage(t, images, steps, f+1)) {
		return nil
	}
	for n := f; ; n-- {
		if bytes.Equal(got.Bytes(), crashOracleImage(t, images, steps, n)) {
			return nil
		}
		if n == 0 || !steps[n-1].unsynced {
			return fmt.Errorf("recovered engine saves %d bytes that match no oracle from step %d to %d", got.Len(), n, f+1)
		}
	}
}

// crashStateDiff compares the logical state visible through every view
// of the workload catalog. View existence must match; where a view
// exists, its full query answer must match.
func crashStateDiff(rec, want *Database) error {
	for _, v := range []string{"vsp", "vjoin", "qr", "qr1"} {
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
	_, _, okR := rec.View("vagg")
	_, _, okW := want.View("vagg")
	if okR != okW {
		return fmt.Errorf("view vagg: exists=%v recovered, exists=%v oracle", okR, okW)
	}
	if okR {
		gr, defR, err := rec.QueryAggregate("vagg")
		if err != nil {
			return fmt.Errorf("vagg: recovered query: %w", err)
		}
		gw, defW, err := want.QueryAggregate("vagg")
		if err != nil {
			return fmt.Errorf("vagg: oracle query: %w", err)
		}
		if defR != defW || (defR && math.Abs(gr-gw) > 1e-9) {
			return fmt.Errorf("vagg: %v (defined=%v) recovered, %v (defined=%v) oracle", gr, defR, gw, defW)
		}
	}
	return nil
}

// checkCrashPoint crashes the machine at the n-th sync with the given
// torn-write width, recovers, and checks the recovered state is the
// acknowledged prefix (or, for an atomically-durable crashing step,
// prefix+1).
func checkCrashPoint(t *testing.T, steps []crashStep, enableIdx, ckptEvery, n, torn int, oracles map[int]*Database, images map[int][]byte) {
	t.Helper()
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
		// The only legal recovery failure is a crash so early that the
		// baseline checkpoint never became durable.
		if f <= enableIdx && errors.Is(err, wal.ErrNoSnapshot) {
			return
		}
		t.Fatalf("sync %d torn %d (step %q): Recover: %v", n, torn, steps[f].name, err)
	}
	// Exact first (the comparison below refreshes the recovered views),
	// then answer by answer as the readable failure mode.
	if err := crashStateExact(t, rec, images, steps, f); err != nil {
		t.Errorf("sync %d torn %d, crashed in step %q (full seq %d + %d deltas, replayed %d, skipped %d, tail %q): %v",
			n, torn, steps[f].name, info.FullSeq, info.Deltas, info.Replayed, info.Skipped, info.TailDamage, err)
	}
	if err := crashStateDiff(rec, crashOracle(t, oracles, steps, f)); err != nil {
		err2 := crashStateDiff(rec, crashOracle(t, oracles, steps, f+1))
		if err2 != nil {
			t.Fatalf("sync %d torn %d, crashed in step %q (replayed %d, skipped %d, tail %q):\n  vs acknowledged prefix: %v\n  vs prefix+1: %v",
				n, torn, steps[f].name, info.Replayed, info.Skipped, info.TailDamage, err, err2)
		}
	}

	// The recovered engine must keep working — and keep logging on the
	// surviving devices.
	tx := rec.Begin()
	if _, err := tx.Insert("r", tuple.I(int64(1000+n)), tuple.I(1), tuple.S("post")); err != nil {
		t.Fatalf("sync %d torn %d: post-recovery insert: %v", n, torn, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("sync %d torn %d: post-recovery commit: %v", n, torn, err)
	}
	if !rec.DurabilityEnabled() {
		t.Fatalf("sync %d torn %d: recovered engine lost its WAL", n, torn)
	}
}

func runCrashSweep(t *testing.T, ckptEvery int, tornWidths []int) {
	t.Helper()
	steps := crashWorkloadSteps()
	enableIdx := -1
	for i, s := range steps {
		if s.name == "enable-durability" {
			enableIdx = i
		}
	}
	if enableIdx < 0 {
		t.Fatal("workload has no enable-durability step")
	}

	// Fault-free baseline: count the sync boundaries and check a plain
	// reboot (no crash at all) recovers the complete workload.
	base := storage.NewCrashPlan(0, 0)
	walDev, snapDev, f, err := runCrashScript(steps, base, ckptEvery)
	if f != len(steps) {
		t.Fatalf("fault-free run failed at step %q: %v", steps[f].name, err)
	}
	total := base.Syncs()
	if total < 15 {
		t.Fatalf("workload produced only %d syncs; the sweep needs a denser schedule", total)
	}
	// The script must cross the whole checkpoint protocol, or the sweep
	// proves less than it claims: the baseline full frame, at least
	// three delta frames, and a full frame written by the rewrite rule.
	kinds := snapshotFrameKinds(t, snapDev.DurableDevice())
	fulls, deltas := 0, 0
	for _, k := range kinds {
		if k == wal.FrameFull {
			fulls++
		} else {
			deltas++
		}
	}
	if kinds[0] != wal.FrameFull || fulls < 2 || deltas < 3 {
		t.Fatalf("workload wrote frames %v: want the baseline full frame, ≥3 deltas and ≥1 rule-triggered full rewrite", kinds)
	}
	oracles, images := map[int]*Database{}, map[int][]byte{}
	rec, _, err := Recover(walDev.DurableDevice(), snapDev.DurableDevice(), DurabilityOptions{CheckpointEvery: ckptEvery})
	if err != nil {
		t.Fatalf("clean-reboot recovery: %v", err)
	}
	if err := crashStateExact(t, rec, images, steps, len(steps)-1); err != nil {
		t.Fatalf("clean-reboot recovery: %v", err)
	}
	if err := crashStateDiff(rec, crashOracle(t, oracles, steps, len(steps))); err != nil {
		t.Fatalf("clean-reboot recovery diverges from the oracle: %v", err)
	}

	for n := 1; n <= total; n++ {
		for _, torn := range tornWidths {
			checkCrashPoint(t, steps, enableIdx, ckptEvery, n, torn, oracles, images)
		}
	}
	t.Logf("swept %d sync boundaries × torn widths %v (checkpoint every %d commits, snapshot frames %v)", total, tornWidths, ckptEvery, kinds)
}

// TestCrashRecoverySweep is the tier-1 sweep: every sync boundary,
// clean power cut and a 7-byte torn tail, one checkpoint cadence.
func TestCrashRecoverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep")
	}
	runCrashSweep(t, 3, []int{0, 7})
}

// TestCrashRecoverySweepFull widens the sweep across checkpoint
// cadences and torn widths up to (but below) a whole WAL frame; run
// with -crash-sweep-full.
func TestCrashRecoverySweepFull(t *testing.T) {
	if !*crashSweepFull {
		t.Skip("pass -crash-sweep-full to run the full sweep")
	}
	for _, ck := range []int{0, 2, 4} {
		ck := ck
		t.Run(fmt.Sprintf("ckpt-every-%d", ck), func(t *testing.T) {
			runCrashSweep(t, ck, []int{0, 1, 3, 7, 8, 15, 64})
		})
	}
}

// runCrashPair runs all but the last two steps serially, then those two
// on goroutines of their own so that their records share one sync: the
// last step commits while the sync the one before it leads is held.
// Besides the devices and the two steps' errors it returns the sync
// count before the pair and, in write order, the unsynced WAL bytes
// ahead of the pair's records (refresh records riding the next sync)
// and the two records' frame lengths.
func runCrashPair(t *testing.T, steps []crashStep, plan *storage.CrashPlan, ckptEvery int) (walDev, snapDev *storage.FaultDisk, prefixSyncs int, pending [3]int64, errs [2]error) {
	t.Helper()
	walDev, snapDev = storage.NewFaultDisk(), storage.NewFaultDisk()
	plan.Attach(walDev)
	plan.Attach(snapDev)
	h := &crashHarness{
		db:        NewDatabase(testOpts()),
		live:      map[string][]liveRow{},
		walDev:    walDev,
		snapDev:   snapDev,
		ckptEvery: ckptEvery,
	}
	n := len(steps) - 2
	for _, s := range steps[:n] {
		if err := s.run(h); err != nil {
			t.Fatalf("step %q: %v", s.name, err)
		}
	}
	prefixSyncs = plan.Syncs()
	size := func(d *storage.FaultDisk) int64 {
		n, err := d.Size()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// The durable size is read before the pair runs: after it, the
	// second commit's checkpoint may already have reset the log.
	start, durable := size(walDev), size(walDev.DurableDevice())
	held, release := walDev.HoldSyncs()
	defer release()
	a := make(chan error, 1)
	go func() { a <- steps[n].run(h) }()
	<-held
	mid := size(walDev)
	b := make(chan error, 1)
	go func() { b <- steps[n+1].run(h) }()
	waitFor(t, "the second commit's append", func() bool { return size(walDev) > mid })
	end := size(walDev)
	release()
	pending = [3]int64{start - durable, mid - start, end - mid}
	return walDev, snapDev, prefixSyncs, pending, [2]error{<-a, <-b}
}

// TestCrashRecoveryGroupCommit is the sweep's group-commit row: two
// commits whose records share one sync, and a power cut during that
// sync that keeps the first record whole and tears the second at each
// byte. Neither commit was acknowledged, so recovery must give the
// acknowledged prefix or prefix + 1, the sweep's legality rule. The
// second commit crosses CheckpointEvery, so its frame, encoded before
// the crash, is in flight when the crash comes.
func TestCrashRecoveryGroupCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep")
	}
	const ckptEvery = 3
	all := crashWorkloadSteps()
	at := map[string]int{}
	for i, s := range all {
		at[s.name] = i
	}
	// t2 and t3 are the second and third commits after the last DDL
	// checkpoint; q-vsp-1 before t2 leaves a refresh record unsynced.
	steps := append(all[:at["t2"]:at["t2"]], all[at["t2"]], all[at["t3"]])
	f := len(steps) - 2

	_, _, prefixSyncs, pending, errs := runCrashPair(t, steps, storage.NewCrashPlan(0, 0), ckptEvery)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("fault-free pair: %v, %v", errs[0], errs[1])
	}
	if pending[1] == 0 || pending[2] == 0 {
		t.Fatalf("pair records of %d and %d bytes", pending[1], pending[2])
	}
	oracles, images := map[int]*Database{}, map[int][]byte{}
	for k := int64(0); k < pending[2]; k++ {
		torn := pending[0] + pending[1] + k
		walDev, snapDev, _, _, errs := runCrashPair(t, steps, storage.NewCrashPlan(prefixSyncs+1, int(torn)), ckptEvery)
		for i, err := range errs {
			if !errors.Is(err, storage.ErrCrashed) {
				t.Fatalf("torn %d: commit %q returned %v, want a crash", torn, steps[f+i].name, err)
			}
		}
		rec, info, err := Recover(walDev.DurableDevice(), snapDev.DurableDevice(), DurabilityOptions{CheckpointEvery: ckptEvery})
		if err != nil {
			t.Fatalf("torn %d: Recover: %v", torn, err)
		}
		if err := crashStateExact(t, rec, images, steps, f); err != nil {
			t.Errorf("torn %d (replayed %d, skipped %d, tail %q): %v", torn, info.Replayed, info.Skipped, info.TailDamage, err)
		}
		if err := crashStateDiff(rec, crashOracle(t, oracles, steps, f)); err != nil {
			if err2 := crashStateDiff(rec, crashOracle(t, oracles, steps, f+1)); err2 != nil {
				t.Fatalf("torn %d:\n  vs acknowledged prefix: %v\n  vs prefix+1: %v", torn, err, err2)
			}
		}
	}
	t.Logf("tore the second of two %d- and %d-byte records sharing sync %d at each byte", pending[1], pending[2], prefixSyncs+1)
}
