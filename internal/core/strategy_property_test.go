package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
)

// Cross-strategy property tests: random workloads over the paper's
// three models, executed against every maintenance strategy in
// lockstep. At every query point all strategies must report identical
// view contents — the paper's entire comparison rests on the
// strategies being observationally equivalent, differing only in cost.
// On a mismatch the failing workload is shrunk to a minimal script
// (greedy step removal, re-running the property after each removal)
// and printed, so the reproduction is a handful of lines rather than a
// seed.

// propStep is one step of a workload script. Steps are self-contained
// and deterministic, so a script replays identically however often the
// shrinker re-runs it: inserts carry their values, deletes and updates
// pick a victim by index into the current live-tuple list.
type propStep struct {
	op  string // "ins", "del", "upd", "query"
	key int64
	val int64
	idx int
}

func (s propStep) String() string {
	switch s.op {
	case "ins":
		return fmt.Sprintf("ins key=%d val=%d", s.key, s.val)
	case "del":
		return fmt.Sprintf("del idx=%d", s.idx)
	case "upd":
		return fmt.Sprintf("upd idx=%d key=%d val=%d", s.idx, s.key, s.val)
	default:
		return "query"
	}
}

func formatScript(steps []propStep) string {
	lines := make([]string, len(steps))
	for i, s := range steps {
		lines[i] = fmt.Sprintf("  %2d: %s", i, s)
	}
	return strings.Join(lines, "\n")
}

// diffRows is sameRows as an error, so the shrinker can probe a
// candidate script without failing the test.
func diffRows(a, b []ResultRow) error {
	ka, kb := rowKeys(a), rowKeys(b)
	if len(ka) != len(kb) {
		return fmt.Errorf("%d vs %d rows", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Errorf("row %d differs: %q vs %q", i, ka[i], kb[i])
		}
	}
	return nil
}

// shrinkScript greedily removes steps while the script still fails,
// restarting after each successful removal until no single step can be
// dropped.
func shrinkScript(steps []propStep, fails func([]propStep) bool) []propStep {
	out := append([]propStep(nil), steps...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(out); i++ {
			cand := make([]propStep, 0, len(out)-1)
			cand = append(cand, out[:i]...)
			cand = append(cand, out[i+1:]...)
			if fails(cand) {
				out = cand
				changed = true
				break
			}
		}
	}
	return out
}

// genScript draws a random workload: rounds of 1–3 mutations, each
// round followed by a query point.
func genScript(rng *rand.Rand, rounds int, keySpace int64) []propStep {
	var steps []propStep
	for r := 0; r < rounds; r++ {
		for i := 0; i < rng.Intn(3)+1; i++ {
			switch rng.Intn(3) {
			case 0:
				steps = append(steps, propStep{op: "ins", key: rng.Int63n(keySpace), val: rng.Int63n(50)})
			case 1:
				steps = append(steps, propStep{op: "del", idx: rng.Intn(1 << 20)})
			case 2:
				steps = append(steps, propStep{op: "upd", idx: rng.Intn(1 << 20), key: rng.Int63n(keySpace), val: rng.Int63n(50)})
			}
		}
		steps = append(steps, propStep{op: "query"})
	}
	return steps
}

type liveRow struct {
	key int64
	id  uint64
}

// applyStep runs one mutation step in its own transaction against db,
// keeping that db's live-tuple list in sync. ins3 builds the inserted
// values from (key, val) so each model controls its schema.
func applyStep(db *Database, live []liveRow, s propStep, rel string,
	vals func(key, val int64) []tuple.Value) ([]liveRow, error) {
	tx := db.Begin()
	switch s.op {
	case "ins":
		id, err := tx.Insert(rel, vals(s.key, s.val)...)
		if err != nil {
			return live, err
		}
		live = append(live, liveRow{key: s.key, id: id})
	case "del":
		if len(live) == 0 {
			return live, nil
		}
		i := s.idx % len(live)
		if err := tx.Delete(rel, tuple.I(live[i].key), live[i].id); err != nil {
			return live, err
		}
		live = append(live[:i], live[i+1:]...)
	case "upd":
		if len(live) == 0 {
			return live, nil
		}
		i := s.idx % len(live)
		id, err := tx.Update(rel, tuple.I(live[i].key), live[i].id, vals(s.key, s.val)...)
		if err != nil {
			return live, err
		}
		live[i] = liveRow{key: s.key, id: id}
	}
	return live, tx.Commit()
}

// --- Model 1: select-project views ----------------------------------------

func buildSPDB(st Strategy, n int) (*Database, error) {
	return buildSPDBOn(NewDatabase(testOpts()), st, n)
}

func buildSPDBOn(db *Database, st Strategy, n int) (*Database, error) {
	if _, err := db.CreateRelationBTree("r", spSchema(), 0); err != nil {
		return nil, err
	}
	tx := db.Begin()
	for i := 0; i < n; i++ {
		if _, err := tx.Insert("r", tuple.I(int64(i)), tuple.I(int64(i*2)), tuple.S(sName(i))); err != nil {
			return nil, err
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	if err := db.CreateView(spDef("v"), st); err != nil {
		return nil, err
	}
	if st == Snapshot {
		// Zero staleness budget: the snapshot refreshes at the first
		// query after any commit, making it comparable to the
		// always-consistent strategies.
		if err := db.SetSnapshotInterval("v", 0); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func runModel1(steps []propStep) error {
	strategies := []Strategy{QueryModification, Immediate, Deferred, Snapshot, RecomputeOnDemand}
	dbs := make([]*Database, len(strategies))
	lives := make([][]liveRow, len(strategies))
	for i, st := range strategies {
		db, err := buildSPDB(st, 30)
		if err != nil {
			return fmt.Errorf("setup %v: %w", st, err)
		}
		dbs[i] = db
		for k := 0; k < 30; k++ {
			lives[i] = append(lives[i], liveRow{key: int64(k), id: uint64(k + 1)})
		}
	}
	vals := func(key, val int64) []tuple.Value {
		return []tuple.Value{tuple.I(key), tuple.I(val), tuple.S(sName(int(val)))}
	}
	for _, s := range steps {
		if s.op == "query" {
			want, err := dbs[0].QueryView("v", nil)
			if err != nil {
				return err
			}
			for i := 1; i < len(strategies); i++ {
				got, err := dbs[i].QueryView("v", nil)
				if err != nil {
					return fmt.Errorf("%v: %w", strategies[i], err)
				}
				if err := diffRows(got, want); err != nil {
					return fmt.Errorf("%v vs %v: %w", strategies[i], strategies[0], err)
				}
			}
			continue
		}
		for i := range dbs {
			var err error
			lives[i], err = applyStep(dbs[i], lives[i], s, "r", vals)
			if err != nil {
				return fmt.Errorf("%v: %w", strategies[i], err)
			}
		}
	}
	return nil
}

func TestPropertyModel1StrategiesEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 500))
		steps := genScript(rng, 5, 40)
		if err := runModel1(steps); err != nil {
			min := shrinkScript(steps, func(s []propStep) bool { return runModel1(s) != nil })
			t.Fatalf("seed %d: %v\nminimal workload script:\n%s", seed, runModel1(min), formatScript(min))
		}
	}
}

// --- Model 2: join views (updates on R1 only, the paper's shape) ----------

func buildJoinDB(st Strategy, blakeley bool, n, m int) (*Database, error) {
	return buildJoinDBOn(NewDatabase(testOpts()), st, blakeley, n, m)
}

func buildJoinDBOn(db *Database, st Strategy, blakeley bool, n, m int) (*Database, error) {
	s1, s2 := joinSchemas()
	if _, err := db.CreateRelationBTree("r1", s1, 0); err != nil {
		return nil, err
	}
	if _, err := db.CreateRelationHash("r2", s2, 0, 8); err != nil {
		return nil, err
	}
	tx := db.Begin()
	for j := 0; j < m; j++ {
		if _, err := tx.Insert("r2", tuple.I(int64(j)), tuple.S("info"+sName(j))); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		if _, err := tx.Insert("r1", tuple.I(int64(i)), tuple.I(int64(i%m)), tuple.S("p"+sName(i))); err != nil {
			return nil, err
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	if err := db.CreateView(joinDef("j"), st); err != nil {
		return nil, err
	}
	if blakeley {
		if err := db.SetJoinVariantBlakeley("j", true); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// runModel2 drives updates on R1 only. With R2 untouched the A2/D2
// delta terms are empty, which is exactly the regime where Blakeley's
// original expansion and the corrected §2.1 expansion coincide — so
// the Blakeley variant participates as a fourth equal strategy here,
// while the Appendix A anomaly (R2-side deletes) is covered by its own
// dedicated test.
func runModel2(steps []propStep) error {
	const n, m = 30, 8
	type member struct {
		st       Strategy
		blakeley bool
		name     string
	}
	members := []member{
		{QueryModification, false, "qm"},
		{Immediate, false, "immediate"},
		{Deferred, false, "deferred"},
		{Deferred, true, "deferred-blakeley"},
	}
	dbs := make([]*Database, len(members))
	lives := make([][]liveRow, len(members))
	for i, mb := range members {
		db, err := buildJoinDB(mb.st, mb.blakeley, n, m)
		if err != nil {
			return fmt.Errorf("setup %s: %w", mb.name, err)
		}
		dbs[i] = db
		for k := 0; k < n; k++ {
			lives[i] = append(lives[i], liveRow{key: int64(k), id: uint64(m + k + 1)})
		}
	}
	vals := func(key, val int64) []tuple.Value {
		return []tuple.Value{tuple.I(key), tuple.I(val % m), tuple.S("p" + sName(int(val)))}
	}
	for _, s := range steps {
		if s.op == "query" {
			want, err := dbs[0].QueryView("j", nil)
			if err != nil {
				return err
			}
			for i := 1; i < len(members); i++ {
				got, err := dbs[i].QueryView("j", nil)
				if err != nil {
					return fmt.Errorf("%s: %w", members[i].name, err)
				}
				if err := diffRows(got, want); err != nil {
					return fmt.Errorf("%s vs qm: %w", members[i].name, err)
				}
			}
			continue
		}
		for i := range dbs {
			var err error
			lives[i], err = applyStep(dbs[i], lives[i], s, "r1", vals)
			if err != nil {
				return fmt.Errorf("%s: %w", members[i].name, err)
			}
		}
	}
	return nil
}

func TestPropertyModel2StrategiesEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 900))
		steps := genScript(rng, 5, 90)
		if err := runModel2(steps); err != nil {
			min := shrinkScript(steps, func(s []propStep) bool { return runModel2(s) != nil })
			t.Fatalf("seed %d: %v\nminimal workload script:\n%s", seed, runModel2(min), formatScript(min))
		}
	}
}

// --- Model 3: aggregate views ---------------------------------------------

func buildAggDB(st Strategy, kind agg.Kind, n int) (*Database, error) {
	return buildAggDBOn(NewDatabase(testOpts()), st, kind, n)
}

func buildAggDBOn(db *Database, st Strategy, kind agg.Kind, n int) (*Database, error) {
	if _, err := db.CreateRelationBTree("r", spSchema(), 0); err != nil {
		return nil, err
	}
	tx := db.Begin()
	for i := 0; i < n; i++ {
		if _, err := tx.Insert("r", tuple.I(int64(i)), tuple.I(int64(i*2)), tuple.S(sName(i))); err != nil {
			return nil, err
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	if err := db.CreateView(aggDef("sumv", kind), st); err != nil {
		return nil, err
	}
	return db, nil
}

func runModel3(kind agg.Kind, steps []propStep) error {
	strategies := []Strategy{QueryModification, Immediate, Deferred}
	dbs := make([]*Database, len(strategies))
	lives := make([][]liveRow, len(strategies))
	for i, st := range strategies {
		db, err := buildAggDB(st, kind, 30)
		if err != nil {
			return fmt.Errorf("setup %v: %w", st, err)
		}
		dbs[i] = db
		for k := 0; k < 30; k++ {
			lives[i] = append(lives[i], liveRow{key: int64(k), id: uint64(k + 1)})
		}
	}
	vals := func(key, val int64) []tuple.Value {
		return []tuple.Value{tuple.I(key), tuple.I(val), tuple.S(sName(int(val)))}
	}
	for _, s := range steps {
		if s.op == "query" {
			want, wantOK, err := dbs[0].QueryAggregate("sumv")
			if err != nil {
				return err
			}
			for i := 1; i < len(strategies); i++ {
				got, ok, err := dbs[i].QueryAggregate("sumv")
				if err != nil {
					return fmt.Errorf("%v: %w", strategies[i], err)
				}
				if ok != wantOK {
					return fmt.Errorf("%v: defined=%v, qm says %v", strategies[i], ok, wantOK)
				}
				if wantOK && math.Abs(got-want) > 1e-9 {
					return fmt.Errorf("%v: %v, qm says %v", strategies[i], got, want)
				}
			}
			continue
		}
		for i := range dbs {
			var err error
			lives[i], err = applyStep(dbs[i], lives[i], s, "r", vals)
			if err != nil {
				return fmt.Errorf("%v: %w", strategies[i], err)
			}
		}
	}
	return nil
}

func TestPropertyModel3StrategiesEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	for _, kind := range []agg.Kind{agg.Count, agg.Sum, agg.Avg, agg.Min, agg.Max} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(seed + 1300))
				steps := genScript(rng, 4, 40)
				if err := runModel3(kind, steps); err != nil {
					min := shrinkScript(steps, func(s []propStep) bool { return runModel3(kind, s) != nil })
					t.Fatalf("seed %d: %v\nminimal workload script:\n%s", seed, runModel3(kind, min), formatScript(min))
				}
			}
		})
	}
}

// --- shared-delta refresh property layer -----------------------------------
//
// For each model, three engines replay the same random script over a
// fan of K=3 views with differing predicates on a shared base:
//
//	sharing  — Deferred views, share gate forced: every query point
//	           runs RefreshAll through the shared-delta path,
//	unshared — Deferred views, share gate private: the per-view private
//	           differential plans,
//	oracle   — RecomputeOnDemand views: full recompute from the base
//	           files, no differential algebra at all.
//
// At every query point the sharing engine must match the unshared
// engine row for row (the stored views are byte-identical, not merely
// equal as multisets) and the oracle as a multiset. Failures shrink to
// a minimal script like the strategy properties above.

// diffRowsExact is diffRows without the sort: positional, so it proves
// the stored view files are identical, not just equal contents.
func diffRowsExact(a, b []ResultRow) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d rows", len(a), len(b))
	}
	for i := range a {
		ka := tuple.Tuple{Vals: a[i].Vals}.ValueKey()
		kb := tuple.Tuple{Vals: b[i].Vals}.ValueKey()
		if ka != kb {
			return fmt.Errorf("row %d differs: %q vs %q", i, ka, kb)
		}
	}
	return nil
}

// sharedPropViews returns the K=3 view definitions for one model.
func sharedPropViews(model int) []Def {
	switch model {
	case 1:
		a := spDef("a")
		b := spDef("b")
		b.Pred = pred.New(
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(5)},
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(45)},
		)
		c := spDef("c")
		c.Pred = pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(60)})
		c.Project = [][]int{{0}}
		return []Def{a, b, c}
	case 2:
		return []Def{fanJoinDef("j0", 0, 100), fanJoinDef("j1", 0, 50), fanJoinDef("j2", 20, 80)}
	default:
		a := aggDef("a0", agg.Sum)
		b := aggDef("a1", agg.Min)
		b.Pred = pred.New(
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(5)},
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(45)},
		)
		c := aggDef("a2", agg.Count)
		c.Pred = pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(60)})
		return []Def{a, b, c}
	}
}

// buildSharedPropDB seeds the model's base relation(s) and creates the
// view fan under the given strategy and sharing mode.
func buildSharedPropDB(model int, gate func() bool, st Strategy) (*Database, []liveRow, error) {
	db := NewDatabase(testOpts())
	setShareGate(db, gate)
	var live []liveRow
	if model == 2 {
		const n, m = 30, 8
		s1, s2 := joinSchemas()
		if _, err := db.CreateRelationBTree("r1", s1, 0); err != nil {
			return nil, nil, err
		}
		if _, err := db.CreateRelationHash("r2", s2, 0, 8); err != nil {
			return nil, nil, err
		}
		tx := db.Begin()
		for j := 0; j < m; j++ {
			if _, err := tx.Insert("r2", tuple.I(int64(j)), tuple.S("info"+sName(j))); err != nil {
				return nil, nil, err
			}
		}
		for i := 0; i < n; i++ {
			if _, err := tx.Insert("r1", tuple.I(int64(i)), tuple.I(int64(i%m)), tuple.S("p"+sName(i))); err != nil {
				return nil, nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, nil, err
		}
		for k := 0; k < n; k++ {
			live = append(live, liveRow{key: int64(k), id: uint64(m + k + 1)})
		}
	} else {
		if _, err := db.CreateRelationBTree("r", spSchema(), 0); err != nil {
			return nil, nil, err
		}
		tx := db.Begin()
		for i := 0; i < 30; i++ {
			if _, err := tx.Insert("r", tuple.I(int64(i)), tuple.I(int64(i*2)), tuple.S(sName(i))); err != nil {
				return nil, nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, nil, err
		}
		for k := 0; k < 30; k++ {
			live = append(live, liveRow{key: int64(k), id: uint64(k + 1)})
		}
	}
	for _, d := range sharedPropViews(model) {
		if err := db.CreateView(d, st); err != nil {
			return nil, nil, err
		}
	}
	return db, live, nil
}

// runSharedModel replays one script through the three engines.
func runSharedModel(model int, steps []propStep) error {
	type engine struct {
		name string
		db   *Database
		live []liveRow
	}
	specs := []struct {
		name string
		gate func() bool
		st   Strategy
	}{
		{"sharing", gateForced, Deferred},
		{"unshared", gatePrivate, Deferred},
		{"oracle", gatePrivate, RecomputeOnDemand},
	}
	engines := make([]engine, len(specs))
	for i, sp := range specs {
		db, live, err := buildSharedPropDB(model, sp.gate, sp.st)
		if err != nil {
			return fmt.Errorf("setup %s: %w", sp.name, err)
		}
		engines[i] = engine{name: sp.name, db: db, live: live}
	}
	rel := "r"
	vals := func(key, val int64) []tuple.Value {
		return []tuple.Value{tuple.I(key), tuple.I(val), tuple.S(sName(int(val)))}
	}
	if model == 2 {
		rel = "r1"
		vals = func(key, val int64) []tuple.Value {
			return []tuple.Value{tuple.I(key), tuple.I(val % 8), tuple.S("p" + sName(int(val)))}
		}
	}
	viewNames := make([]string, 0, 3)
	for _, d := range sharedPropViews(model) {
		viewNames = append(viewNames, d.Name)
	}
	for _, s := range steps {
		if s.op != "query" {
			for i := range engines {
				var err error
				engines[i].live, err = applyStep(engines[i].db, engines[i].live, s, rel, vals)
				if err != nil {
					return fmt.Errorf("%s: %w", engines[i].name, err)
				}
			}
			continue
		}
		for i := range engines {
			if err := engines[i].db.RefreshAll(); err != nil {
				return fmt.Errorf("%s: RefreshAll: %w", engines[i].name, err)
			}
		}
		for _, v := range viewNames {
			if model == 3 {
				want, wantOK, err := engines[0].db.QueryAggregate(v)
				if err != nil {
					return fmt.Errorf("sharing %s: %w", v, err)
				}
				for _, e := range engines[1:] {
					got, ok, err := e.db.QueryAggregate(v)
					if err != nil {
						return fmt.Errorf("%s %s: %w", e.name, v, err)
					}
					if ok != wantOK {
						return fmt.Errorf("%s %s: defined=%v, sharing says %v", e.name, v, ok, wantOK)
					}
					if wantOK && math.Abs(got-want) > 1e-9 {
						return fmt.Errorf("%s %s: %v, sharing says %v", e.name, v, got, want)
					}
				}
				continue
			}
			got, err := engines[0].db.QueryView(v, nil)
			if err != nil {
				return fmt.Errorf("sharing %s: %w", v, err)
			}
			unsh, err := engines[1].db.QueryView(v, nil)
			if err != nil {
				return fmt.Errorf("unshared %s: %w", v, err)
			}
			if err := diffRowsExact(got, unsh); err != nil {
				return fmt.Errorf("sharing vs unshared %s: %w", v, err)
			}
			orc, err := engines[2].db.QueryView(v, nil)
			if err != nil {
				return fmt.Errorf("oracle %s: %w", v, err)
			}
			if err := diffRows(got, orc); err != nil {
				return fmt.Errorf("sharing vs oracle %s: %w", v, err)
			}
		}
	}
	return nil
}

func TestPropertySharedDeltaEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	for model := 1; model <= 3; model++ {
		model := model
		t.Run(fmt.Sprintf("model%d", model), func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed + 2100))
				keySpace := int64(40)
				if model == 2 {
					keySpace = 90
				}
				steps := genScript(rng, 5, keySpace)
				if err := runSharedModel(model, steps); err != nil {
					min := shrinkScript(steps, func(s []propStep) bool { return runSharedModel(model, s) != nil })
					t.Fatalf("seed %d: %v\nminimal workload script:\n%s", seed, runSharedModel(model, min), formatScript(min))
				}
			}
		})
	}
}
