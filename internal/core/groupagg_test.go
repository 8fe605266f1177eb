package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// gaDef: SUM(a) over k < 60, GROUP BY a-mod bucket stored in column 1.
// Schema reuse: r(k, a, s) with groups encoded in column 1.
func gaDef(name string, kind agg.Kind) Def {
	return Def{
		Name:      name,
		Kind:      GroupedAggregate,
		Relations: []string{"r"},
		Pred:      pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(60)}),
		AggKind:   kind,
		AggCol:    0, // aggregate the key itself: deterministic values
		GroupBy:   1,
	}
}

// newGroupDatabase seeds r with n tuples (k=i, group=i%5) and a
// grouped view.
func newGroupDatabase(t testing.TB, strategy Strategy, kind agg.Kind, n int) *Database {
	t.Helper()
	db := newTestDB(t)
	if _, err := db.CreateRelationBTree("r", spSchema(), 0); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < n; i++ {
		if _, err := tx.Insert("r", tuple.I(int64(i)), tuple.I(int64(i%5)), tuple.S(sName(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(gaDef("g", kind), strategy); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	return db
}

func groupMap(rows []GroupRow) map[int64]float64 {
	out := map[int64]float64{}
	for _, r := range rows {
		out[r.Group.Int()] = r.Value
	}
	return out
}

func TestGroupedAggregateInitialContents(t *testing.T) {
	for _, st := range []Strategy{QueryModification, Immediate, Deferred} {
		db := newGroupDatabase(t, st, agg.Sum, 100)
		rows, err := db.QueryGroups("g", nil)
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if len(rows) != 5 {
			t.Fatalf("%v: groups = %d, want 5", st, len(rows))
		}
		got := groupMap(rows)
		// Group g holds k ∈ {g, g+5, ..., g+55}: 12 values, sum = 12g + 330.
		for g := int64(0); g < 5; g++ {
			want := float64(12*g + 330)
			if got[g] != want {
				t.Errorf("%v: SUM(group %d) = %v, want %v", st, g, got[g], want)
			}
		}
	}
}

func TestGroupedAggregateStrategiesAgreeUnderUpdates(t *testing.T) {
	dbs := map[Strategy]*Database{}
	for _, st := range []Strategy{QueryModification, Immediate, Deferred} {
		dbs[st] = newGroupDatabase(t, st, agg.Sum, 100)
	}
	mutate := func(db *Database) {
		tx := db.Begin()
		tx.Insert("r", tuple.I(30), tuple.I(2), tuple.S("in"))                     // grows group 2
		tx.Insert("r", tuple.I(500), tuple.I(2), tuple.S("out"))                   // outside predicate
		tx.Delete("r", tuple.I(13), 14)                                            // shrinks group 3
		tx.Update("r", tuple.I(20), 21, tuple.I(20), tuple.I(4), tuple.S("moved")) // group 0 → 4
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for _, db := range dbs {
		mutate(db)
	}
	want, err := dbs[QueryModification].QueryGroups("g", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []Strategy{Immediate, Deferred} {
		got, err := dbs[st].QueryGroups("g", nil)
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d groups vs %d", st, len(got), len(want))
		}
		gm, wm := groupMap(got), groupMap(want)
		for g, w := range wm {
			if math.Abs(gm[g]-w) > 1e-9 {
				t.Errorf("%v: group %d = %v, want %v", st, g, gm[g], w)
			}
		}
	}
}

func TestGroupedAggregateGroupVanishes(t *testing.T) {
	db := newTestDB(t)
	db.CreateRelationBTree("r", spSchema(), 0)
	tx := db.Begin()
	ids := map[int64]uint64{}
	for i := int64(0); i < 4; i++ {
		id, _ := tx.Insert("r", tuple.I(i), tuple.I(i%2), tuple.S("x"))
		ids[i] = id
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(gaDef("g", agg.Count), Immediate); err != nil {
		t.Fatal(err)
	}
	// Delete every group-1 tuple (keys 1 and 3).
	tx = db.Begin()
	tx.Delete("r", tuple.I(1), ids[1])
	tx.Delete("r", tuple.I(3), ids[3])
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryGroups("g", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Group.Int() != 0 {
		t.Errorf("rows = %v, want only group 0", rows)
	}
}

func TestGroupedMinRecomputePerGroup(t *testing.T) {
	db := newGroupDatabase(t, Immediate, agg.Min, 50)
	// Group 2's members are {2, 7, ..., 47}; min = 2 (key 2, id 3).
	rows, _ := db.QueryGroups("g", pred.PointRange(tuple.I(2)))
	if len(rows) != 1 || rows[0].Value != 2 {
		t.Fatalf("initial MIN(group 2) = %v", rows)
	}
	tx := db.Begin()
	tx.Delete("r", tuple.I(2), 3)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryGroups("g", pred.PointRange(tuple.I(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Value != 7 {
		t.Errorf("MIN(group 2) after extreme delete = %v, want 7", rows)
	}
	// Other groups untouched.
	rows, _ = db.QueryGroups("g", pred.PointRange(tuple.I(3)))
	if len(rows) != 1 || rows[0].Value != 3 {
		t.Errorf("MIN(group 3) disturbed: %v", rows)
	}
}

func TestGroupedAggregateRangeQuery(t *testing.T) {
	db := newGroupDatabase(t, Immediate, agg.Count, 100)
	rows, err := db.QueryGroups("g", pred.NewRange(tuple.I(1), tuple.I(3), true, true))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Errorf("range query groups = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Count != 12 {
			t.Errorf("group %v count = %d, want 12", r.Group, r.Count)
		}
	}
}

func TestGroupedAggregateSnapshotAndRecompute(t *testing.T) {
	for _, st := range []Strategy{Snapshot, RecomputeOnDemand} {
		db := newGroupDatabase(t, st, agg.Sum, 50)
		if st == Snapshot {
			db.SetSnapshotInterval("g", 0) // refresh at every touched read
		}
		tx := db.Begin()
		tx.Insert("r", tuple.I(30), tuple.I(2), tuple.S("n"))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		rows, err := db.QueryGroups("g", pred.PointRange(tuple.I(2)))
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		// Group 2 of k<60 was {2,7,...,47}: sum 245; +30 = 275.
		if len(rows) != 1 || rows[0].Value != 275 {
			t.Errorf("%v: group 2 = %v, want 275", st, rows)
		}
	}
}

func TestGroupedAggregateQueryViewRejected(t *testing.T) {
	db := newGroupDatabase(t, Immediate, agg.Sum, 10)
	if _, err := db.QueryView("g", nil); err == nil {
		t.Error("QueryView accepted a grouped aggregate")
	}
	if _, err := db.QueryGroups("missing", nil); err == nil {
		t.Error("QueryGroups on missing view")
	}
	spdb := newSPDatabase(t, Immediate, 10)
	if _, err := spdb.QueryGroups("v", nil); err == nil {
		t.Error("QueryGroups on non-grouped view")
	}
}

func TestGroupedAggregateValidate(t *testing.T) {
	schemas := []*tuple.Schema{spSchema()}
	bad := gaDef("x", agg.Sum)
	bad.GroupBy = 9
	if err := bad.Validate(schemas); err == nil {
		t.Error("out-of-range GroupBy accepted")
	}
	ok := gaDef("x", agg.Sum)
	if err := ok.Validate(schemas); err != nil {
		t.Errorf("valid grouped def rejected: %v", err)
	}
}

func TestGroupedAggregateSaveLoad(t *testing.T) {
	db := newGroupDatabase(t, Immediate, agg.Avg, 60)
	want, err := db.QueryGroups("g", nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.QueryGroups("g", nil)
	if err != nil {
		t.Fatal(err)
	}
	gm, wm := groupMap(got), groupMap(want)
	if len(gm) != len(wm) {
		t.Fatalf("groups %d vs %d", len(gm), len(wm))
	}
	for g, w := range wm {
		if math.Abs(gm[g]-w) > 1e-9 {
			t.Errorf("restored group %d = %v, want %v", g, gm[g], w)
		}
	}
	// The restored grouped view keeps maintaining.
	tx := restored.Begin()
	tx.Insert("r", tuple.I(31), tuple.I(1), tuple.S("post"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Group 1 of k<60 had {1, 6, ..., 56} = 12 members; the insert
	// makes 13.
	after, _ := restored.QueryGroups("g", pred.PointRange(tuple.I(1)))
	if len(after) != 1 || after[0].Count != 13 {
		t.Errorf("restored group 1 after insert = %+v", after)
	}
}

func TestGroupedQMSeesUnfoldedHRChanges(t *testing.T) {
	// A QM grouped aggregate sharing its relation with a deferred view
	// must overlay pending HR changes.
	db := newTestDB(t)
	db.CreateRelationBTree("r", spSchema(), 0)
	tx := db.Begin()
	for i := int64(0); i < 20; i++ {
		tx.Insert("r", tuple.I(i), tuple.I(i%2), tuple.S("s"))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(spDef("def"), Deferred); err != nil {
		t.Fatal(err)
	}
	ga := gaDef("qmg", agg.Count)
	ga.Pred = pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(100)})
	if err := db.CreateView(ga, QueryModification); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	tx.Insert("r", tuple.I(50), tuple.I(1), tuple.S("pending"))
	tx.Delete("r", tuple.I(0), 1) // group 0 shrinks
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryGroups("qmg", nil)
	if err != nil {
		t.Fatal(err)
	}
	gm := map[int64]int64{}
	for _, r := range rows {
		gm[r.Group.Int()] = r.Count
	}
	if gm[0] != 9 || gm[1] != 11 {
		t.Errorf("groups with pending HR = %v, want 0:9 1:11", gm)
	}
}

func TestGroupedMinRecomputeOverHashRelation(t *testing.T) {
	db := newTestDB(t)
	s := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("g", tuple.Int))
	if _, err := db.CreateRelationHash("h", s, 0, 4); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	ids := map[int64]uint64{}
	for i := int64(0); i < 20; i++ {
		id, _ := tx.Insert("h", tuple.I(i), tuple.I(i%2))
		ids[i] = id
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	def := Def{
		Name:      "hmin",
		Kind:      GroupedAggregate,
		Relations: []string{"h"},
		Pred:      pred.True(),
		AggKind:   agg.Min,
		AggCol:    0,
		GroupBy:   1,
	}
	if err := db.CreateView(def, Immediate); err != nil {
		t.Fatal(err)
	}
	// Delete group 0's minimum (k=0).
	tx = db.Begin()
	tx.Delete("h", tuple.I(0), ids[0])
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryGroups("hmin", pred.PointRange(tuple.I(0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Value != 2 {
		t.Errorf("MIN(group 0) over hash = %v, want 2", rows)
	}
}

func TestGroupedClusteredOnGroupColumnFastRecompute(t *testing.T) {
	// When the relation is clustered on the grouping column, the
	// extreme-delete recompute narrows to one group's key range.
	db := newTestDB(t)
	s := tuple.NewSchema(tuple.Col("g", tuple.Int), tuple.Col("v", tuple.Int))
	db.CreateRelationBTree("r", s, 0)
	tx := db.Begin()
	ids := map[int64]uint64{}
	seq := int64(0)
	for g := int64(0); g < 4; g++ {
		for j := int64(0); j < 25; j++ {
			id, _ := tx.Insert("r", tuple.I(g), tuple.I(j))
			ids[seq] = id
			seq++
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	def := Def{
		Name:      "gmin",
		Kind:      GroupedAggregate,
		Relations: []string{"r"},
		Pred:      pred.True(),
		AggKind:   agg.Min,
		AggCol:    1,
		GroupBy:   0,
	}
	if err := db.CreateView(def, Immediate); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	// Delete group 2's minimum (v=0, the 51st insert → ids[50]).
	tx = db.Begin()
	tx.Delete("r", tuple.I(2), ids[50])
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	reads := db.Breakdown()[PhaseImmRefresh].Reads
	rows, _ := db.QueryGroups("gmin", pred.PointRange(tuple.I(2)))
	if len(rows) != 1 || rows[0].Value != 1 {
		t.Fatalf("MIN(group 2) = %v, want 1", rows)
	}
	// Group-narrowed recompute touches far fewer pages than the whole
	// relation (100 tuples over many pages at 512-byte pages).
	if reads > 15 {
		t.Errorf("group recompute read %d pages; expected a narrow scan", reads)
	}
}

func TestGroupedDropView(t *testing.T) {
	db := newGroupDatabase(t, Immediate, agg.Sum, 20)
	if err := db.DropView("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryGroups("g", nil); err == nil {
		t.Error("dropped grouped view still queryable")
	}
}

func TestGroupedDeferredRefreshEveryRoundTripsThroughSave(t *testing.T) {
	db := newSPDatabase(t, Deferred, 20)
	if err := db.SetDeferredRefreshEvery("v", 3); err != nil {
		t.Fatal(err)
	}
	restored := saveLoad(t, db)
	// The policy survives: two commits stay pending, the third folds.
	h, _ := restored.HR("r")
	for i := int64(0); i < 3; i++ {
		tx := restored.Begin()
		if _, err := tx.Insert("r", tuple.I(15+i), tuple.I(0), tuple.S("x")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if i < 2 && h.ADLen() == 0 {
			t.Fatalf("commit %d folded early: policy lost", i)
		}
	}
	if h.ADLen() != 0 {
		t.Error("third commit did not trigger the restored periodic refresh")
	}
}

// nanGroupScript is a write sequence over r(k INT, g FLOAT, a INT)
// holding (0, 1.0, 1) and (1, 2.0, 10) under SUM(a) GROUP BY g. Three
// rows end with g NaN, of two payloads: one group under
// tuple.CompareFloat. Before that order, when tuple.Compare called NaN
// equal to every value, immediate and deferred answered {2:11101}
// {2:10} (group 1 lost) while the others answered {1:1} {2:10010}
// {NaN:100} {NaN:1000}.
var nanGroupScript = []struct {
	update bool // of the row keyed k, else an insert
	k      int64
	g      float64
	a      int64
}{
	{k: 2, g: math.NaN(), a: 100},
	{k: 3, g: math.Float64frombits(0x7ff8dead0000beef), a: 1000},
	{k: 4, g: 2, a: 10000},
	{update: true, k: 0, g: math.NaN(), a: 1},
	{update: true, k: 1, g: 3, a: 10},
}

// nanGroupAnswer is every config's answer after nanGroupScript.
const nanGroupAnswer = "[{2 10000 1} {3 10 1} {NaN 1101 3}]"

func floatGroupSchema() *tuple.Schema {
	return tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("g", tuple.Float), tuple.Col("a", tuple.Int))
}

func sumByG(name, rel string) Def {
	return Def{Name: name, Kind: GroupedAggregate, Relations: []string{rel}, Pred: pred.True(), AggKind: agg.Sum, AggCol: 2, GroupBy: 1}
}

// runNaNGroupScript writes r's two seed rows through seed, then
// nanGroupScript through w, and returns the row ids by key.
func runNaNGroupScript(t *testing.T, seed func() writer, w func() writer) map[int64]uint64 {
	t.Helper()
	ids := map[int64]uint64{}
	sw := seed()
	for _, row := range [][3]float64{{0, 1, 1}, {1, 2, 10}} {
		id, err := sw.Insert("r", tuple.I(int64(row[0])), tuple.F(row[1]), tuple.I(int64(row[2])))
		if err != nil {
			t.Fatal(err)
		}
		ids[int64(row[0])] = id
	}
	ww := w()
	for _, s := range nanGroupScript {
		vals := []tuple.Value{tuple.I(s.k), tuple.F(s.g), tuple.I(s.a)}
		var id uint64
		var err error
		if s.update {
			id, err = ww.Update("r", tuple.I(s.k), ids[s.k], vals...)
		} else {
			id, err = ww.Insert("r", vals...)
		}
		if err != nil {
			t.Fatalf("write %+v: %v", s, err)
		}
		ids[s.k] = id
	}
	return ids
}

// beginTx starts a transaction of db in *tx and returns it as a writer.
func beginTx(db *Database, tx **Tx) func() writer {
	return func() writer {
		*tx = db.Begin()
		return *tx
	}
}

// TestNaNGroupKeys runs nanGroupScript in one transaction on the five
// strategies and the plain-Go reference: no write is refused, and every
// config answers one NaN group beside the others.
func TestNaNGroupKeys(t *testing.T) {
	def := sumByG("byg", "r")
	for _, cfg := range append(plain(fiveStrategies...), referenceConfig) {
		var got []GroupRow
		if cfg.reference {
			ref := &reference{rels: map[string][]tuple.Tuple{"r": nil}}
			runNaNGroupScript(t, func() writer { return ref }, func() writer { return ref })
			a, err := ref.answer(def)
			if err != nil {
				t.Fatal(err)
			}
			got = a.groups
		} else {
			db := newTestDB(t)
			if _, err := db.CreateRelationBTree("r", floatGroupSchema(), 0); err != nil {
				t.Fatal(err)
			}
			var tx *Tx
			runNaNGroupScript(t, beginTx(db, &tx), func() writer {
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				if err := db.CreateView(def, cfg.strategy); err != nil {
					t.Fatal(err)
				}
				tx = db.Begin()
				return tx
			})
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			var err error
			if got, err = db.QueryGroups("byg", nil); err != nil {
				t.Fatal(err)
			}
		}
		if fmt.Sprint(got) != nanGroupAnswer {
			t.Errorf("%s answers %v, want %s", cfg.name, got, nanGroupAnswer)
		}
	}
}

// TestNaNGroupKeysThroughParents runs nanGroupScript under a grouped
// child of a select-project view that copies g, and creates grouped
// views, direct and through a parent, over rows that already hold NaN
// in the column they group on.
func TestNaNGroupKeysThroughParents(t *testing.T) {
	for _, st := range paperThree[1:] {
		db := newTestDB(t)
		if _, err := db.CreateRelationBTree("r", floatGroupSchema(), 0); err != nil {
			t.Fatal(err)
		}
		parent := Def{Name: "v", Kind: SelectProject, Relations: []string{"r"}, Pred: pred.True(), Project: [][]int{{0, 2, 1}}}
		if err := db.CreateViews([]ViewSpec{{parent, st}, {Def{Name: "child", Kind: GroupedAggregate, Relations: []string{"v"},
			Pred: pred.True(), AggKind: agg.Sum, AggCol: 1, GroupBy: 2}, st}}); err != nil {
			t.Fatal(err)
		}
		var tx *Tx
		runNaNGroupScript(t, beginTx(db, &tx), func() writer { return tx })
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if got, err := db.QueryGroups("child", nil); err != nil || fmt.Sprint(got) != nanGroupAnswer {
			t.Errorf("%v: child answers %v, %v; want %s", st, got, err, nanGroupAnswer)
		}

		// Grouped views created over rows already holding NaN.
		if _, err := db.CreateRelationBTree("s", floatGroupSchema(), 0); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateView(Def{Name: "sv", Kind: SelectProject, Relations: []string{"s"}, Pred: pred.True(), Project: [][]int{{0, 1}}}, st); err != nil {
			t.Fatal(err)
		}
		tx = db.Begin()
		for k, g := range []float64{math.NaN(), 4, math.Float64frombits(0x7ff8dead0000beef)} {
			if _, err := tx.Insert("s", tuple.I(int64(k)), tuple.F(g), tuple.I(1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, d := range []Def{sumByG("direct", "s"), {Name: "viaparent", Kind: GroupedAggregate, Relations: []string{"sv"},
			Pred: pred.True(), AggKind: agg.Count, AggCol: 0, GroupBy: 1}} {
			if err := db.CreateView(d, st); err != nil {
				t.Fatalf("%v: CreateView %s over a NaN: %v", st, d.Name, err)
			}
			if got, err := db.QueryGroups(d.Name, nil); err != nil || fmt.Sprint(got) != "[{4 1 1} {NaN 2 2}]" {
				t.Errorf("%v: %s answers %v, %v; want [{4 1 1} {NaN 2 2}]", st, d.Name, got, err)
			}
		}
	}
}

// TestNaNGroupKeysPersist holds the NaN group through Save/Load and
// through a checkpoint and Recover: each copy answers it, and a later
// delete from it finds its stored row.
func TestNaNGroupKeysPersist(t *testing.T) {
	for _, st := range paperThree {
		walDev, snapDev := storage.NewFaultDisk(), storage.NewFaultDisk()
		db := newTestDB(t)
		if _, err := db.CreateRelationBTree("r", floatGroupSchema(), 0); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateView(sumByG("byg", "r"), st); err != nil {
			t.Fatal(err)
		}
		if err := db.EnableDurability(walDev, snapDev, DurabilityOptions{}); err != nil {
			t.Fatal(err)
		}
		var tx *Tx
		ids := runNaNGroupScript(t, beginTx(db, &tx), func() writer {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tx = db.Begin()
			return tx
		})
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		wd, sd, err := cleanReboot(walDev, snapDev)
		if err != nil {
			t.Fatal(err)
		}
		recovered, _, err := Recover(wd, sd, DurabilityOptions{})
		if err != nil {
			t.Fatalf("%v: Recover: %v", st, err)
		}
		for name, c := range map[string]*Database{"live": db, "loaded": saveLoad(t, db), "recovered": recovered} {
			if got, err := c.QueryGroups("byg", nil); err != nil || fmt.Sprint(got) != nanGroupAnswer {
				t.Errorf("%v %s: answers %v, %v; want %s", st, name, got, err, nanGroupAnswer)
			}
			tx := c.Begin()
			if err := tx.Delete("r", tuple.I(3), ids[3]); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("%v %s: delete from the NaN group: %v", st, name, err)
			}
			if got, err := c.QueryGroups("byg", nil); err != nil || fmt.Sprint(got) != "[{2 10000 1} {3 10 1} {NaN 101 2}]" {
				t.Errorf("%v %s: after the delete answers %v, %v; want [{2 10000 1} {3 10 1} {NaN 101 2}]", st, name, got, err)
			}
		}
	}
}
