package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"strings"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/btree"
	"viewmat/internal/hr"
	"viewmat/internal/pred"
	"viewmat/internal/relation"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

func saveLoad(t *testing.T, db *Database) *Database {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return restored
}

func TestSaveLoadSPView(t *testing.T) {
	db := newSPDatabase(t, Immediate, 60)
	tx := db.Begin()
	tx.Insert("r", tuple.I(15), tuple.I(1), tuple.S("pre-save"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want, err := db.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}

	restored := saveLoad(t, db)
	got, err := restored.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "restored view", got, want)

	// The restored engine keeps working: ids continue from the saved
	// clock, screening still fires, the view stays maintained.
	tx = restored.Begin()
	id, err := tx.Insert("r", tuple.I(16), tuple.I(2), tuple.S("post-load"))
	if err != nil {
		t.Fatal(err)
	}
	if id <= 61 {
		t.Errorf("clock did not survive: new id %d", id)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, _ = restored.QueryView("v", nil)
	if len(got) != len(want)+1 {
		t.Errorf("post-load insert not visible: %d rows", len(got))
	}
	if restored.Breakdown()[PhaseScreen].Screens == 0 {
		t.Error("restored engine does not screen")
	}
}

func TestSaveLoadDeferredWithPendingAD(t *testing.T) {
	db := newSPDatabase(t, Deferred, 50)
	tx := db.Begin()
	tx.Insert("r", tuple.I(15), tuple.I(1), tuple.S("pending"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	h, _ := db.HR("r")
	if h.ADLen() == 0 {
		t.Fatal("no pending AD before save")
	}

	restored := saveLoad(t, db)
	rh, ok := restored.HR("r")
	if !ok {
		t.Fatal("HR lost in restore")
	}
	if rh.ADLen() != h.ADLen() {
		t.Errorf("AD length %d, want %d", rh.ADLen(), h.ADLen())
	}
	// The Bloom filter was rebuilt: the pending key probes AD.
	if !rh.Filter().MayContain(tuple.I(15).String()) {
		t.Error("restored bloom filter lost the pending key")
	}
	// The deferred refresh still happens at query time.
	rows, err := restored.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 21 {
		t.Errorf("rows = %d, want 21", len(rows))
	}
	if rh.ADLen() != 0 {
		t.Error("restored query did not fold AD")
	}
}

func TestSaveLoadJoinView(t *testing.T) {
	db := newJoinDatabase(t, Immediate, 30, 6)
	want, _ := db.QueryView("j", nil)
	restored := saveLoad(t, db)
	got, err := restored.QueryView("j", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "restored join", got, want)
	// Mutations keep maintaining the restored join view.
	tx := restored.Begin()
	if _, err := tx.Insert("r1", tuple.I(70), tuple.I(3), tuple.S("n")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, _ = restored.QueryView("j", nil)
	if len(got) != len(want)+1 {
		t.Errorf("rows = %d, want %d", len(got), len(want)+1)
	}
}

func TestSaveLoadAggregate(t *testing.T) {
	db := newAggDatabase(t, Immediate, agg.Avg, 50)
	want, ok, _ := db.QueryAggregate("sumv")
	if !ok {
		t.Fatal("aggregate undefined before save")
	}
	restored := saveLoad(t, db)
	got, ok, err := restored.QueryAggregate("sumv")
	if err != nil || !ok || got != want {
		t.Errorf("restored aggregate = %v ok=%v err=%v, want %v", got, ok, err, want)
	}
	// Incremental maintenance continues.
	tx := restored.Begin()
	tx.Insert("r", tuple.I(15), tuple.I(1000), tuple.S("x"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after, _, _ := restored.QueryAggregate("sumv")
	if after == want {
		t.Error("restored aggregate is frozen")
	}
}

func TestSaveLoadSnapshotState(t *testing.T) {
	db := newSPDatabase(t, Snapshot, 40)
	db.SetSnapshotInterval("v", 5)
	tx := db.Begin()
	tx.Insert("r", tuple.I(15), tuple.I(1), tuple.S("x"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if s, _ := db.SnapshotStaleness("v"); s != 1 {
		t.Fatal("staleness not recorded before save")
	}
	restored := saveLoad(t, db)
	if s, _ := restored.SnapshotStaleness("v"); s != 1 {
		t.Errorf("staleness lost in restore: %d", s)
	}
	_, st, ok := restored.View("v")
	if !ok || st != Snapshot {
		t.Errorf("restored strategy = %v", st)
	}
}

func TestSaveLoadSecondaryIndexes(t *testing.T) {
	db := newSPDatabase(t, QueryModification, 80)
	r, _ := db.Relation("r")
	if err := r.AddSecondary(1); err != nil {
		t.Fatal(err)
	}
	restored := saveLoad(t, db)
	rr, _ := restored.Relation("r")
	if !rr.HasSecondary(1) {
		t.Fatal("secondary index lost")
	}
	rows, err := queryPlan(restored, "v", nil, PlanClustered)
	if err != nil || len(rows) != 20 {
		t.Errorf("restored QM query: %d rows, err %v", len(rows), err)
	}
}

// encodeSnapshot lays a header and a disk delta out as a snapshot body.
func encodeSnapshot(t testing.TB, h catalogHeader, disk *storage.DiskDelta) []byte {
	t.Helper()
	var none []byte // the disk field of a body given no delta
	enc := tuple.NewEncoder(nil).Compact()
	codeSnapshot(&enc, &h, disk, &none)
	body, err := enc.Done()
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestLoadRejectsGarbage checks Load classifies failures: a stream
// that simply ends early (crash residue, interrupted copy) is
// ErrSnapshotTruncated, impossible bytes are ErrSnapshotCorrupt.
// Callers picking between "try an older snapshot" and "refuse the
// file" rely on the distinction.
func TestLoadRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	if err := newSPDatabase(t, Deferred, 20).Save(&buf); err != nil {
		t.Fatal(err)
	}
	img := bytes.Clone(buf.Bytes())

	empty := &storage.DiskDelta{PageSize: 512}
	encode := func(h catalogHeader) []byte { return encodeSnapshot(t, h, empty) }
	wrongVersion := append([]byte(nil), img...)
	wrongVersion[len(snapshotMagic)-1]++
	// Version 2: this layout but a catalog header with a tracker map.
	version2 := append([]byte(nil), img...)
	version2[len(snapshotMagic)-1] = 2
	// Version 3: this layout, but its pages may be row-major.
	version3 := append([]byte(nil), img...)
	version3[len(snapshotMagic)-1] = 3
	// Version 4: this layout, but an advisor header with four more options.
	version4 := append([]byte(nil), img...)
	version4[len(snapshotMagic)-1] = 4
	// Version 5: this layout, but Float keys ordered and hashed apart
	// from tuple.CompareFloat.
	version5 := append([]byte(nil), img...)
	version5[len(snapshotMagic)-1] = 5
	// The parent commit's format: one encoding/gob value of a struct
	// whose first field is Version = 1.
	type dbSnapshot struct{ Version, PageSize, PoolFrames int }
	var version1 bytes.Buffer
	if err := gob.NewEncoder(&version1).Encode(&dbSnapshot{Version: 1, PageSize: 512, PoolFrames: 4}); err != nil {
		t.Fatal(err)
	}
	// Hostile views ride a real snapshot of relation r alone.
	bare := newTestDB(t)
	if _, err := bare.CreateRelationBTree("r", spSchema(), 0); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := bare.Save(&buf); err != nil {
		t.Fatal(err)
	}
	bareHeader, bareDisk, err := decodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	view := func(ve viewEntry) []byte {
		h := *bareHeader
		h.views = []viewEntry{ve}
		return encodeSnapshot(t, h, bareDisk)
	}
	spOverR := Def{Name: "v", Relations: []string{"r"}, Pred: pred.True(), Project: [][]int{{0}}, GroupBy: -1}
	slotMinus1 := spOverR
	slotMinus1.Pred = pred.New(pred.Cmp{Rel: -1})
	cases := []struct {
		name string
		data []byte
		want error
		msg  string // a fragment the error must carry
	}{
		{"empty stream", nil, ErrSnapshotTruncated, ""},
		{"one byte", img[:1], ErrSnapshotTruncated, ""},
		{"cut mid-header", img[:40], ErrSnapshotTruncated, ""},
		{"cut mid-value", img[:len(img)/2], ErrSnapshotTruncated, ""},
		{"all but last byte", img[:len(img)-1], ErrSnapshotTruncated, ""},
		{"one byte too many", append(append([]byte(nil), img...), 0), ErrSnapshotCorrupt, "trailing"},
		// Bytes that do not open with the magic are refused at once,
		// whatever they are.
		{"ascii garbage", []byte("not a snapshot"), ErrSnapshotCorrupt, "version-2"},
		{"type garbage", []byte{0x01, 0x02, 'g', 'a', 'r', 'b'}, ErrSnapshotCorrupt, "version-2"},
		{"wrong version", wrongVersion, ErrSnapshotCorrupt, "version-2"},
		{"version-2 body", version2, ErrSnapshotCorrupt, "version-2"},
		{"version-3 body", version3, ErrSnapshotCorrupt, "not a version-6 snapshot"},
		{"version-4 body", version4, ErrSnapshotCorrupt, "not a version-6 snapshot"},
		{"version-5 body", version5, ErrSnapshotCorrupt, "not a version-6 snapshot"},
		{"parent-format gob stream", version1.Bytes(), ErrSnapshotCorrupt, "version 1"},
		{"bad page size", encodeSnapshot(t, catalogHeader{poolFrames: 4}, &storage.DiskDelta{}), ErrSnapshotCorrupt, ""},
		{"HR without relation", encode(catalogHeader{poolFrames: 4, hrs: map[string]hr.ADMeta{"ghost": {}}}), ErrSnapshotCorrupt, ""},
		{"no disk", encodeSnapshot(t, catalogHeader{poolFrames: 4}, nil), ErrSnapshotCorrupt, ""},
		{"a delta against a disk that is not there", encodeSnapshot(t, catalogHeader{poolFrames: 4},
			&storage.DiskDelta{PageSize: 512, Files: []storage.FileDelta{{Name: "r.btree"}}}), ErrSnapshotCorrupt, ""},
		// Found by FuzzSnapshotChain: a header that decodes but does not
		// fit its disk, or a view definition CreateView would refuse.
		{"relation meta names a missing page", encode(catalogHeader{poolFrames: 4, relations: map[string]relationEntry{
			"r": {schema: spSchema(), meta: relation.Meta{Kind: relation.ClusteredBTree, BTree: btree.Meta{Root: 2, Height: 1}}},
		}}), ErrSnapshotCorrupt, ""},
		{"view over no relation", encode(catalogHeader{poolFrames: 4, views: []viewEntry{{vs: &viewState{def: Def{Name: "v"}}}}}), ErrSnapshotCorrupt, ""},
		{"view predicate on slot -1", view(viewEntry{vs: &viewState{def: slotMinus1}}), ErrSnapshotCorrupt, "slot -1"},
		{"group store on a select-project view", view(viewEntry{vs: &viewState{def: spOverR},
			groups: &relation.Meta{BTree: btree.Meta{Height: 1}}}), ErrSnapshotCorrupt, "group store"},
		{"view of unknown strategy", view(viewEntry{vs: &viewState{def: spOverR, strategy: 50}}), ErrSnapshotCorrupt, "strategy 50"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("accepted")
			}
			if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.msg) {
				t.Errorf("err = %v, want %v mentioning %q", err, tc.want, tc.msg)
			}
		})
	}

	// Every truncation point classifies as truncated — the decoder ran
	// out of bytes — and never loads or panics.
	for cut := 0; cut < len(img); cut += 97 {
		if _, err := Load(bytes.NewReader(img[:cut])); !errors.Is(err, ErrSnapshotTruncated) {
			t.Fatalf("cut %d: err = %v, want ErrSnapshotTruncated", cut, err)
		}
	}
}

func TestSaveLoadRoundTripsTwice(t *testing.T) {
	db := newSPDatabase(t, Deferred, 30)
	first := saveLoad(t, db)
	second := saveLoad(t, first)
	rows, err := second.QueryView("v", nil)
	if err != nil || len(rows) != 20 {
		t.Errorf("double round trip: %d rows, err %v", len(rows), err)
	}
}

// TestSaveLoadKeepsAdvisor: the advisor's options, estimators and flip
// history ride in the snapshot header, so a loaded engine reports the
// same AdvisorStats and its next AdaptTick decides what the live
// engine's does. A query-heavy phase flips the sequentially scanned
// view to a materialization; an update-heavy phase then makes the model
// prefer query modification again, decided after the round trip.
func TestSaveLoadKeepsAdvisor(t *testing.T) {
	db := newScanQMDatabase(t)
	if err := db.EnableAdaptive(AdvisorOptions{Hysteresis: 0.05, MinObservations: 8, HalfLife: 24}); err != nil {
		t.Fatal(err)
	}
	next := int64(1000)
	commit := func(rows int) {
		tx := db.Begin()
		for i := 0; i < rows; i++ {
			if _, err := tx.Insert("r", tuple.I(next), tuple.I(next%120), tuple.S("w")); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	query := func() {
		if _, err := db.QueryView("v", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if i%10 == 0 {
			commit(2)
		}
		query()
	}
	flips, err := db.AdaptTick()
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) != 1 || flips[0].From != QueryModification.String() {
		t.Fatalf("query-heavy phase: flips %+v, want one away from query modification", flips)
	}
	for i := 0; i < 60; i++ {
		commit(8)
	}
	query()

	restored := saveLoad(t, db)
	if got, want := restored.AdvisorStats(), db.AdvisorStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored AdvisorStats\n%+v\nwant\n%+v", got, want)
	}
	want, err := db.AdaptTick()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("update-heavy phase flipped nothing; the round trip is not exercised")
	}
	got, err := restored.AdaptTick()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored AdaptTick = %+v, want %+v", got, want)
	}
}
