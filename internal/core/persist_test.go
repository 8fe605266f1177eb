package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/btree"
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
	rows, err := restored.QueryViewPlan("v", nil, PlanClustered)
	if err != nil || len(rows) != 20 {
		t.Errorf("restored QM query: %d rows, err %v", len(rows), err)
	}
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
	img := buf.Bytes()

	encode := func(snap dbSnapshot) []byte {
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(&snap); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty stream", nil, ErrSnapshotTruncated},
		{"one byte", img[:1], ErrSnapshotTruncated},
		{"cut mid-type-descriptor", img[:40], ErrSnapshotTruncated},
		{"cut mid-value", img[:len(img)/2], ErrSnapshotTruncated},
		{"all but last byte", img[:len(img)-1], ErrSnapshotTruncated},
		// gob reads the first byte of ASCII text as a message length
		// far past the end of the stream, so prose classifies as
		// truncation — the classification is best-effort below the
		// type layer.
		{"ascii garbage", []byte("not a snapshot"), ErrSnapshotTruncated},
		{"type garbage", []byte{0x01, 0x02, 'g', 'a', 'r', 'b'}, ErrSnapshotCorrupt},
		{"wrong version", encode(dbSnapshot{Version: snapshotVersion + 1}), ErrSnapshotCorrupt},
		{"bad page size", encode(dbSnapshot{
			Version: snapshotVersion, PoolFrames: 4,
			Disk: &storage.DiskImage{PageSize: 0},
		}), ErrSnapshotCorrupt},
		{"HR without relation", encode(dbSnapshot{
			Version: snapshotVersion, PageSize: 512, PoolFrames: 4,
			Disk: &storage.DiskImage{PageSize: 512},
			HRs:  []hrDTO{{Relation: "ghost"}},
		}), ErrSnapshotCorrupt},
		{"no disk", encode(dbSnapshot{Version: snapshotVersion, PageSize: 512, PoolFrames: 4}), ErrSnapshotCorrupt},
		// Both found by FuzzSnapshotChain: a header that decodes but does
		// not fit its disk, or a view definition CreateView would refuse.
		{"relation meta names a missing page", encode(dbSnapshot{
			Version: snapshotVersion, PageSize: 512, PoolFrames: 4,
			Disk:      &storage.DiskImage{PageSize: 512},
			Relations: []relationDTO{{Name: "r", Schema: schemaToDTO(spSchema()), Meta: relation.Meta{Kind: relation.ClusteredBTree, BTree: btree.Meta{Root: 2, Height: 1}}}},
		}), ErrSnapshotCorrupt},
		{"view over no relation", encode(dbSnapshot{
			Version: snapshotVersion, PageSize: 512, PoolFrames: 4,
			Disk:  &storage.DiskImage{PageSize: 512},
			Views: []viewDTO{{Def: defDTO{Name: "v"}}},
		}), ErrSnapshotCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("accepted")
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}

	// Every truncation point must classify as truncated or, rarely,
	// corrupt — never load successfully and never panic.
	for cut := 0; cut < len(img); cut += 97 {
		if _, err := Load(bytes.NewReader(img[:cut])); err == nil {
			t.Fatalf("cut %d: truncated snapshot loaded", cut)
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
