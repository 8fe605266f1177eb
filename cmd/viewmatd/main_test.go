package main

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"viewmat/internal/core"
	"viewmat/internal/pred"
	"viewmat/internal/tuple"
	"viewmat/internal/wal"
)

const (
	testCkptEvery = 2
	testPageSize  = 4000
	testSeedRows  = 2000
)

func reopen(t *testing.T, dir string, ckptEvery int) (*core.Database, func()) {
	t.Helper()
	db, _, closeDevs, err := openDurable(dir, ckptEvery, testPageSize, 64, 1)
	if err != nil {
		t.Fatalf("openDurable: %v", err)
	}
	return db, closeDevs
}

// commitRow inserts one row inside the view's key range.
func commitRow(t *testing.T, db *core.Database, k int64) {
	t.Helper()
	tx := db.Begin()
	if _, err := tx.Insert("r", tuple.I(k), tuple.I(k*3), tuple.S("row")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func answers(t *testing.T, db *core.Database) []core.ResultRow {
	t.Helper()
	rows, err := db.QueryView("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// chainKinds reads the recovery chain of dir's snapshot store.
func chainKinds(t *testing.T, dir string) []wal.FrameKind {
	t.Helper()
	dev, err := wal.OpenFile(filepath.Join(dir, snapFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	s, err := wal.OpenSnapshotStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := s.Chain()
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]wal.FrameKind, len(frames))
	for i, f := range frames {
		kinds[i] = f.Kind
	}
	return kinds
}

// TestOpenDurable drives the binary's durability entry point over a
// real directory: a fresh engine, work past two checkpoint cadences,
// restart through a full frame plus deltas, more work, restart again,
// and a restart on a snapshot store whose last frame is torn.
func TestOpenDurable(t *testing.T) {
	dir := t.TempDir()
	db, closeDevs := reopen(t, dir, testCkptEvery)
	schema := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("s", tuple.String))
	if _, err := db.CreateRelationBTree("r", schema, 0); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := int64(0); i < testSeedRows; i++ {
		if _, err := tx.Insert("r", tuple.I(i*10), tuple.I(i), tuple.S("seed")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	def := core.Def{
		Name:       "v",
		Kind:       core.SelectProject,
		Relations:  []string{"r"},
		Pred:       pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(500)}),
		Project:    [][]int{{0, 2}},
		ViewKeyCol: 0,
	}
	if err := db.CreateView(def, core.Immediate); err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 2*testCkptEvery+1; k++ {
		commitRow(t, db, k)
	}
	want := answers(t, db)
	closeDevs()

	kinds := chainKinds(t, dir)
	if len(kinds) < 3 || kinds[0] != wal.FrameFull || kinds[len(kinds)-1] != wal.FrameDelta {
		t.Fatalf("recovery chain kinds %v: want a full frame followed by at least two deltas", kinds)
	}

	db, closeDevs = reopen(t, dir, testCkptEvery)
	if got := answers(t, db); !reflect.DeepEqual(got, want) {
		t.Fatalf("after restart: %d rows, want %d", len(got), len(want))
	}
	commitRow(t, db, 11)
	want = answers(t, db)
	closeDevs()

	// Automatic checkpoints off: the WAL keeps every commit until the
	// explicit checkpoint below.
	db, closeDevs = reopen(t, dir, 0)
	if got := answers(t, db); !reflect.DeepEqual(got, want) {
		t.Fatalf("after second restart: %d rows, want %d", len(got), len(want))
	}
	for k := int64(21); k < 24; k++ {
		commitRow(t, db, k)
	}
	want = answers(t, db)
	walPath, snapPath := filepath.Join(dir, walFileName), filepath.Join(dir, snapFileName)
	walBefore, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	closeDevs()

	// A crash while the checkpoint's frame was being written: the frame
	// is cut short and the log was never reset.
	st, err := os.Stat(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(snapPath, st.Size()-10); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, walBefore, 0o644); err != nil {
		t.Fatal(err)
	}
	db, closeDevs = reopen(t, dir, testCkptEvery)
	defer closeDevs()
	if got := answers(t, db); !reflect.DeepEqual(got, want) {
		t.Fatalf("after torn checkpoint: %d rows, want %d", len(got), len(want))
	}
	if after := chainKinds(t, dir); len(after) != len(kinds) {
		t.Fatalf("recovery chain %v after the torn checkpoint, want the %d frames from before it", after, len(kinds))
	}
	commitRow(t, db, 31)
}

// TestRestartFollowsAdaptiveFlag: a checkpoint carries the advisor, so
// a recovered engine comes back with it. Restarted with -adaptive, the
// engine keeps the restored estimators (EnableAdaptive must not refuse
// it); restarted without, the advisor is discarded, since no ticker
// would ever run it.
func TestRestartFollowsAdaptiveFlag(t *testing.T) {
	dir := t.TempDir()
	db, closeDevs := reopen(t, dir, 0)
	if err := setAdaptive(db, true); err != nil {
		t.Fatal(err)
	}
	schema := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("s", tuple.String))
	if _, err := db.CreateRelationBTree("r", schema, 0); err != nil {
		t.Fatal(err)
	}
	def := core.Def{
		Name:      "v",
		Kind:      core.SelectProject,
		Relations: []string{"r"},
		Pred:      pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(50)}),
		Project:   [][]int{{0, 2}},
	}
	if err := db.CreateView(def, core.Immediate); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 20; k++ {
		commitRow(t, db, k*5)
		answers(t, db)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := db.AdvisorStats()
	if len(want) != 1 || want[0].Observations == 0 {
		t.Fatalf("advisor observed nothing before the checkpoint: %+v", want)
	}
	closeDevs()

	db, closeDevs = reopen(t, dir, 0)
	if err := setAdaptive(db, true); err != nil {
		t.Fatalf("restart with -adaptive: %v", err)
	}
	if got := db.AdvisorStats(); !reflect.DeepEqual(got, want) {
		t.Errorf("restart with -adaptive: AdvisorStats %+v, want the checkpointed %+v", got, want)
	}
	closeDevs()

	db, closeDevs = reopen(t, dir, 0)
	defer closeDevs()
	if err := setAdaptive(db, false); err != nil {
		t.Fatal(err)
	}
	if got := db.AdvisorStats(); got != nil {
		t.Errorf("restart without -adaptive: advisor still on, %+v", got)
	}
	if _, err := db.AdaptTick(); !errors.Is(err, core.ErrAdaptiveDisabled) {
		t.Errorf("restart without -adaptive: AdaptTick = %v, want ErrAdaptiveDisabled", err)
	}
}
