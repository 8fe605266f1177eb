package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"viewmat/internal/core"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// debugWorkload builds a deferred view over a relation and runs commits
// and queries on db, calling between after each operation.
func debugWorkload(t *testing.T, db *core.Database, between func()) {
	t.Helper()
	schema := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("s", tuple.String))
	if _, err := db.CreateRelationBTree("r", schema, 0); err != nil {
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
	if err := db.CreateView(def, core.Deferred); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	for k := int64(0); k < 12; k++ {
		commitRow(t, db, k*70)
		between()
		answers(t, db)
		between()
	}
}

// get fetches path from srv and fails the test unless it answers 200.
func get(t *testing.T, srv *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", path, resp.Status, body)
	}
	return body
}

// TestDebugHandler scrapes the -debug-addr listener of a durable engine:
// /debug/vars is one JSON document whose "viewmat" object carries the
// engine's Health, its meter by phase and the WAL's sync count, beside
// expvar's own memstats; /debug/pprof/profile returns a gzipped CPU
// profile.
func TestDebugHandler(t *testing.T) {
	db, walDev, closeDevs, err := openDurable(t.TempDir(), testCkptEvery, testPageSize, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer closeDevs()
	srv := httptest.NewServer(debugHandler(db, walDev.Syncs))
	defer srv.Close()
	debugWorkload(t, db, func() {})

	var vars struct {
		Viewmat struct {
			Health    core.Health
			Breakdown map[core.Phase]storage.Stats
			Advisor   []core.AdvisorViewStat
			WALSyncs  int `json:"wal_syncs"`
		}
		Memstats json.RawMessage
	}
	body := get(t, srv, "/debug/vars")
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	if got, want := vars.Viewmat.Health, db.Health(); !reflect.DeepEqual(got, want) {
		t.Errorf("served health %+v, the engine's %+v", got, want)
	}
	if got, want := vars.Viewmat.Breakdown, db.Breakdown(); !reflect.DeepEqual(got, want) {
		t.Errorf("served breakdown %+v, the engine's %+v", got, want)
	}
	if vars.Viewmat.Health.Commits != 12 || vars.Viewmat.Breakdown[core.PhaseADRead].Reads == 0 {
		t.Errorf("served %d commits and ad-read %+v: the workload's counts are missing",
			vars.Viewmat.Health.Commits, vars.Viewmat.Breakdown[core.PhaseADRead])
	}
	if got := vars.Viewmat.WALSyncs; got == 0 || got != walDev.Syncs() {
		t.Errorf("served %d WAL syncs, the device took %d", got, walDev.Syncs())
	}
	if vars.Viewmat.Advisor != nil {
		t.Errorf("served advisor stats %+v with the advisor off", vars.Viewmat.Advisor)
	}
	if len(vars.Memstats) == 0 {
		t.Error("/debug/vars carries no memstats")
	}

	prof := get(t, srv, "/debug/pprof/profile?seconds=1")
	if !bytes.HasPrefix(prof, []byte{0x1f, 0x8b}) {
		t.Errorf("/debug/pprof/profile returned %d bytes that are no gzipped profile", len(prof))
	}
}

// TestDebugScrapeMovesNoCount: the same workload on two volatile
// engines, one scraped after every operation, ends with identical
// counts: meter, phase breakdown, operation counters, AD and delta scans.
func TestDebugScrapeMovesNoCount(t *testing.T) {
	counts := func(scrape bool) []any {
		db := core.NewDatabase(core.Options{PageSize: testPageSize, PoolFrames: 64})
		srv := httptest.NewServer(debugHandler(db, nil))
		defer srv.Close()
		debugWorkload(t, db, func() {
			if scrape {
				get(t, srv, "/debug/vars")
			}
		})
		h := db.Health()
		return []any{h.Meter, h.Queries, h.Commits, db.Breakdown(), db.ADScanCount(), db.DeltaScanCount(), db.PagesPruned()}
	}
	off, on := counts(false), counts(true)
	if !reflect.DeepEqual(off, on) {
		t.Errorf("counts without scrapes %+v, with a scrape after every operation %+v", off, on)
	}
}
