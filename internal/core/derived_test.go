package core

import (
	"fmt"
	"sync"
	"testing"

	"viewmat/internal/pred"
	"viewmat/internal/tuple"
)

// derivedFixture is the race test's catalog: relations r, r2 and r3 on
// 512-byte pages, each starting with one internal level; an immediate and
// a query-modification view of r and a deferred view each of r2 and r3,
// all four as wide as the keys the writers insert, so that commits and
// refreshes split internal pages of the relations' trees and of the
// views'.
func derivedFixture(t *testing.T) *Database {
	t.Helper()
	db := newTestDB(t)
	for _, rel := range derivedRels {
		if _, err := db.CreateRelationBTree(rel, spSchema(), 0); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		for k := 0; k < 60; k++ {
			if _, err := tx.Insert(rel, tuple.I(int64(k*16)), tuple.I(int64(k)), tuple.S(sName(k))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	wide := func(name, rel string) Def {
		return Def{
			Name: name, Kind: SelectProject, Relations: []string{rel},
			Pred:    pred.New(pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(0)}),
			Project: [][]int{{0, 2}}, ViewKeyCol: 0,
		}
	}
	for _, v := range []struct {
		name, rel string
		st        Strategy
	}{{"vi", "r", Immediate}, {"vq", "r", QueryModification}, {"vd2", "r2", Deferred}, {"vd3", "r3", Deferred}} {
		if err := db.CreateView(wide(v.name, v.rel), v.st); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// derivedRels and derivedViews name the fixture's relations and views.
var (
	derivedRels  = []string{"r", "r2", "r3"}
	derivedViews = []string{"vi", "vq", "vd2", "vd3"}
)

// derivedWrites is writer w's transactions: txs of six inserts, two into
// each relation, at keys no other writer uses.
func derivedWrites(db *Database, w, txs int) error {
	for i := range txs {
		tx := db.Begin()
		for j := range 6 {
			rel := derivedRels[j%3]
			k := int64((i*2+j/3)*16 + w*4 + 1)
			if _, err := tx.Insert(rel, tuple.I(k), tuple.I(int64(w)), tuple.S(sName(i+j))); err != nil {
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// heights is each tree's index height, the paper's Hvi: the relations'
// and the materialized views'.
func heights(t *testing.T, db *Database) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, rel := range derivedRels {
		r, ok := db.Relation(rel)
		if !ok {
			t.Fatalf("no relation %q", rel)
		}
		out[rel] = r.IndexHeight()
	}
	db.mu.RLock()
	for _, v := range []string{"vi", "vd2", "vd3"} {
		out[v] = db.views[v].mat.rel.IndexHeight()
	}
	db.mu.RUnlock()
	return out
}

// TestDerivedNodesUnderConcurrentReadsAndSplits runs eight readers and a
// four-worker RefreshAll loop beside two writers whose commits split the
// internal pages of r and of the views: every descent reads the node kept
// beside an internal page's image while other goroutines write back,
// split and re-read those pages. Under the race detector nothing may
// race; every kept node a descent is handed is checked against a fresh
// decode of its bytes (the check fails the operation), and the answers
// must equal a serial twin's.
func TestDerivedNodesUnderConcurrentReadsAndSplits(t *testing.T) {
	const writers, readers, txs = 2, 8, 60
	db := derivedFixture(t)
	db.SetMaxRefreshWorkers(4)
	before := heights(t, db)
	for name, h := range before {
		if h != 1 {
			t.Fatalf("%s starts at index height %d, want 1: its root must split", name, h)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers+1)
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := derivedWrites(db, w, txs); err != nil {
				errs <- fmt.Errorf("writer %d: %w", w, err)
			}
		}()
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	for q := range readers {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := int64((q*131 + i*37) % 1000)
				rg := &pred.Range{Lo: ptr(tuple.I(lo)), Hi: ptr(tuple.I(lo + 64)), LoInc: true}
				if _, err := db.QueryView(derivedViews[(q+i)%len(derivedViews)], rg); err != nil {
					errs <- fmt.Errorf("reader %d: %w", q, err)
					return
				}
			}
		}()
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.RefreshAll(); err != nil {
				errs <- fmt.Errorf("RefreshAll: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	twin := derivedFixture(t)
	for w := range writers {
		if err := derivedWrites(twin, w, txs); err != nil {
			t.Fatalf("serial twin, writer %d: %v", w, err)
		}
	}
	if err := db.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	if err := twin.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	for name, h := range heights(t, db) {
		if h <= before[name] {
			t.Errorf("%s stayed at index height %d: no internal page of it split", name, h)
		}
	}
	for _, v := range derivedViews {
		got, err := db.QueryView(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.QueryView(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, v+" vs the serial twin", got, want)
	}
}

func ptr[T any](v T) *T { return &v }
