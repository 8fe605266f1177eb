package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// Layout-identity property layer: the columnar page encoding is
// capacity-neutral by construction, so an engine laying pages out as
// column chunks and an engine using the row-major layout must be
// observationally indistinguishable. For each of the paper's three
// models, every maintenance strategy replays the same random workload
// script on both engines in lockstep; at every query point the results
// must match byte for byte (diffRowsExact) and the cumulative meter
// snapshots must be equal — same rows, same pages, same charges,
// whatever the physical encoding.

// setRowOracle makes a freshly built engine lay its data pages out
// row-major (the WAL interchange encoding) instead of as column chunks.
// It is the oracle the layout-identity layers compare the columnar
// default with; call it before the engine writes its first page.
func setRowOracle(db *Database) *Database {
	db.disk.SetPageLayout(storage.PageLayoutRow)
	return db
}

// layoutMeterDiff compares the two engines' cumulative meter snapshots.
func layoutMeterDiff(col, row *Database) error {
	c, r := col.Meter().Snapshot(), row.Meter().Snapshot()
	if c != r {
		return fmt.Errorf("meters diverged: col=%+v row=%+v", c, r)
	}
	return nil
}

func runColRowModel1(st Strategy, steps []propStep) error {
	colDB, err := buildSPDBOn(NewDatabase(testOpts()), st, 30)
	if err != nil {
		return err
	}
	rowDB, err := buildSPDBOn(setRowOracle(NewDatabase(testOpts())), st, 30)
	if err != nil {
		return err
	}
	var colLive, rowLive []liveRow
	for k := 0; k < 30; k++ {
		colLive = append(colLive, liveRow{key: int64(k), id: uint64(k + 1)})
		rowLive = append(rowLive, liveRow{key: int64(k), id: uint64(k + 1)})
	}
	vals := func(key, val int64) []tuple.Value {
		return []tuple.Value{tuple.I(key), tuple.I(val), tuple.S(sName(int(val)))}
	}
	for _, s := range steps {
		if s.op == "query" {
			got, err := colDB.QueryView("v", nil)
			if err != nil {
				return err
			}
			want, err := rowDB.QueryView("v", nil)
			if err != nil {
				return err
			}
			if err := diffRowsExact(got, want); err != nil {
				return fmt.Errorf("col vs row results: %w", err)
			}
			if err := layoutMeterDiff(colDB, rowDB); err != nil {
				return err
			}
			continue
		}
		if colLive, err = applyStep(colDB, colLive, s, "r", vals); err != nil {
			return err
		}
		if rowLive, err = applyStep(rowDB, rowLive, s, "r", vals); err != nil {
			return err
		}
	}
	return layoutMeterDiff(colDB, rowDB)
}

func runColRowModel2(st Strategy, steps []propStep) error {
	const n, m = 30, 8
	colDB, err := buildJoinDBOn(NewDatabase(testOpts()), st, false, n, m)
	if err != nil {
		return err
	}
	rowDB, err := buildJoinDBOn(setRowOracle(NewDatabase(testOpts())), st, false, n, m)
	if err != nil {
		return err
	}
	var colLive, rowLive []liveRow
	for k := 0; k < n; k++ {
		colLive = append(colLive, liveRow{key: int64(k), id: uint64(m + k + 1)})
		rowLive = append(rowLive, liveRow{key: int64(k), id: uint64(m + k + 1)})
	}
	vals := func(key, val int64) []tuple.Value {
		return []tuple.Value{tuple.I(key), tuple.I(val % m), tuple.S("p" + sName(int(val)))}
	}
	for _, s := range steps {
		if s.op == "query" {
			got, err := colDB.QueryView("j", nil)
			if err != nil {
				return err
			}
			want, err := rowDB.QueryView("j", nil)
			if err != nil {
				return err
			}
			if err := diffRowsExact(got, want); err != nil {
				return fmt.Errorf("col vs row results: %w", err)
			}
			if err := layoutMeterDiff(colDB, rowDB); err != nil {
				return err
			}
			continue
		}
		if colLive, err = applyStep(colDB, colLive, s, "r1", vals); err != nil {
			return err
		}
		if rowLive, err = applyStep(rowDB, rowLive, s, "r1", vals); err != nil {
			return err
		}
	}
	return layoutMeterDiff(colDB, rowDB)
}

func runColRowModel3(st Strategy, kind agg.Kind, steps []propStep) error {
	colDB, err := buildAggDBOn(NewDatabase(testOpts()), st, kind, 30)
	if err != nil {
		return err
	}
	rowDB, err := buildAggDBOn(setRowOracle(NewDatabase(testOpts())), st, kind, 30)
	if err != nil {
		return err
	}
	var colLive, rowLive []liveRow
	for k := 0; k < 30; k++ {
		colLive = append(colLive, liveRow{key: int64(k), id: uint64(k + 1)})
		rowLive = append(rowLive, liveRow{key: int64(k), id: uint64(k + 1)})
	}
	vals := func(key, val int64) []tuple.Value {
		return []tuple.Value{tuple.I(key), tuple.I(val), tuple.S(sName(int(val)))}
	}
	for _, s := range steps {
		if s.op == "query" {
			got, gotOK, err := colDB.QueryAggregate("sumv")
			if err != nil {
				return err
			}
			want, wantOK, err := rowDB.QueryAggregate("sumv")
			if err != nil {
				return err
			}
			if gotOK != wantOK || (wantOK && math.Float64bits(got) != math.Float64bits(want)) {
				return fmt.Errorf("col says (%v,%v), row says (%v,%v)", got, gotOK, want, wantOK)
			}
			if err := layoutMeterDiff(colDB, rowDB); err != nil {
				return err
			}
			continue
		}
		if colLive, err = applyStep(colDB, colLive, s, "r", vals); err != nil {
			return err
		}
		if rowLive, err = applyStep(rowDB, rowLive, s, "r", vals); err != nil {
			return err
		}
	}
	return layoutMeterDiff(colDB, rowDB)
}

func TestPropertyColRowIdentityModel1(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	for _, st := range []Strategy{QueryModification, Immediate, Deferred, Snapshot, RecomputeOnDemand} {
		st := st
		t.Run(st.String(), func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed + 3100))
				steps := genScript(rng, 5, 40)
				if err := runColRowModel1(st, steps); err != nil {
					min := shrinkScript(steps, func(s []propStep) bool { return runColRowModel1(st, s) != nil })
					t.Fatalf("seed %d: %v\nminimal workload script:\n%s", seed, runColRowModel1(st, min), formatScript(min))
				}
			}
		})
	}
}

func TestPropertyColRowIdentityModel2(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	for _, st := range []Strategy{QueryModification, Immediate, Deferred} {
		st := st
		t.Run(st.String(), func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed + 3400))
				steps := genScript(rng, 5, 90)
				if err := runColRowModel2(st, steps); err != nil {
					min := shrinkScript(steps, func(s []propStep) bool { return runColRowModel2(st, s) != nil })
					t.Fatalf("seed %d: %v\nminimal workload script:\n%s", seed, runColRowModel2(st, min), formatScript(min))
				}
			}
		})
	}
}

func TestPropertyColRowIdentityModel3(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	for _, kind := range []agg.Kind{agg.Sum, agg.Min, agg.Max} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for _, st := range []Strategy{QueryModification, Immediate, Deferred} {
				for seed := int64(0); seed < 3; seed++ {
					rng := rand.New(rand.NewSource(seed + 3700))
					steps := genScript(rng, 4, 40)
					if err := runColRowModel3(st, kind, steps); err != nil {
						min := shrinkScript(steps, func(s []propStep) bool { return runColRowModel3(st, kind, s) != nil })
						t.Fatalf("%v seed %d: %v\nminimal workload script:\n%s", st, seed, runColRowModel3(st, kind, min), formatScript(min))
					}
				}
			}
		})
	}
}
