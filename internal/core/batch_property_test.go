package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"viewmat/internal/agg"
	"viewmat/internal/tuple"
)

// Batch-identity property layer: vectorized execution is a pure
// execution-layer change, so an engine running at the default batch
// size and an engine running row-at-a-time (setBatch1) must be
// observationally indistinguishable. For each of the paper's three
// models, every maintenance strategy replays the same random workload
// script on both engines in lockstep; at every query point the results
// must match byte for byte (diffRowsExact, not merely as multisets)
// and the cumulative meter snapshots must be equal — same rows, same
// charges, batch or no batch.

// setBatch1 pins a freshly built engine to the row-at-a-time executor:
// every batch carries one row and filters evaluate their per-row
// reference semantics. It is the oracle the batch-identity layers
// compare the vectorized default with.
func setBatch1(db *Database) *Database {
	db.batchSize = 1
	return db
}

// meterDiff compares the two engines' cumulative meter snapshots.
func meterDiff(vec, row *Database) error {
	v, r := vec.Meter().Snapshot(), row.Meter().Snapshot()
	if v != r {
		return fmt.Errorf("meters diverged: batch=%+v row=%+v", v, r)
	}
	return nil
}

func runBatchModel1(st Strategy, steps []propStep) error {
	vecDB, err := buildSPDBOn(NewDatabase(testOpts()), st, 30)
	if err != nil {
		return err
	}
	rowDB, err := buildSPDBOn(setBatch1(NewDatabase(testOpts())), st, 30)
	if err != nil {
		return err
	}
	var vecLive, rowLive []liveRow
	for k := 0; k < 30; k++ {
		vecLive = append(vecLive, liveRow{key: int64(k), id: uint64(k + 1)})
		rowLive = append(rowLive, liveRow{key: int64(k), id: uint64(k + 1)})
	}
	vals := func(key, val int64) []tuple.Value {
		return []tuple.Value{tuple.I(key), tuple.I(val), tuple.S(sName(int(val)))}
	}
	for _, s := range steps {
		if s.op == "query" {
			got, err := vecDB.QueryView("v", nil)
			if err != nil {
				return err
			}
			want, err := rowDB.QueryView("v", nil)
			if err != nil {
				return err
			}
			if err := diffRowsExact(got, want); err != nil {
				return fmt.Errorf("batch vs row results: %w", err)
			}
			if err := meterDiff(vecDB, rowDB); err != nil {
				return err
			}
			continue
		}
		if vecLive, err = applyStep(vecDB, vecLive, s, "r", vals); err != nil {
			return err
		}
		if rowLive, err = applyStep(rowDB, rowLive, s, "r", vals); err != nil {
			return err
		}
	}
	return meterDiff(vecDB, rowDB)
}

func runBatchModel2(st Strategy, steps []propStep) error {
	const n, m = 30, 8
	vecDB, err := buildJoinDBOn(NewDatabase(testOpts()), st, false, n, m)
	if err != nil {
		return err
	}
	rowDB, err := buildJoinDBOn(setBatch1(NewDatabase(testOpts())), st, false, n, m)
	if err != nil {
		return err
	}
	var vecLive, rowLive []liveRow
	for k := 0; k < n; k++ {
		vecLive = append(vecLive, liveRow{key: int64(k), id: uint64(m + k + 1)})
		rowLive = append(rowLive, liveRow{key: int64(k), id: uint64(m + k + 1)})
	}
	vals := func(key, val int64) []tuple.Value {
		return []tuple.Value{tuple.I(key), tuple.I(val % m), tuple.S("p" + sName(int(val)))}
	}
	for _, s := range steps {
		if s.op == "query" {
			got, err := vecDB.QueryView("j", nil)
			if err != nil {
				return err
			}
			want, err := rowDB.QueryView("j", nil)
			if err != nil {
				return err
			}
			if err := diffRowsExact(got, want); err != nil {
				return fmt.Errorf("batch vs row results: %w", err)
			}
			if err := meterDiff(vecDB, rowDB); err != nil {
				return err
			}
			continue
		}
		if vecLive, err = applyStep(vecDB, vecLive, s, "r1", vals); err != nil {
			return err
		}
		if rowLive, err = applyStep(rowDB, rowLive, s, "r1", vals); err != nil {
			return err
		}
	}
	return meterDiff(vecDB, rowDB)
}

func runBatchModel3(st Strategy, kind agg.Kind, steps []propStep) error {
	vecDB, err := buildAggDBOn(NewDatabase(testOpts()), st, kind, 30)
	if err != nil {
		return err
	}
	rowDB, err := buildAggDBOn(setBatch1(NewDatabase(testOpts())), st, kind, 30)
	if err != nil {
		return err
	}
	var vecLive, rowLive []liveRow
	for k := 0; k < 30; k++ {
		vecLive = append(vecLive, liveRow{key: int64(k), id: uint64(k + 1)})
		rowLive = append(rowLive, liveRow{key: int64(k), id: uint64(k + 1)})
	}
	vals := func(key, val int64) []tuple.Value {
		return []tuple.Value{tuple.I(key), tuple.I(val), tuple.S(sName(int(val)))}
	}
	for _, s := range steps {
		if s.op == "query" {
			got, gotOK, err := vecDB.QueryAggregate("sumv")
			if err != nil {
				return err
			}
			want, wantOK, err := rowDB.QueryAggregate("sumv")
			if err != nil {
				return err
			}
			if gotOK != wantOK || (wantOK && math.Float64bits(got) != math.Float64bits(want)) {
				return fmt.Errorf("batch says (%v,%v), row says (%v,%v)", got, gotOK, want, wantOK)
			}
			if err := meterDiff(vecDB, rowDB); err != nil {
				return err
			}
			continue
		}
		if vecLive, err = applyStep(vecDB, vecLive, s, "r", vals); err != nil {
			return err
		}
		if rowLive, err = applyStep(rowDB, rowLive, s, "r", vals); err != nil {
			return err
		}
	}
	return meterDiff(vecDB, rowDB)
}

func TestPropertyBatchRowIdentityModel1(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	for _, st := range []Strategy{QueryModification, Immediate, Deferred, Snapshot, RecomputeOnDemand} {
		st := st
		t.Run(st.String(), func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed + 2100))
				steps := genScript(rng, 5, 40)
				if err := runBatchModel1(st, steps); err != nil {
					min := shrinkScript(steps, func(s []propStep) bool { return runBatchModel1(st, s) != nil })
					t.Fatalf("seed %d: %v\nminimal workload script:\n%s", seed, runBatchModel1(st, min), formatScript(min))
				}
			}
		})
	}
}

func TestPropertyBatchRowIdentityModel2(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	for _, st := range []Strategy{QueryModification, Immediate, Deferred} {
		st := st
		t.Run(st.String(), func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed + 2400))
				steps := genScript(rng, 5, 90)
				if err := runBatchModel2(st, steps); err != nil {
					min := shrinkScript(steps, func(s []propStep) bool { return runBatchModel2(st, s) != nil })
					t.Fatalf("seed %d: %v\nminimal workload script:\n%s", seed, runBatchModel2(st, min), formatScript(min))
				}
			}
		})
	}
}

func TestPropertyBatchRowIdentityModel3(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	for _, kind := range []agg.Kind{agg.Sum, agg.Min, agg.Max} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for _, st := range []Strategy{QueryModification, Immediate, Deferred} {
				for seed := int64(0); seed < 3; seed++ {
					rng := rand.New(rand.NewSource(seed + 2700))
					steps := genScript(rng, 4, 40)
					if err := runBatchModel3(st, kind, steps); err != nil {
						min := shrinkScript(steps, func(s []propStep) bool { return runBatchModel3(st, kind, s) != nil })
						t.Fatalf("%v seed %d: %v\nminimal workload script:\n%s", st, seed, runBatchModel3(st, kind, min), formatScript(min))
					}
				}
			}
		})
	}
}
