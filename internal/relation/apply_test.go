package relation

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"viewmat/internal/btree"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// TestApplyRunMatchesRowByRow: applying random signed batches with
// ApplyRun leaves every page of every file, Len, each batch's error and
// the rows its deletes cut as applying the rows one at a time with Insert
// and deleteRow does — B+-tree and hash-clustered relations, each without
// and with a secondary index, on pages of 256 and 4 000 bytes, through
// pools of 2, 8 and 256 frames, each batch one write scope flushed at its
// end and (bulk) the whole stream one. Where the files fit the pool, so
// no scope evicts, both charge the same stats, scope by scope.
// The batches put each updated row's delete beside its insert, as a fold
// does, move rows across leaves, delete rows inserted earlier in the
// batch, repeat key values across leaves, split leaves with wide rows,
// and now and then delete a row that is not there.
func TestApplyRunMatchesRowByRow(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, ps := range []int{256, 4000} {
		stream := foldStream(rng, ps)
		for _, kind := range []string{"btree", "btree+sec", "hash", "hash+sec"} {
			for _, frames := range []int{2, 8, 256} {
				for _, bulk := range []bool{false, true} {
					t.Run(fmt.Sprintf("%d/%s/frames=%d/bulk=%v", ps, kind, frames, bulk), func(t *testing.T) {
						run := func(batch func(r *testRel, rows []tuple.Tuple, signs []int8, cut *[]tuple.Tuple) error) (*testRel, []storage.Stats, int, *storage.DiskDelta, []string, []tuple.Tuple) {
							d := storage.NewDisk(ps)
							m := storage.NewMeter()
							p := storage.NewArena(d, frames).NewPool(m)
							var r *testRel
							var err error
							if strings.HasPrefix(kind, "hash") {
								r, err = newHash(d, p, "emp", empSchema(), 0, 4)
							} else {
								r, err = newBTree(d, p, "emp", empSchema(), 0)
							}
							if err == nil && strings.HasSuffix(kind, "+sec") {
								err = r.AddSecondary(2)
							}
							if err != nil {
								t.Fatal(err)
							}
							var errs []string
							var cut []tuple.Tuple
							var scopes []storage.Stats
							before := m.Snapshot()
							for i, b := range stream {
								errs = append(errs, fmt.Sprint(batch(r, b.rows, b.signs, &cut)))
								if bulk && i < len(stream)-1 {
									continue
								}
								if err := p.FlushAll(); err != nil {
									t.Fatal(err)
								}
								after := m.Snapshot()
								scopes, before = append(scopes, after.Sub(before)), after
							}
							p.AssertUnpinned(t)
							return r, scopes, d.TotalPages(), d.FullDelta(), errs, cut
						}
						ref, refM, refPages, refFiles, refErrs, refCut := run(func(r *testRel, rows []tuple.Tuple, signs []int8, cut *[]tuple.Tuple) error {
							for i, tp := range rows {
								var err error
								if signs[i] > 0 {
									err = insert(r, tp)
								} else if old, ok, derr := deleteRow(r, tp.Vals[0], tp.ID); derr != nil || !ok {
									err = derr
									if err == nil {
										err = btree.ErrAbsent
									}
								} else {
									*cut = append(*cut, old)
								}
								if err != nil {
									return fmt.Errorf("row %d: %w", i, err)
								}
							}
							return nil
						})
						got, gotM, gotPages, gotFiles, gotErrs, gotCut := run(func(r *testRel, rows []tuple.Tuple, signs []int8, cut *[]tuple.Tuple) error {
							n, err := r.ApplyRun(rows, signs, -1, cut)
							if errors.Is(err, btree.ErrAbsent) {
								err = btree.ErrAbsent // its message names the row; deleteRow's does not
							}
							if err != nil {
								return fmt.Errorf("row %d: %w", n, err)
							}
							return nil
						})
						if got.Len() != ref.Len() {
							t.Errorf("ApplyRun left %d tuples, rows one at a time %d", got.Len(), ref.Len())
						}
						if !reflect.DeepEqual(gotFiles, refFiles) {
							t.Error("ApplyRun and rows one at a time left different pages")
						}
						if max(refPages, gotPages) <= frames && !reflect.DeepEqual(gotM, refM) {
							t.Errorf("ApplyRun charged %v, rows one at a time %v", gotM, refM)
						}
						if fmt.Sprint(gotErrs) != fmt.Sprint(refErrs) {
							t.Errorf("ApplyRun errors %v, rows one at a time %v", gotErrs, refErrs)
						}
						if fmt.Sprint(gotCut) != fmt.Sprint(refCut) {
							t.Errorf("ApplyRun cut %v, rows one at a time %v", gotCut, refCut)
						}
					})
				}
			}
		}
	}
}

// foldBatch is a signed batch for Relation.ApplyRun.
type foldBatch struct {
	rows  []tuple.Tuple
	signs []int8
}

// foldStream returns random batches of emp rows shaped like folds: a few
// fresh rows, then updates — each the delete of a live row (rarely of
// one never stored) followed, after the batch's other deletes, by the
// insert of its new version under a fresh id, most at the same dept, some
// moved to another — and now and then a delete of a row inserted earlier
// in the same batch. Names run up to a third of a page, so inserts split
// leaves.
func foldStream(rng *rand.Rand, pageSize int) []foldBatch {
	var live []tuple.Tuple
	id := uint64(0)
	fresh := func(dept int64) tuple.Tuple {
		id++
		return emp(id, dept, strings.Repeat("n", rng.Intn(pageSize/3)), rng.Int63n(50))
	}
	var out []foldBatch
	for ops := 0; ops < 600; {
		var b foldBatch
		var adds []tuple.Tuple
		for n := rng.Intn(6); n > 0; n-- {
			adds = append(adds, fresh(rng.Int63n(300)))
		}
		for n := rng.Intn(12); n > 0 && len(live) > 0; n-- {
			i := rng.Intn(len(live))
			old := live[i]
			live = append(live[:i], live[i+1:]...)
			if rng.Intn(15) == 0 {
				old = emp(1<<40+id, old.Vals[0].Int(), "gone", 0)
			}
			b.rows = append(b.rows, old)
			b.signs = append(b.signs, -1)
			dept := old.Vals[0].Int()
			if rng.Intn(4) == 0 {
				dept = rng.Int63n(300)
			}
			adds = append(adds, fresh(dept))
		}
		for _, a := range adds {
			b.rows = append(b.rows, a)
			b.signs = append(b.signs, 1)
			if rng.Intn(10) == 0 {
				b.rows = append(b.rows, a)
				b.signs = append(b.signs, -1)
				continue
			}
			live = append(live, a)
		}
		ops += len(b.rows)
		out = append(out, b)
	}
	return out
}
