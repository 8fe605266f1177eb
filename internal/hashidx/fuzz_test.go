package hashidx

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"viewmat/internal/btree"
	"viewmat/internal/colpage"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// FuzzHashIndex drives random scripts of signed ApplyRun batches, point
// reads, full and pruned scans and truncates against the index and
// checks every observation against a map from id to row. The first byte
// picks the number of primary buckets (1–4); then each op is two bytes.
// A signed-run op hands the script's next 1–8 bytes to one ApplyRun:
// each inserts a row keyed by it, deletes a live row (possibly one the
// run inserted), or deletes a row the index never held, which stops the
// run there with btree.ErrAbsent and leaves the rows before it applied.
// Keys are drawn from a narrow space, so duplicate key values are
// common, and payloads of 0 to 60 bytes on 256-byte pages grow overflow
// chains quickly. A truncate must charge nothing, not even at the flush
// after it, and leave buckets with no page that the ops after it read,
// delete from and refill. After every op the index's row count must
// match the model, the page directory the writers kept must equal one
// rebuilt from the flushed images, and its page count a walk of every
// bucket chain over those images, which must reach every page the file
// holds.
func FuzzHashIndex(f *testing.F) {
	f.Add([]byte{2, 0, 5, 1, 3, 2, 7, 3, 0, 0, 4})
	f.Add([]byte{1, 0, 7, 0, 2, 4, 6, 8, 10, 12, 14, 0, 7, 1, 3, 5, 7, 9, 11, 13, 15, 3, 9, 2, 0})
	f.Add([]byte{4, 0, 7, 16, 32, 48, 64, 80, 96, 112, 128, 4, 0, 0, 7, 200, 202, 3, 204, 206, 1, 3, 5, 3, 1})
	// A run that deletes a row it inserted, then one stopped by a delete
	// of a row never held, then the model is read back key by key.
	f.Add([]byte{3, 0, 3, 10, 12, 1, 1, 0, 4, 20, 22, 7, 24, 26, 2, 10, 2, 20, 1, 0, 3, 6})
	// A truncate of a full index; then a Get, a Lookup and a delete of a
	// row never held in buckets with no page, a refill, deletes from it,
	// scans, and a second truncate.
	f.Add([]byte{3, 0, 5, 8, 12, 16, 20, 24, 28, 4, 0, 1, 0, 2, 3, 0, 0, 3, 0, 3, 8, 12, 16, 20, 1, 0, 0, 1, 1, 5, 3, 0, 4, 0, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		buckets := int(data[0]%4) + 1
		data = data[1:]
		d := storage.NewDisk(256)
		meter := storage.NewMeter()
		pool := storage.NewArena(d, 64).NewPool(meter)
		ix, err := newIndex(pool, d.Open("h"), 0, buckets)
		if err != nil {
			t.Fatal(err)
		}

		type rec struct {
			k int64
			p string
		}
		model := map[uint64]rec{}
		keyOf := func(b byte) int64 { return int64(b % 12) }
		row := func(id uint64, r rec) tuple.Tuple { return tuple.New(id, tuple.I(r.k), tuple.S(r.p)) }
		liveIDs := func() []uint64 {
			ids := make([]uint64, 0, len(model))
			for id := range model {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			return ids
		}
		// checkRows fails the test unless got holds each row of want
		// exactly once, and nothing else.
		checkRows := func(what string, got []tuple.Tuple, want map[uint64]rec) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: %d rows, model says %d", what, len(got), len(want))
			}
			seen := map[uint64]bool{}
			for _, tp := range got {
				r, ok := want[tp.ID]
				if !ok || seen[tp.ID] || tp.Vals[0].Int() != r.k || tp.Vals[1].Str() != r.p {
					t.Fatalf("%s: row %v, model says %+v (held %v, seen %v)", what, tp, r, ok, seen[tp.ID])
				}
				seen[tp.ID] = true
			}
		}

		nextID := uint64(1)
		for len(data) >= 2 {
			op, arg := data[0], data[1]
			data = data[2:]
			switch op % 5 {
			case 0: // a signed run of the script's next 1–8 bytes
				var run, gone []tuple.Tuple
				var signs []int8
				stop := -1 // the absent delete that ends the run
				for n := int(arg%8) + 1; n > 0 && len(data) > 0; n-- {
					b := data[0]
					data = data[1:]
					switch {
					case b%4 == 1 && len(model) > 0:
						ids := liveIDs()
						id := ids[int(b>>2)%len(ids)]
						run = append(run, tuple.New(id, tuple.I(model[id].k)))
						signs = append(signs, -1)
						if stop < 0 {
							gone = append(gone, row(id, model[id]))
							delete(model, id)
						}
					case b%4 == 3:
						run = append(run, tuple.New(nextID+1<<40, tuple.I(keyOf(b>>2))))
						signs = append(signs, -1)
						if stop < 0 {
							stop = len(run) - 1
						}
					default:
						r := rec{k: keyOf(b >> 2), p: strings.Repeat("p", int(b)%61)}
						run = append(run, row(nextID, r))
						signs = append(signs, 1)
						if stop < 0 {
							model[nextID] = r
						}
						nextID++
					}
				}
				var cut []tuple.Tuple
				n, err := ix.ApplyRun(run, signs, &cut)
				switch {
				case stop < 0 && (err != nil || n != len(run)):
					t.Fatalf("signed run %v %v: applied %d: %v", run, signs, n, err)
				case stop >= 0 && (!errors.Is(err, btree.ErrAbsent) || n != stop):
					t.Fatalf("signed run %v %v: applied %d: %v; want %d and ErrAbsent", run, signs, n, err, stop)
				}
				if fmt.Sprint(cut) != fmt.Sprint(gone) {
					t.Fatalf("signed run %v %v cut %v, want %v", run, signs, cut, gone)
				}
			case 1: // Get of a live row, or of one never held
				id, k := nextID+1<<40, keyOf(arg)
				if ids := liveIDs(); arg%2 == 0 && len(ids) > 0 {
					id = ids[int(arg>>1)%len(ids)]
					k = model[id].k
				}
				tp, ok, err := ix.Get(tuple.I(k), id)
				r, live := model[id]
				if err != nil || ok != live {
					t.Fatalf("Get(%d, %d): ok=%v err=%v, model holds it: %v", k, id, ok, err, live)
				}
				if ok {
					checkRows(fmt.Sprintf("Get(%d, %d)", k, id), []tuple.Tuple{tp}, map[uint64]rec{id: r})
				}
			case 2: // Lookup of a key
				k := keyOf(arg)
				got, err := ix.Lookup(tuple.I(k))
				if err != nil {
					t.Fatal(err)
				}
				want := map[uint64]rec{}
				for id, r := range model {
					if r.k == k {
						want[id] = r
					}
				}
				checkRows(fmt.Sprintf("Lookup(%d)", k), got, want)
			case 3: // a full scan, pruning on key < arg%13 when arg is odd
				var atoms []colpage.Atom
				if arg%2 == 1 {
					atoms = []colpage.Atom{{Col: 0, Op: pred.Lt, Val: tuple.I(int64(arg % 13))}}
				}
				batches, _, err := ix.ScanAllBatches(0, atoms)
				if err != nil {
					t.Fatal(err)
				}
				var got []tuple.Tuple
				for _, b := range batches {
					got = b.AppendTuples(got, 0)
				}
				if atoms == nil {
					checkRows("ScanAll", got, model)
					break
				}
				// A pruned scan returns every row the atom keeps, each once;
				// anything else it returns must be a row the model holds.
				want := map[uint64]rec{}
				for id, r := range model {
					if r.k < int64(arg%13) {
						want[id] = r
					}
				}
				var kept []tuple.Tuple
				for _, tp := range got {
					if _, ok := model[tp.ID]; !ok {
						t.Fatalf("pruned scan returned %v, which the model does not hold", tp)
					}
					if tp.Vals[0].Int() < int64(arg%13) {
						kept = append(kept, tp)
					}
				}
				checkRows(fmt.Sprintf("pruned ScanAll(key < %d)", arg%13), kept, want)
			case 4: // truncate, which reads and writes nothing
				before := meter.Snapshot()
				if err := ix.Truncate(); err != nil {
					t.Fatal(err)
				}
				if err := pool.FlushAll(); err != nil {
					t.Fatal(err)
				}
				if got := meter.Snapshot().Sub(before); got != (storage.Stats{}) {
					t.Fatalf("truncate charged %+v, want nothing", got)
				}
				clear(model)
			}
			if ix.Len() != len(model) {
				t.Fatalf("Len = %d, model holds %d rows", ix.Len(), len(model))
			}
			if err := checkDirectory(ix); err != nil {
				t.Fatalf("after op %d: %v", op%5, err)
			}
		}
		all, err := scanAll(ix)
		if err != nil {
			t.Fatal(err)
		}
		checkRows("final scan", all, model)
		pool.AssertUnpinned(t)
	})
}
