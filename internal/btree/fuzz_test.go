package btree

import (
	"sort"
	"testing"

	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// FuzzBTree drives random insert/delete/range-scan sequences against
// the tree and checks every observation against a flat slice-and-sort
// oracle. Keys are drawn from a narrow signed-byte space so duplicate
// key values (distinguished only by tuple id, the tree's tiebreak) are
// common, and the 256-byte page size forces splits and merges early.
func FuzzBTree(f *testing.F) {
	f.Add([]byte{0, 5, 0, 5, 1, 0, 3, 250, 0, 130, 2, 5})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 0})
	f.Add([]byte{3, 3, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := storage.NewDisk(256)
		pool := storage.NewPool(d, storage.NewMeter(), 64)
		tr, err := New(pool, d.Open("t"), 0)
		if err != nil {
			t.Fatal(err)
		}

		type rec struct {
			k  int64
			id uint64
		}
		var live []rec
		sortedLive := func() []rec {
			s := append([]rec(nil), live...)
			sort.Slice(s, func(i, j int) bool {
				if s[i].k != s[j].k {
					return s[i].k < s[j].k
				}
				return s[i].id < s[j].id
			})
			return s
		}
		checkScan := func(rg *pred.Range, lo, hi int64, bounded bool) {
			it, err := tr.ScanBatches(rg, nil)
			if err != nil {
				t.Fatal(err)
			}
			var got []rec
			for _, tp := range collect(t, it) {
				got = append(got, rec{k: tp.Vals[0].Int(), id: tp.ID})
			}
			var want []rec
			for _, r := range sortedLive() {
				if bounded && (r.k < lo || r.k >= hi) {
					continue
				}
				want = append(want, r)
			}
			if len(got) != len(want) {
				t.Fatalf("scan[%d,%d): %d tuples, oracle says %d", lo, hi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("scan[%d,%d) position %d: got %+v, oracle %+v", lo, hi, i, got[i], want[i])
				}
			}
		}

		nextID := uint64(1)
		for len(data) >= 2 {
			op, arg := data[0], data[1]
			data = data[2:]
			switch op % 4 {
			case 0: // insert (dup-heavy key space)
				k := int64(int8(arg))
				id := nextID
				nextID++
				if err := tr.Insert(tuple.New(id, tuple.I(k), tuple.S("p"))); err != nil {
					t.Fatalf("insert (%d,%d): %v", k, id, err)
				}
				live = append(live, rec{k: k, id: id})
			case 1: // delete an existing tuple
				if len(live) == 0 {
					continue
				}
				j := int(arg) % len(live)
				victim := live[j]
				ok, err := tr.Delete(tuple.I(victim.k), victim.id)
				if err != nil {
					t.Fatalf("delete (%d,%d): %v", victim.k, victim.id, err)
				}
				if !ok {
					t.Fatalf("delete (%d,%d): tree says absent, oracle says live", victim.k, victim.id)
				}
				live = append(live[:j], live[j+1:]...)
			case 2: // delete a tuple that was never inserted
				ok, err := tr.Delete(tuple.I(int64(int8(arg))), nextID+1<<40)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					t.Fatalf("deleted absent tuple (key %d)", int8(arg))
				}
			case 3: // bounded range scan vs oracle
				lo := int64(int8(arg))
				hi := lo + 16
				loV, hiV := tuple.I(lo), tuple.I(hi)
				checkScan(&pred.Range{Lo: &loV, LoInc: true, Hi: &hiV, HiInc: false}, lo, hi, true)
			}
			if tr.Len() != len(live) {
				t.Fatalf("Len = %d, oracle has %d live tuples", tr.Len(), len(live))
			}
		}
		// Final full scan and point lookups.
		checkScan(nil, 0, 0, false)
		for _, r := range live {
			tp, ok, err := tr.Get(tuple.I(r.k), r.id)
			if err != nil || !ok {
				t.Fatalf("Get(%d,%d): ok=%v err=%v", r.k, r.id, ok, err)
			}
			if tp.ID != r.id || tp.Vals[0].Int() != r.k {
				t.Fatalf("Get(%d,%d) returned (%d,%d)", r.k, r.id, tp.Vals[0].Int(), tp.ID)
			}
		}
	})
}
