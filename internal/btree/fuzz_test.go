package btree

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// FuzzBTree drives random insert/insert-run/signed-run/delete/update/
// range-scan sequences against the tree and checks every observation
// against a flat slice-and-sort oracle. A run op inserts the rows keyed
// by the script's next 1–8 bytes through one ApplyRun, so a run of
// rising bytes fills a leaf in one visit and a run that crosses leaves
// ends one visit and starts the next. A signed-run op hands the script's
// next 1–8 bytes to one ApplyRun, each a delete of a live tuple (possibly
// one the run inserted) or an insert, so a visit holds several leaves
// open and applies deletes beside inserts. Keys are drawn from a narrow space so duplicate
// key values (distinguished only by tuple id, the tree's tiebreak) are
// common, and the 256-byte page size forces splits early. A leading byte
// with its high bit set is a mode byte: it selects string keys of varying
// width, so the internal pages' separators are variable-width and the
// in-place descent compares strings where they lie (int keys if bit 0x20
// is set too), and with bit 0x40 payloads of 0 to 170 bytes, so a leaf
// holds anything from one tuple to a dozen and a split must find a cut
// where both halves fit. With bit 0x10 the keys are strings of 0 to
// 1 950 bytes on 4 000-byte pages, so two separators can fill an
// internal page and its split too must find a cut where both halves
// fit. Any other input is an int-keyed script of short payloads, which
// is what every input was before the mode byte (the first three seeds
// run as they always did). After every op the leaf directory the
// writers kept must equal one rebuilt from the flushed images.
func FuzzBTree(f *testing.F) {
	f.Add([]byte{0, 5, 0, 5, 1, 0, 3, 250, 0, 130, 2, 5})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 0})
	f.Add([]byte{3, 3, 2, 9})
	f.Add([]byte{0x80, 0, 5, 0, 5, 0, 77, 0, 12, 0, 200, 4, 3, 5, 1, 0, 9, 3, 2, 2, 5})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 4, 0, 4, 0, 5, 1, 3, 0, 1, 0})
	f.Add([]byte{0xE0, 0, 1, 0, 169, 0, 3, 0, 2, 0, 160, 4, 7, 5, 1, 0, 255, 1, 0, 3, 0})
	f.Add([]byte{0xC0, 0, 10, 0, 170, 0, 11, 6, 169, 4, 2, 5, 3, 7, 0, 0, 9, 3, 1})
	// Signed runs: inserts beside deletes of rows stored earlier and of
	// rows the same run inserted, on short and on wide payloads.
	f.Add([]byte{0, 5, 0, 9, 0, 20, 0, 40, 7, 7, 9, 2, 11, 4, 40, 3, 13, 6, 3, 0})
	f.Add([]byte{0xC0, 0, 10, 0, 170, 0, 11, 7, 6, 1, 160, 12, 3, 5, 169, 7, 3, 2, 4, 3, 3, 0})
	// Runs: rising keys that fill and split leaves, then a run that
	// falls back across them, on short and on wide payloads.
	f.Add([]byte{0, 5, 6, 7, 1, 2, 3, 4, 5, 6, 7, 8, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 6, 7, 60, 50, 40, 30, 20, 10, 0, 250, 3, 0, 1, 4})
	f.Add([]byte{0xE0, 6, 7, 10, 170, 11, 169, 12, 160, 13, 100, 14, 165, 6, 3, 12, 12, 12, 12, 4, 12, 3, 11})
	// Wide keys: 60 inserts of 0-, 50- and 1 800–1 950-byte keys, then a
	// scan, a delete and two updates. A split by count wrote an internal
	// page of three wide separators, 5 554 bytes, over its frame.
	f.Add([]byte{
		144, 0, 40, 0, 0, 0, 1, 0, 0, 0, 1, 0, 77, 0, 40, 0, 118, 0, 41, 0, 81, 0, 41, 0,
		40, 0, 119, 0, 80, 0, 117, 0, 38, 0, 40, 0, 1, 0, 80, 0, 41, 0, 37, 0, 36, 0, 41, 0,
		80, 0, 37, 0, 41, 0, 36, 0, 0, 0, 1, 0, 80, 0, 80, 0, 0, 0, 1, 0, 117, 0, 1, 0,
		0, 0, 40, 0, 0, 0, 1, 0, 40, 0, 80, 0, 41, 0, 81, 0, 119, 0, 81, 0, 41, 0, 41, 0,
		39, 0, 0, 0, 0, 0, 0, 0, 79, 0, 79, 0, 1, 0, 41, 0, 1, 0, 80, 0, 38, 0, 77, 0,
		81, 3, 0, 1, 5, 4, 9, 5, 3, 3, 77,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		var strKeys, wide, wideKeys bool
		if len(data) > 0 && data[0]&0x80 != 0 {
			wideKeys = data[0]&0x10 != 0
			strKeys, wide = data[0]&0x20 == 0 || wideKeys, data[0]&0x40 != 0
			data = data[1:]
		}
		// payload is the string a tuple carries for arg: short, unless
		// the script is wide.
		payload := func(prefix string, arg byte, short int) string {
			if wide {
				return prefix + strings.Repeat("x", int(arg)%171)
			}
			return prefix + strings.Repeat("x", short)
		}
		keyOfArg := func(arg byte) tuple.Value {
			if wideKeys {
				// Widths 0–1 950 in steps of 50, in three letters.
				return tuple.S(strings.Repeat(string(rune('a'+arg%3)), int(arg%40)*50))
			}
			if strKeys {
				// Widths 1–7 over a dozen values: long and short separators,
				// and prefixes of one another.
				return tuple.S(strings.Repeat("k", int(arg%6)) + fmt.Sprint(arg%12))
			}
			return tuple.I(int64(int8(arg)))
		}
		pageSize := 256
		if wideKeys {
			pageSize = 4000
		}
		d := storage.NewDisk(pageSize)
		pool := storage.NewArena(d, 64).NewPool(storage.NewMeter())
		tr, err := newTree(pool, d.Open("t"), 0)
		if err != nil {
			t.Fatal(err)
		}

		type rec struct {
			k  tuple.Value
			id uint64
			p  string
		}
		recOf := func(tp tuple.Tuple) rec { return rec{k: tp.Vals[0], id: tp.ID, p: tp.Vals[1].Str()} }
		same := func(a, b rec) bool { return tuple.Equal(a.k, b.k) && a.id == b.id && a.p == b.p }
		var live []rec
		sortedLive := func() []rec {
			s := append([]rec(nil), live...)
			sort.Slice(s, func(i, j int) bool {
				if c := tuple.Compare(s[i].k, s[j].k); c != 0 {
					return c < 0
				}
				return s[i].id < s[j].id
			})
			return s
		}
		checkScan := func(rg *pred.Range) {
			it, err := tr.ScanBatches(rg, nil)
			if err != nil {
				t.Fatal(err)
			}
			var got []rec
			for _, tp := range collect(t, it) {
				got = append(got, recOf(tp))
			}
			var want []rec
			for _, r := range sortedLive() {
				if rg == nil || rg.Contains(r.k) {
					want = append(want, r)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("scan %v: %d tuples, oracle says %d", rg, len(got), len(want))
			}
			for i := range got {
				if !same(got[i], want[i]) {
					t.Fatalf("scan %v position %d: got %+v, oracle %+v", rg, i, got[i], want[i])
				}
			}
		}

		nextID := uint64(1)
		for len(data) >= 2 {
			op, arg := data[0], data[1]
			data = data[2:]
			switch op % 8 {
			case 0: // insert (dup-heavy key space)
				r := rec{k: keyOfArg(arg), id: nextID, p: payload("p", arg, 0)}
				nextID++
				if err := insert(tr, tuple.New(r.id, r.k, tuple.S(r.p))); err != nil {
					t.Fatalf("insert %+v: %v", r, err)
				}
				live = append(live, r)
			case 6: // insert a run keyed by the script's next 1–8 bytes
				var run []tuple.Tuple
				for n := int(arg%8) + 1; n > 0 && len(data) > 0; n-- {
					r := rec{k: keyOfArg(data[0]), id: nextID, p: payload("p", data[0], 0)}
					nextID++
					data = data[1:]
					run = append(run, tuple.New(r.id, r.k, tuple.S(r.p)))
					live = append(live, r)
				}
				if err := insertRun(tr, run); err != nil {
					t.Fatalf("insert run %v: %v", run, err)
				}
			case 7: // a signed run: each of the script's next 1–8 bytes deletes a live tuple (odd) or inserts one keyed by it (even)
				var run, gone []tuple.Tuple
				var signs []int8
				for n := int(arg%8) + 1; n > 0 && len(data) > 0; n-- {
					b := data[0]
					data = data[1:]
					if b&1 == 1 && len(live) > 0 {
						j := int(b>>1) % len(live)
						run = append(run, tuple.New(live[j].id, live[j].k))
						signs = append(signs, -1)
						gone = append(gone, tuple.New(live[j].id, live[j].k, tuple.S(live[j].p)))
						live = append(live[:j], live[j+1:]...)
						continue
					}
					r := rec{k: keyOfArg(b), id: nextID, p: payload("s", b, 1)}
					nextID++
					run = append(run, tuple.New(r.id, r.k, tuple.S(r.p)))
					signs = append(signs, 1)
					live = append(live, r)
				}
				var cut []tuple.Tuple
				if n, err := tr.ApplyRun(run, signs, -1, &cut); err != nil || n != len(run) {
					t.Fatalf("signed run %v %v: applied %d: %v", run, signs, n, err)
				}
				if fmt.Sprint(cut) != fmt.Sprint(gone) {
					t.Fatalf("signed run %v %v cut %v, want %v", run, signs, cut, gone)
				}
			case 1: // delete an existing tuple
				if len(live) == 0 {
					continue
				}
				j := int(arg) % len(live)
				victim := live[j]
				old, ok, err := deleteRow(tr, victim.k, victim.id)
				if err != nil {
					t.Fatalf("delete %+v: %v", victim, err)
				}
				if !ok {
					t.Fatalf("delete %+v: tree says absent, oracle says live", victim)
				}
				if !same(recOf(old), victim) {
					t.Fatalf("delete %+v returned %+v", victim, recOf(old))
				}
				live = append(live[:j], live[j+1:]...)
			case 2: // delete a tuple that was never inserted
				_, ok, err := deleteRow(tr, keyOfArg(arg), nextID+1<<40)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					t.Fatalf("deleted absent tuple (key %v)", keyOfArg(arg))
				}
			case 3: // bounded range scan vs oracle
				lo := keyOfArg(arg)
				hi := tuple.I(lo.Int() + 16)
				if strKeys {
					hi = tuple.S(lo.Str() + "~")
				}
				checkScan(&pred.Range{Lo: &lo, LoInc: true, Hi: &hi, HiInc: false})
			case 4, 5: // update an existing tuple, the pair of its delete and an insert: to a new key and id, or in place
				if len(live) == 0 {
					continue
				}
				j := int(arg) % len(live)
				victim := live[j]
				r := rec{k: keyOfArg(arg * 7), id: nextID, p: payload("u", arg*13, int(arg%9))}
				if op%8 == 5 {
					r.k, r.id = victim.k, victim.id // a duplicate count rewritten
				} else {
					nextID++
				}
				var cut []tuple.Tuple
				pair := []tuple.Tuple{tuple.New(victim.id, victim.k), tuple.New(r.id, r.k, tuple.S(r.p))}
				if _, err := tr.ApplyRun(pair, []int8{-1, 1}, -1, &cut); err != nil {
					t.Fatalf("update %+v to %+v: %v", victim, r, err)
				}
				if len(cut) != 1 || !same(recOf(cut[0]), victim) {
					t.Fatalf("update %+v cut %v", victim, cut)
				}
				live[j] = r
			}
			if tr.Len() != len(live) {
				t.Fatalf("Len = %d, oracle has %d live tuples", tr.Len(), len(live))
			}
			if err := checkDirectory(tr); err != nil {
				t.Fatalf("after op %d: %v", op%8, err)
			}
		}
		// Final full scan and point lookups.
		checkScan(nil)
		for _, r := range live {
			tp, ok, err := tr.Get(r.k, r.id)
			if err != nil || !ok {
				t.Fatalf("Get(%+v): ok=%v err=%v", r, ok, err)
			}
			if !same(recOf(tp), r) {
				t.Fatalf("Get(%+v) returned %+v", r, recOf(tp))
			}
		}
		pool.AssertUnpinned(t)
	})
}
