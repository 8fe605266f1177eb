package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"

	"viewmat/internal/colpage"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
)

// refreshViews are TestPopulatePagesPinned's view shapes over R and R2
// (asc, dups, scatter, join, child), the views TestRefreshPagesPinned
// maintains.
var refreshViews = populateViews[:5]

// refreshDB is populateDB's data with a secondary index on R.a, and the
// refreshViews views created with strategy.
func refreshDB(t testing.TB, frames int, strategy Strategy) *Database {
	t.Helper()
	db := NewDatabase(Options{PageSize: 512, PoolFrames: frames})
	r := tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("g", tuple.Int), tuple.Col("x", tuple.Int))
	r2 := tuple.NewSchema(tuple.Col("jk", tuple.Int), tuple.Col("info", tuple.Int))
	if _, err := db.CreateRelationBTree("R", r, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelationHash("R2", r2, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateSecondaryIndex("R", 1); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for k := int64(0); k < 600; k++ {
		if _, err := tx.Insert("R", tuple.I(k), tuple.I(k*37%600), tuple.I(k%13), tuple.I(k%5)); err != nil {
			t.Fatal(err)
		}
	}
	for jk := int64(0); jk < 40; jk++ {
		if _, err := tx.Insert("R2", tuple.I(jk), tuple.I(jk*7%11)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, d := range refreshViews {
		if err := db.CreateView(d, strategy); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// refreshTxs are the update transactions TestRefreshPagesPinned runs, in
// order. The first rewrites rows in place (same key, −old/+new pairs in
// the fold and in every view) and adds two rows that meet in one dups
// row, raising its count to 2; the second deletes both again (the count
// goes to 0), moves a row across leaves and rewrites rows of R2; the
// third inserts 30 rows of one key, which splits leaves of R, its index
// and the views.
var refreshTxs = []func(t testing.TB, db *Database, tx *Tx){
	func(t testing.TB, db *Database, tx *Tx) {
		for _, k := range []int64{10, 11, 200, 201, 420, 599} {
			if _, err := tx.Update("R", tuple.I(k), sourceID(t, db, "R", k), tuple.I(k), tuple.I(k*37%600), tuple.I(k%13), tuple.I((k+1)%5)); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range []int64{700, 701} {
			if _, err := tx.Insert("R", tuple.I(k), tuple.I(k), tuple.I(100), tuple.I(1)); err != nil {
				t.Fatal(err)
			}
		}
	},
	func(t testing.TB, db *Database, tx *Tx) {
		for _, k := range []int64{700, 701} {
			if err := tx.Delete("R", tuple.I(k), sourceID(t, db, "R", k)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Update("R", tuple.I(5), sourceID(t, db, "R", 5), tuple.I(440), tuple.I(5), tuple.I(4), tuple.I(2)); err != nil {
			t.Fatal(err)
		}
		for _, jk := range []int64{3, 7} {
			if _, err := tx.Update("R2", tuple.I(jk), sourceID(t, db, "R2", jk), tuple.I(jk), tuple.I(jk%3)); err != nil {
				t.Fatal(err)
			}
		}
	},
	func(t testing.TB, db *Database, tx *Tx) {
		for i := int64(0); i < 30; i++ {
			if _, err := tx.Insert("R", tuple.I(300), tuple.I(300), tuple.I(i%3), tuple.I(i%2)); err != nil {
				t.Fatal(err)
			}
		}
	},
}

// refreshDigest flushes the pool and returns a SHA-256 over every page of
// every file on the disk (with the directory entry each B+-tree leaf or
// hash chain page gives), every relation's and view's Len, each view's
// delta log, the next id and the meter.
func refreshDigest(t testing.TB, db *Database) string {
	t.Helper()
	if err := db.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "clock %d %v\n", db.clock.Load(), db.meter.Snapshot())
	for _, rn := range []string{"R", "R2"} {
		fmt.Fprintf(h, "rel %s len %d\n", rn, db.rels[rn].Len())
	}
	for _, d := range refreshViews {
		vs := db.views[d.Name]
		fmt.Fprintf(h, "view %s len %d log %d %d", d.Name, vs.mat.DistinctRows(), vs.logStart, vs.logGen)
		for _, e := range vs.deltaLog {
			fmt.Fprintf(h, " %v%v", e.insert, e.vals)
		}
		fmt.Fprintln(h)
	}
	names := db.disk.FileNames()
	slices.Sort(names)
	for _, name := range names {
		f := db.disk.Open(name)
		fmt.Fprintf(h, "file %s extent %d\n", name, f.Extent())
		switch {
		case strings.HasSuffix(name, ".btree") || strings.Contains(name, ".sec"):
			writeFileState(t, h, f)
		case strings.HasSuffix(name, ".hash") || strings.HasSuffix(name, ".ad"):
			const chain colpage.PageType = 5 // hashidx's chain page
			dir := colpage.NewDirectory(chain, f)
			for pn := storage.PageNum(0); pn < f.Extent(); pn++ {
				f.View(pn, func(page []byte) error { h.Write(page); return nil })
				if e, err := dir.Lookup(pn); err == nil && e != nil {
					fmt.Fprintf(h, "entry %d: next %d %v\n", pn, e.Next, e.HasNext)
				}
			}
		default:
			for pn := storage.PageNum(0); pn < f.Extent(); pn++ {
				f.View(pn, func(page []byte) error { h.Write(page); return nil })
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRefreshPagesPinned pins what maintaining the refreshViews views
// through refreshTxs leaves, Deferred (each commit followed by a deferred
// refresh: the fold of R's and R2's net changes, every view's apply,
// then the child's) and Immediate, through pools of 2, 8 and 256 frames: every page
// of every file, the directory entry each gives, every Len, the parent's
// delta log, the next id and the meter, after each step. The pool of 2
// frames is smaller than the trees are high. Its cells from the first
// commit on (deferred/2/1–5, immediate/2/0–2) were pinned again, reads
// only, when a view's count rewrite became the pair of its delete and
// insert: in such a pool each of the two descends on its own, where the
// deleted Tree.Update descended once for both. Every cell of the pools of
// 2 and 8 frames was pinned again, reads only, when a relation with a
// secondary index (R's, on a) came to take each row into its clustering
// tree and then its index, where a batch of inserts had gone to the tree
// and then the index one file at a time: R's load reads more in pools
// that evict inside the commit. The meter's cumulative reads, before and
// after, cell by cell:
//
//	deferred/2/0–5:  13 899→14 657, 14 418→15 176, 14 444→15 202,
//	                 17 275→18 033, 17 311→18 069, 18 887→19 645
//	deferred/8/0–5:  4 798→4 818, 5 014→5 034, 5 031→5 051,
//	                 7 514→7 534, 7 515→7 535, 8 131→8 151
//	immediate/2/0–2: 14 374→15 133, 17 202→17 961, 18 748→19 515
//	immediate/8/0–2: 4 955→4 975, 7 428→7 448, 8 022→8 042
//
// Writes, screens, AD touches and everything else the digest covers
// stayed as they were. Every cell was pinned again, writes only, when the
// pool came to write back a page once per write scope (one metered phase)
// rather than once per row: every page, directory entry, Len, log, id and
// read stayed as it was, and the cumulative writes went, cell by cell:
//
//	deferred/2/0–5:    4 081→4 056, 4 225→4 176, 4 233→4 181,
//	                   4 458→4 396, 4 491→4 411, 4 814→4 694
//	deferred/8/0–5:    2 896→1 982, 3 040→2 052, 3 048→2 056,
//	                   3 273→2 266, 3 306→2 270, 3 629→2 328
//	deferred/256/0–5:  1 880→461, 2 024→509, 2 032→513,
//	                   2 257→575, 2 290→579, 2 613→611
//	immediate/2/0–2:   4 195→4 151, 4 412→4 358, 4 727→4 633
//	immediate/8/0–2:   3 010→2 016, 3 227→2 218, 3 542→2 268
//	immediate/256/0–2: 1 994→489, 2 211→543, 2 526→567
//
// The deferred cells from the first refresh on (deferred/*/1–5) were
// pinned again, reads and writes only, when the deferred cycle came to
// skip an HR whose AD file holds no entry and Truncate came to leave an
// empty bucket page alone: R2's AD file is neither read nor rewritten in
// an epoch that changed only R, nor are R's empty buckets rewritten. Every
// page, directory entry, Len, log and id stayed as it was, and so did
// every immediate cell. The cumulative reads and writes went, cell by
// cell:
//
//	deferred/2/1–5:   reads 15 176→15 168, 15 202→15 194, 18 033→18 021,
//	                  18 069→18 057, 19 645→19 622;
//	                  writes 4 176→4 172, 4 181→4 177, 4 396→4 388,
//	                  4 411→4 403, 4 694→4 679
//	deferred/8/1–5:   reads 5 034→5 026, 5 051→5 043, 7 534→7 518,
//	                  7 535→7 519, 8 151→8 121;
//	                  writes 2 052→2 048, 2 056→2 052, 2 266→2 258,
//	                  2 270→2 262, 2 328→2 313
//	deferred/256/1–5: reads 146→142, 163→159, 360→352, 361→353, 445→430;
//	                  writes 509→505, 513→509, 575→567, 579→571, 611→596
func TestRefreshPagesPinned(t *testing.T) {
	want := map[string]string{
		"deferred/2/0":    "0e5fac83108fa73f22a1b3a1b8fd2f9311240af68af5fc4d94094ac449fa6141",
		"deferred/2/1":    "15dd667d881eb58be2d0f089faa35306f4cfd93f19a07b5255f30894f22762d4",
		"deferred/2/2":    "097826a69cf41eb933dfa8f839707b33475e0f1dce51e6d529fee2f20c6dbcdc",
		"deferred/2/3":    "a3c3e5e52e2687ac3ef93e140d56484fd97aee5446c9803dfba61b9fe39b731d",
		"deferred/2/4":    "2137ab80c0ad2292ba10b94a8b2ab8edb1d1a8d5e65a41b9fc32e205ce8067a6",
		"deferred/2/5":    "b043f2bad8969962baa792257382dd9d4af408c364ef3d0eea7a1b7cd26470c1",
		"deferred/8/0":    "fa62157c4e448c55f6c8e9866133a1ca44861a7497c58c495ea85ef4ac6a70d7",
		"deferred/8/1":    "a11e0e1458f8a3cedd076e4951dd2d8478e3ec3ad36375010cc22087cbb77863",
		"deferred/8/2":    "c464e139afb9556365784646ba4d6c093946b50768c31f4961bc9794ad23d870",
		"deferred/8/3":    "66ef758945659d84e04e996a27f12b24ce3ecdd63468d10c7199044b51283dfe",
		"deferred/8/4":    "40d56cb32c3da25de01452a4cba59b54b2203034bd3ba53f4e3f9200b193fd06",
		"deferred/8/5":    "fdf35c4127b6ae735772ab10c5a3cb6cc196a5284c12c9ee9a8d56c4a28c6f23",
		"deferred/256/0":  "ef9d0439b12581a964cee2b942eecd969e19e84e43b0e1666ea3fb4e3d6ad7d8",
		"deferred/256/1":  "d2fba003e3cea2f9c163715d81051c9d3c142a816ba85349e06269194c077307",
		"deferred/256/2":  "21372572bfca23591813d20d312735b3e0385c16de7f92537a0d44013c051994",
		"deferred/256/3":  "b36780356d510b05f1937e5d2903918251cfdf497d10a08cbc44943a98970f37",
		"deferred/256/4":  "e95a1c1585e7329266795e51ad7aef4e68cd774904edd320eb8aa7bf3411989a",
		"deferred/256/5":  "0ee4db4c19087887e3dd64b05771e017027d2292389b628de1c2e1cb294344a9",
		"immediate/2/0":   "45d55cb6625bb7e1da17a8032502a0a39e1f4c91f8f19b43b9d1f6938baeb9b0",
		"immediate/2/1":   "f0d33b2dd7951cc1ba17e8ae7c325751df4672d60e8662dcaa80ec6bbeb2c31b",
		"immediate/2/2":   "70ae5a069804ee9a1b65cb14e09f237acac6140197c4340acb17a8f1fa57bc06",
		"immediate/8/0":   "c11299016daff8649cca389bfb124ba44962f784b9cd7a1426ed4ea397678ca4",
		"immediate/8/1":   "46e89d94d7b8681ea5c8419dd267ae8340430e82b99d595dc8cd8d15bc3a1cb2",
		"immediate/8/2":   "65987b85a3d68846112824dda420b4ca644b6da3f679c5767746995b6423439d",
		"immediate/256/0": "f21def142dbe38da72368825d4decb066cd1288d5f5da326ef538d5b3b1e58e5",
		"immediate/256/1": "afe221ca76acea7e9fcc914e659b9aa5606371b4d2c4b750eb68ff3ce2c5dad1",
		"immediate/256/2": "d038a7dcf53e08fe2e9cc073894149b87c631ccfa5319ac3d2c8a0a185ca831b",
	}
	for _, strategy := range []Strategy{Deferred, Immediate} {
		for _, frames := range []int{2, 8, 256} {
			t.Run(fmt.Sprintf("%v/frames=%d", strategy, frames), func(t *testing.T) {
				db := refreshDB(t, frames, strategy)
				var got []string
				for _, run := range refreshTxs {
					tx := db.Begin()
					run(t, db, tx)
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					got = append(got, refreshDigest(t, db))
					if strategy == Deferred {
						for _, v := range []string{"asc", "child"} {
							if err := db.RefreshDeferredNow(v); err != nil {
								t.Fatal(err)
							}
						}
						got = append(got, refreshDigest(t, db))
					}
				}
				for i, g := range got {
					name := fmt.Sprintf("%v/%d/%d", strategy, frames, i)
					if g != want[name] {
						t.Errorf("%q: %q, pinned %q", name, g, want[name])
					}
				}
				for _, d := range refreshViews {
					if _, err := db.QueryView(d.Name, nil); err != nil {
						t.Fatal(err)
					}
				}
				db.Pool().AssertUnpinned(t)
			})
		}
	}
}
