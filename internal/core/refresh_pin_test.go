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

// refreshDigest returns a SHA-256 over every page of
// every file on the disk (with the directory entry each B+-tree leaf or
// hash chain page gives), every relation's and view's Len, each view's
// delta log, the next id and the meter.
func refreshDigest(t testing.TB, db *Database) string {
	t.Helper()
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
//
// Every cell of the pools of 2 and 8 frames was pinned again, reads and
// writes only, when a relation with secondary indexes came to take each
// batch into its clustering tree whole and then into each index whole:
// R's load and commits no longer evict the tree's pages to reach the
// index's and back row by row. With the meter left out of the digest,
// every cell's digest equalled the one before; the 256-frame cells did
// not move. The cumulative reads and writes went, cell by cell:
//
//	deferred/2/0–5:  reads 14 657→13 899, 15 168→14 410, 15 194→14 436,
//	                 18 021→17 263, 18 057→17 299, 19 622→18 856;
//	                 writes 4 056→3 832, 4 172→3 948, 4 177→3 953,
//	                 4 388→4 164, 4 403→4 179, 4 679→4 455
//	deferred/8/0–5:  reads 4 818→4 798, 5 026→4 997, 5 043→5 014,
//	                 7 518→7 488, 7 519→7 489, 8 121→8 091;
//	                 writes 1 982→1 963, 2 048→2 025, 2 052→2 029,
//	                 2 258→2 235, 2 262→2 239, 2 313→2 290
//	immediate/2/0–2: reads 15 133→14 374, 17 961→17 202, 19 515→18 748;
//	                 writes 4 151→3 927, 4 358→4 134, 4 633→4 409
//	immediate/8/0–2: reads 4 975→4 954, 7 448→7 427, 8 042→8 021;
//	                 writes 2 016→1 997, 2 218→2 199, 2 268→2 249
//
// The deferred cells from the first refresh on (deferred/*/1–5) were
// pinned again, AD pages and the meter only, when a fold's Truncate
// came to free the AD file's pages, neither read nor written, and the
// next commit to allocate a bucket's page unread. With the meter and the
// AD files left out of the digest, every cell's digest equalled the one
// before; no immediate cell moved. The cumulative reads and writes went,
// cell by cell:
//
//	deferred/2/1–5:   reads 14 410→14 406, 14 436→14 429, 17 263→17 251,
//	                  17 299→17 286, 18 856→18 836;
//	                  writes 3 948→3 944, 3 953→3 949, 4 164→4 156,
//	                  4 179→4 171, 4 455→4 446
//	deferred/8/1–5:   reads 4 997→4 993, 5 014→5 007, 7 488→7 477,
//	                  7 489→7 477, 8 091→8 075;
//	                  writes 2 025→2 021, 2 029→2 025, 2 235→2 227,
//	                  2 239→2 231, 2 290→2 281
//	deferred/256/1–5: reads 142→142, 159→156, 352→349, 353→349, 430→426;
//	                  writes 505→501, 509→505, 567→559, 571→563, 596→587
//
// Most cells were pinned again, reads only, when each operation came to
// run on a pool of its own: creating the views populates them from a
// cold pool, and the test's own key lookups (sourceID) are operations of
// their own, so they no longer hit pages an earlier operation left. With
// the meter left out of the digest every cell's digest equalled the one
// before; every cell's cumulative reads rose by the same few reads it
// rose by at set-up (+1 at 2 frames, +10 to +15 at 8, +452 to +461 at
// 256), and no write, screen or AD touch moved.
func TestRefreshPagesPinned(t *testing.T) {
	want := map[string]string{
		"deferred/2/0":    "2b203fbaf80df64401df1585d0685be779a4cdec6f3f0376e0c3f6327a8a3c3a",
		"deferred/2/1":    "c017d39d757892fd935ab8cd8b69d1f1d5e002f9a6c76d77a1bf4cb0a39cb202",
		"deferred/2/2":    "dba743ed9edf0c8bf2808cdf49c2d5a8b55ba7e96fc1d5210b3c6e6c20b35e4c",
		"deferred/2/3":    "f3c8f7838705a7420d6a8515503eda1c036adebf995246f54b120f0288ec6652",
		"deferred/2/4":    "9074e59cf50c5ba5bbe4aa74c18074166bbf6016d3c68aaf122e7d06b5c3883f",
		"deferred/2/5":    "635274d877ad300f42249ddaf96410a9a7a6180b88a9b117988c05b688132353",
		"deferred/8/0":    "39eaa152a83e1919132fe20e47b4efc7b24ce6980477b1660dd5aa644e44dc14",
		"deferred/8/1":    "09aa5d9f0f0b0461b29cf92e4eb51bce7de77a741899d315b8c07eaca2242f9b",
		"deferred/8/2":    "cb250a4b4269a6f81a672c992f5e759ffac7c542631be0a434f972721679501b",
		"deferred/8/3":    "a1c1f9cdee94a0bc4a36fdbf2f10c63561e6a9c2a767b5da8cf40e02393320ab",
		"deferred/8/4":    "4d1d40e312c10f6785876e7b7635eca8a5aa5037ef8b5a7f213b393f5c74f56d",
		"deferred/8/5":    "541e7e88df9b7489344e9e33a173e6dbc6ad8d478bc869f4af56f8e472bd28ee",
		"deferred/256/0":  "ec45615a77a88772a3f8496d0669f9a95544e5039dee4232f018336f77fc1757",
		"deferred/256/1":  "f78d3d9880d805d5a48e36da0e335a3aa4d27244e2307af2451df952a5e68eec",
		"deferred/256/2":  "bddd18525802d88fb1b844df7f46d05fc12bea2b3e9b6b8764625f6cfb91b0df",
		"deferred/256/3":  "383c78f8687a91da54c988245f5e999cceaf6fb57560b78287990812a5594d50",
		"deferred/256/4":  "b71a1166df189980f96e0f9218b3a4881ef14e596f03bb7e5e779a67aa618701",
		"deferred/256/5":  "5345e5d34ab2011d99d46127cb1849b1f7123d8062e5f0436b82355fbd1a173b",
		"immediate/2/0":   "52062836388185fc06b42e50d18fcb199cce6869345d948cfd797b4b4e8d950c",
		"immediate/2/1":   "ce986c63c4d39f96cc18a50e57305db32028605966a03e97e1aa8ea4aafb5d41",
		"immediate/2/2":   "13f739b6fca1bf2cbda42378317d05968948f371478824bfd769410f8fd022e1",
		"immediate/8/0":   "9fd86d0ee07c54c52637c40cb89197cfb7c3d83c6877bc6d296fde1123827ac9",
		"immediate/8/1":   "4849a09e3e69604e4d57347311c0e228fb7ea0edb92cc72c8acd13574ecdff56",
		"immediate/8/2":   "593bc126641d98e7b6942947bc50426936bef6c948f404ea3ea43fadb7364e18",
		"immediate/256/0": "8b1ed0173545800bfb4281d955ff22195b4ca88396fdb2807fe488132bd3426c",
		"immediate/256/1": "73ac6eaafb010ced1a5945e4182d64ca2ec667278ecd85db7bf3870c8d5a5d37",
		"immediate/256/2": "4a3c6b2d406ba2538131f2dde70d637bb03d2bb85f80d938c1975de09b1d68b4",
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
				db.assertUnpinned(t)
			})
		}
	}
}
