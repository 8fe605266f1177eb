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
func TestRefreshPagesPinned(t *testing.T) {
	want := map[string]string{
		"deferred/2/0":    "2b203fbaf80df64401df1585d0685be779a4cdec6f3f0376e0c3f6327a8a3c3a",
		"deferred/2/1":    "c017d39d757892fd935ab8cd8b69d1f1d5e002f9a6c76d77a1bf4cb0a39cb202",
		"deferred/2/2":    "0ee8583da2cafa7d88dcdd9bb9551dadd254c1bb57be2c8d1e5fcbb29ee47653",
		"deferred/2/3":    "da2b3a05fb339bb837532e91ff261d568498c75f7771afce952624ec81037a1d",
		"deferred/2/4":    "7277bfe5cfb2ba0eaac2c9487e6b8bf6b0c82a9e7dbeb32e969cf9817a5bdb59",
		"deferred/2/5":    "f4069b18b2ac628d6c68c9807c9f601fffedd11d5603c2e89c2f9976b515c61f",
		"deferred/8/0":    "0c88ccb9785db42b75b8f23053bc10e65995cc5885cb9f6aa432760111b7a39a",
		"deferred/8/1":    "6ee77b1bb78384d1a855ae2755393c12d5edc5b497c7be59bada91e8fe382995",
		"deferred/8/2":    "f90ac002ee9a05ded54749641f92ef34c921a44420412c5ac92ba36d5bba5b07",
		"deferred/8/3":    "da5a427535272c521050043b769f27804e50831568b48cbb8c5d11a313a425cc",
		"deferred/8/4":    "fc995d997c8768aaa92eb165969a8e20d280603a9ad13d4f72d6f0bba0a366d1",
		"deferred/8/5":    "a87520c3ed07cb39eba6580806cb71313b1863132487b9e45844cc13f1c3b41e",
		"deferred/256/0":  "ef9d0439b12581a964cee2b942eecd969e19e84e43b0e1666ea3fb4e3d6ad7d8",
		"deferred/256/1":  "7431be9991db802bf05837bf1304897a10e61c438620486dd1ee3529830668d6",
		"deferred/256/2":  "216369bda2fe2b3346113ed1a5190af0e51af67cb0e5571147b998ab450729c3",
		"deferred/256/3":  "d67dc1c2a38e769482038180cf04a41df76308a5a04543cdf5dd867f0e49e75a",
		"deferred/256/4":  "415d0e2122feda72dc877d9aded47ca4de3f45aa814c77a80f339804fc5afde6",
		"deferred/256/5":  "77f696e5ba01296b4b90f8dcd896b5676cd373f54e6ca751e514d5568b8c2692",
		"immediate/2/0":   "52062836388185fc06b42e50d18fcb199cce6869345d948cfd797b4b4e8d950c",
		"immediate/2/1":   "f3e2292d87dc1e72e4a163afd78c79b579e5a2c7259068d41e108971987b1ed4",
		"immediate/2/2":   "f47841963a5d7dc7ab7aa29a91a836956d7bb87cf3aad22fcba0396051a71a11",
		"immediate/8/0":   "03ac9d67fa3517f94c840cfdbb1e2edfe9ad62c92a78a811316d115288bfa929",
		"immediate/8/1":   "6200cf0a1c0e83e47e033aba8ac42ee702bbde0f210c91bb73955be551f4c6fb",
		"immediate/8/2":   "ff93bb2b4b31fcfc66044ac411af6638ea7eb52931b5383f9f82e4ebc42e5890",
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
