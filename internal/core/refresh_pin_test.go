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
func TestRefreshPagesPinned(t *testing.T) {
	want := map[string]string{
		"deferred/2/0":    "2b203fbaf80df64401df1585d0685be779a4cdec6f3f0376e0c3f6327a8a3c3a",
		"deferred/2/1":    "d51581addca15dfe1dfa7f6ba90efdf3b04ea98870ac99a47e9b2469f7fd0f21",
		"deferred/2/2":    "ffa0711a979c8236f91af2747fef2e9ed8d06b2cefdd48ecc8885cb6e1682537",
		"deferred/2/3":    "e9aaf19345e04c32018317de103f1b257210abe44398f25b2c40e85d7eda8635",
		"deferred/2/4":    "9238430a898f84231f7b99083157709c35067ec8c9ffe42cb691d6f2df1144ef",
		"deferred/2/5":    "404404b91d34a41bb8e5c2994d2bfaff423291a13bbaf6031e2602ddf47737e8",
		"deferred/8/0":    "0c88ccb9785db42b75b8f23053bc10e65995cc5885cb9f6aa432760111b7a39a",
		"deferred/8/1":    "88e102a002d6cac44f8e6dd39c38450caf78f57d51a320c2a5e74cb58a72c077",
		"deferred/8/2":    "f7435707974eb307b38c9349da7b46a25af0648b18169ea683983134db96ad58",
		"deferred/8/3":    "ec16b1710537229343a4f25fdad01a1904ab5a48b1c38f48709a1cdbfa04aad2",
		"deferred/8/4":    "a72c78f9d43b0920ea8423035cd1c0bd4917af1f15b893a8aef70ef2ff6d49e7",
		"deferred/8/5":    "d91c4fec08aedadfc5ec38bfc2b86db24e8c7d31e53c48cbbb258fba875fabcf",
		"deferred/256/0":  "ef9d0439b12581a964cee2b942eecd969e19e84e43b0e1666ea3fb4e3d6ad7d8",
		"deferred/256/1":  "d2fba003e3cea2f9c163715d81051c9d3c142a816ba85349e06269194c077307",
		"deferred/256/2":  "21372572bfca23591813d20d312735b3e0385c16de7f92537a0d44013c051994",
		"deferred/256/3":  "b36780356d510b05f1937e5d2903918251cfdf497d10a08cbc44943a98970f37",
		"deferred/256/4":  "e95a1c1585e7329266795e51ad7aef4e68cd774904edd320eb8aa7bf3411989a",
		"deferred/256/5":  "0ee4db4c19087887e3dd64b05771e017027d2292389b628de1c2e1cb294344a9",
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
