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
func TestRefreshPagesPinned(t *testing.T) {
	want := map[string]string{
		"deferred/2/0":    "0e5fac83108fa73f22a1b3a1b8fd2f9311240af68af5fc4d94094ac449fa6141",
		"deferred/2/1":    "acdc6bb52bfe2d8470a06dee74fc041a15b7602449398f9e4befd9144ee5b303",
		"deferred/2/2":    "8be5711e30de7b48a4d01e8abfc1bb1f7f72cd67bcb707bbdb7fb268f926da40",
		"deferred/2/3":    "14e2343d1d62671bad1dcb7b57ff7b6f331efb2083a033f0f3e7a2414a28f9a8",
		"deferred/2/4":    "fea53c3aa9409f2c368e7d3dc9ba17b7f6b2826987a06e192734bc60061434eb",
		"deferred/2/5":    "cece93c72cbad5ef05c13ffcddf8bbe238fcd2c0b77d865888d25699258fe07b",
		"deferred/8/0":    "fa62157c4e448c55f6c8e9866133a1ca44861a7497c58c495ea85ef4ac6a70d7",
		"deferred/8/1":    "380c837dcace91722050c0bf558728b32dd863c970d5f85f86311a3a80198b25",
		"deferred/8/2":    "40952c2388b1217c02fd1ab058a651181c498d6518bcb4bdd51c967fb37a75fd",
		"deferred/8/3":    "34a3334a87a808056f5ac0b5f2d6a4b95c824329405ebcf1f4aca936278513a5",
		"deferred/8/4":    "3d582bd923dceda67984ba2f92576692e1f6898a4e3dcb990b3c02dedd1a13d1",
		"deferred/8/5":    "6f13ea8f2c6f456d6e93400a248c87d4583f4c2a61d9a4a5bf9774468e6f322f",
		"deferred/256/0":  "ef9d0439b12581a964cee2b942eecd969e19e84e43b0e1666ea3fb4e3d6ad7d8",
		"deferred/256/1":  "ec8fd8e375bc1129eb0274ad1ce12ab3642cc28eb51b6cb96b25cb656d12b47f",
		"deferred/256/2":  "5d8aa1bc83d813fd39c1dc1bfac96a223b3746340179a2c455838733d3f82663",
		"deferred/256/3":  "c970f38c2606619c03724273fa785af8bfcb09e9b7cb4d3dcfaa168d8a65a71d",
		"deferred/256/4":  "254e70a0e9da089f24ecdf68c589d7eac09f124e215e19dfcbce76fabae4096c",
		"deferred/256/5":  "afe5813bc688dc2db0b6988787a642667e6ee9523627f5ec665634191482536a",
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
