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
// deleted Tree.Update descended once for both.
func TestRefreshPagesPinned(t *testing.T) {
	want := map[string]string{
		"deferred/2/0":    "4cd74885bc6748a410d8571572d0277f4df77319eb3c81be48068fe778ed8886",
		"deferred/2/1":    "4a37641545cefc15f6021eae0380db286f3540f265bbbc88b85be80dfa18da30",
		"deferred/2/2":    "5977d9ba66f6f193a9073bf8ff5b778f4106c6b82bb1c365a105f2d8ecaa8b06",
		"deferred/2/3":    "14dea5a7825bdbaa48531df710518079da07326ca535c6ea286d01b7760321ae",
		"deferred/2/4":    "44d24cfddf3346d4b904532b99014240869d115655a89dce4b2cece6f41f2140",
		"deferred/2/5":    "2d4b926c849a76c9adbdf0770193ae8d04d52ef59e783f5596bd686ecefc7eba",
		"deferred/8/0":    "44f5d3d01dc0e10ad489ac78d1cb5f386025cac29196bb944e15f2fa1ef7894d",
		"deferred/8/1":    "5ebfb7165a08346ebebf24275751d077c3ee6ad38f8002f6c7bd5095d69148e5",
		"deferred/8/2":    "777a184476bde606df3c51241a2221b3e7174cc7a4afe92c832839e4f22e7e86",
		"deferred/8/3":    "066fec34252c6bbd6413e6416a21affc4e78cd29d0a029f498d88d04dfd20348",
		"deferred/8/4":    "a76e408dbb469644dcd1f10354ad30bcfa37c6d92ee8e31662b137442db045a1",
		"deferred/8/5":    "5c397f6cd9bbfb4273e0d0d9a3f439ed0f295b9f5a19a04d6f791d0e19d9942e",
		"deferred/256/0":  "3b74791ee21516af0db098707804064e8f6c9ff460c95816a4401f86345de978",
		"deferred/256/1":  "adce80440047076dfc5edb4aaf41d833de4f4041e15eff79d9a6a54ffc84a389",
		"deferred/256/2":  "7e5b4a7af8a66e3c45b5d3e39b3ca30ac00c71062015a45d150893f7d4775d4d",
		"deferred/256/3":  "3aa163b20082272877a47d6e61e1232a788371035cd1a5d2cb8bce415b79f3e7",
		"deferred/256/4":  "e0399b2079afd35262cd74e1e5f9a5255cbc324fbee7d5b60887c4a8b8794c92",
		"deferred/256/5":  "c7c909e20458affd68e313fca0a89fe830ff5a61a357ca9b6387a8899745248c",
		"immediate/2/0":   "99e7ce233f6f35693702788bd666fa53a0ea4b52fd8447bedaa38751520df2fb",
		"immediate/2/1":   "09ca61ef05f7ddc0ae639cd9894b9754e542b984356e148ce3a4148701010845",
		"immediate/2/2":   "73b0b8c05d0081d410ad35e84d1083a5fa8d818868f92b44fb5d4abf83576a0e",
		"immediate/8/0":   "f8a1642b48d0186ac00c97a2c6ecfd838278f0594e548f68b6577555bb7de888",
		"immediate/8/1":   "4129f3305233b091e864d25854a06f86d55c36a62acb3cabc2775c463c0085a9",
		"immediate/8/2":   "81a8bb56612e6bce6efe9fa73d752fe23f130d3866451cda4433aebfa99b7ea8",
		"immediate/256/0": "3ddbbdd27711c05c4ba47f6457ea316c77b67b9cf49adaef59746e863a6ac070",
		"immediate/256/1": "fa1d7d8e92d610748d376630355919ea32766cc13a7704741a2c637b528e9151",
		"immediate/256/2": "c5a57742c8e97a7835da33d443f6e91a093d49ef55a75fdc137f13c1f73ad67e",
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
