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
// frames is smaller than the trees are high.
func TestRefreshPagesPinned(t *testing.T) {
	want := map[string]string{
		"deferred/2/0":    "4cd74885bc6748a410d8571572d0277f4df77319eb3c81be48068fe778ed8886",
		"deferred/2/1":    "a9432748c235003342e7747d5b36fc4d20707612c637bf91919e32464a81ed07",
		"deferred/2/2":    "73efd56d1ac6affa405b64aedf329eafb1bfebf08879fe81d085a2506ad2cb75",
		"deferred/2/3":    "3376905c7f14e5147c5cc119a2105f36225f3f053b6668235585c5d89b861065",
		"deferred/2/4":    "1f333120abeadee71e035d477af12305c8a9d6a635451b5b0f14fea062495371",
		"deferred/2/5":    "601a098eccd60223a738e13cfdefff13cb9fd2719ffdf5cb41e3232790fddb1c",
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
		"immediate/2/0":   "ca3ae9315b71c5b4a2acab610338229462bf2693c7c7e89a8f6b99a1f530b34f",
		"immediate/2/1":   "1ae812907994838131b047f6384ed4ef83fa5392eaf78db5411e2e598e7d0927",
		"immediate/2/2":   "c2c16332677d7382bc75204df3fde425073ec24e19a6306ae81f0d03aa5c166c",
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
