package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"viewmat/internal/core"
	"viewmat/internal/pred"
	"viewmat/internal/storage"
	"viewmat/internal/tuple"
	"viewmat/internal/wal"
)

// The -wal / -recover modes demonstrate the durability layer on real
// files. `vmsim -wal DIR` runs a commit+query workload with the WAL
// and snapshot store under DIR — kill the process at any point —
// and `vmsim -recover DIR` rebuilds the database from whatever
// survived and reports what recovery found. The cost meter is
// untouched by either: WAL I/O lives outside the simulated disk.

const (
	walFileName  = "wal.log"
	snapFileName = "snapshots.log"
)

func openDurableFiles(dir string) (*wal.FileDevice, *wal.FileDevice, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	walDev, err := wal.OpenFile(filepath.Join(dir, walFileName))
	if err != nil {
		return nil, nil, err
	}
	snapDev, err := wal.OpenFile(filepath.Join(dir, snapFileName))
	if err != nil {
		walDev.Close()
		return nil, nil, err
	}
	return walDev, snapDev, nil
}

// demoSchema is the -wal workload's base relation: r(k, a, s)
// clustered on k, with a deferred select-project view over the middle
// half of the seeded key range.
func demoSchema() *tuple.Schema {
	return tuple.NewSchema(tuple.Col("k", tuple.Int), tuple.Col("a", tuple.Int), tuple.Col("s", tuple.String))
}

func demoViewDef(n int) core.Def {
	return core.Def{
		Name:      "v",
		Kind:      core.SelectProject,
		Relations: []string{"r"},
		Pred: pred.New(
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Ge, Val: tuple.I(int64(n / 4))},
			pred.Cmp{Rel: 0, Col: 0, Op: pred.Lt, Val: tuple.I(int64(3 * n / 4))},
		),
		Project:    [][]int{{0, 2}},
		ViewKeyCol: 0,
	}
}

// runWAL seeds a fresh durable database under dir and drives commits
// and queries against it. Existing WAL/snapshot files are replaced: a
// demo run starts from scratch (use -recover to continue one).
func runWAL(out io.Writer, dir string, ckptEvery int, n, commits, perTx int, seed int64) error {
	for _, f := range []string{walFileName, snapFileName} {
		if err := os.Remove(filepath.Join(dir, f)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	walDev, snapDev, err := openDurableFiles(dir)
	if err != nil {
		return err
	}
	defer walDev.Close()
	defer snapDev.Close()
	fmt.Fprintf(out, "durable engine under %s: %d seed tuples, deferred view, checkpoint every %d commits\n", dir, n, ckptEvery)
	if _, err := demoWorkload(out, walDev, snapDev, ckptEvery, n, commits, perTx, seed); err != nil {
		return err
	}
	walSize, _ := walDev.Size()
	snapSize, _ := snapDev.Size()
	fmt.Fprintf(out, "wal tail %d bytes, snapshot store %d bytes — kill this process at any point and run: vmsim -recover %s\n",
		walSize, snapSize, dir)
	return nil
}

// demoWorkload seeds r, turns durability on over the two devices,
// creates the deferred view and drives the seeded commit+query stream.
func demoWorkload(out io.Writer, walDev, snapDev storage.Device, ckptEvery int, n, commits, perTx int, seed int64) (*core.Database, error) {
	db := core.NewDatabase(core.Options{PageSize: 512, PoolFrames: 64})
	if _, err := db.CreateRelationBTree("r", demoSchema(), 0); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	type live struct {
		key int64
		id  uint64
	}
	var rows []live
	tx := db.Begin()
	for i := 0; i < n; i++ {
		id, err := tx.Insert("r", tuple.I(int64(i)), tuple.I(int64(i*2)), tuple.S(fmt.Sprintf("s%d", i%7)))
		if err != nil {
			return nil, err
		}
		rows = append(rows, live{key: int64(i), id: id})
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	if err := db.EnableDurability(walDev, snapDev, core.DurabilityOptions{CheckpointEvery: ckptEvery}); err != nil {
		return nil, err
	}
	if err := db.CreateView(demoViewDef(n), core.Deferred); err != nil {
		return nil, err
	}

	for c := 0; c < commits; c++ {
		tx := db.Begin()
		for j := 0; j < perTx; j++ {
			if len(rows) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(rows))
				if err := tx.Delete("r", tuple.I(rows[i].key), rows[i].id); err != nil {
					return nil, err
				}
				rows = append(rows[:i], rows[i+1:]...)
				continue
			}
			key := rng.Int63n(int64(2 * n))
			id, err := tx.Insert("r", tuple.I(key), tuple.I(rng.Int63n(100)), tuple.S("w"))
			if err != nil {
				return nil, err
			}
			rows = append(rows, live{key: key, id: id})
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
		if (c+1)%4 == 0 {
			if _, err := db.QueryView("v", nil); err != nil {
				return nil, err
			}
		}
	}
	vrows, err := db.QueryView("v", nil)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "ran %d commits (%d ops each): %d live tuples, %d view rows\n", commits, perTx, len(rows), len(vrows))
	return db, nil
}

// runRecover rebuilds the database from dir's durable files and
// reports what recovery found.
func runRecover(out io.Writer, dir string, ckptEvery int) error {
	walDev, snapDev, err := openDurableFiles(dir)
	if err != nil {
		return err
	}
	defer walDev.Close()
	defer snapDev.Close()
	db, info, err := core.Recover(walDev, snapDev, core.DurabilityOptions{CheckpointEvery: ckptEvery})
	if err != nil {
		return fmt.Errorf("recovering from %s: %w", dir, err)
	}
	fmt.Fprintf(out, "recovered from %s: snapshot seq %d (full frame seq %d + %d delta frames), %d records replayed, %d skipped",
		dir, info.SnapshotSeq, info.FullSeq, info.Deltas, info.Replayed, info.Skipped)
	if info.TailDamage != "" {
		fmt.Fprintf(out, ", %s tail truncated", info.TailDamage)
	}
	fmt.Fprintln(out)
	if _, _, ok := db.View("v"); ok {
		vrows, err := db.QueryView("v", nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "view v answers with %d rows; the engine continues logging to the same files\n", len(vrows))
	}
	return nil
}
