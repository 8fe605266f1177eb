// Command viewmatd serves a viewmat engine over TCP: many clients
// (internal/client, or anything speaking internal/proto) share one
// thread-safe core.Database through the serving layer in
// internal/server.
//
// Without flags it serves an empty volatile engine:
//
//	viewmatd -addr 127.0.0.1:7117
//
// With -wal DIR the engine is durable: if DIR holds a previous run's
// WAL and snapshot store the database is recovered from them before
// serving, otherwise a fresh durable engine is created. Every
// acknowledged commit is synced to the WAL before its response goes
// out, so a killed server restarted on the same directory answers with
// every transaction it ever acknowledged:
//
//	viewmatd -addr 127.0.0.1:7117 -wal /var/lib/viewmat
//
// With -debug-addr (off by default) a second listener serves
// net/http/pprof under /debug/pprof/ and expvar under /debug/vars, where
// "viewmat" holds what the engine already keeps: its Health, the meter's
// stats by phase, the advisor's per-view stats and the WAL sync count:
//
//	viewmatd -debug-addr 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//
// SIGINT/SIGTERM trigger a graceful shutdown: in-flight requests
// finish and their responses flush before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"viewmat/internal/core"
	"viewmat/internal/server"
	"viewmat/internal/wal"
)

const (
	walFileName  = "wal.log"
	snapFileName = "snapshots.log"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7117", "listen address")
	walDir := flag.String("wal", "", "durability directory (WAL + snapshot store); empty = volatile")
	ckptEvery := flag.Int("checkpoint-every", 8, "commits between automatic checkpoints (with -wal)")
	maxInflight := flag.Int("max-inflight", 64, "admission-control cap on concurrently executing requests")
	pageSize := flag.Int("page-size", 4000, "engine page size in bytes (fresh engines only)")
	poolFrames := flag.Int("pool-frames", 256, "buffer-pool capacity in pages (fresh engines only)")
	refreshWorkers := flag.Int("refresh-workers", 4, "RefreshAll worker pool bound")
	adaptive := flag.Bool("adaptive", false, "enable the online adaptive strategy advisor")
	adaptEvery := flag.Duration("adapt-every", 2*time.Second, "interval between advisor decision rounds (with -adaptive)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address; empty = off")
	flag.Parse()

	if err := run(*addr, *walDir, *ckptEvery, *maxInflight, *pageSize, *poolFrames, *refreshWorkers, *adaptive, *adaptEvery, *debugAddr); err != nil {
		fmt.Fprintln(os.Stderr, "viewmatd:", err)
		os.Exit(1)
	}
}

func run(addr, walDir string, ckptEvery, maxInflight, pageSize, poolFrames, refreshWorkers int, adaptive bool, adaptEvery time.Duration, debugAddr string) error {
	var (
		db       *core.Database
		walSyncs func() int // nil on a volatile engine
	)
	if walDir == "" {
		db = core.NewDatabase(core.Options{PageSize: pageSize, PoolFrames: poolFrames, MaxRefreshWorkers: refreshWorkers})
		fmt.Println("volatile engine (no -wal): state dies with the process")
	} else {
		var (
			walDev    *wal.FileDevice
			closeDevs func()
			err       error
		)
		db, walDev, closeDevs, err = openDurable(walDir, ckptEvery, pageSize, poolFrames, refreshWorkers)
		if err != nil {
			return err
		}
		defer closeDevs()
		walSyncs = walDev.Syncs
	}

	if debugAddr != "" {
		ln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		dbg := &http.Server{Handler: debugHandler(db, walSyncs), ReadHeaderTimeout: 10 * time.Second}
		go dbg.Serve(ln)
		defer dbg.Close()
		fmt.Printf("debug listener (pprof, expvar) on %s\n", ln.Addr())
	}

	if err := setAdaptive(db, adaptive); err != nil {
		return err
	}
	stopAdapt := make(chan struct{})
	if adaptive {
		go func() {
			tick := time.NewTicker(adaptEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopAdapt:
					return
				case <-tick.C:
					flips, err := db.AdaptTick()
					if err != nil {
						continue
					}
					for _, f := range flips {
						fmt.Printf("advisor: %s %s -> %s (%s)\n", f.View, f.From, f.To, f.Reason)
					}
				}
			}
		}()
		fmt.Printf("adaptive advisor on (tick %v)\n", adaptEvery)
	}
	defer close(stopAdapt)

	srv := server.New(db, server.Config{
		Addr:        addr,
		MaxInflight: maxInflight,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		sig := <-sigs
		fmt.Printf("caught %v; draining in-flight requests\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	fmt.Printf("viewmatd listening on %s (max-inflight %d)\n", addr, maxInflight)
	if err := srv.ListenAndServe(); err != nil {
		return err
	}
	if err := <-done; err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Println("drained; bye")
	return nil
}

// setAdaptive makes the engine's advisor follow the -adaptive flag. A
// recovered engine may already carry one, restored with its catalog: on,
// it keeps observing from its restored estimators; off, it is discarded,
// since no ticker would ever run it.
func setAdaptive(db *core.Database, on bool) error {
	if !on {
		db.DisableAdaptive()
		return nil
	}
	if err := db.EnableAdaptive(core.AdvisorOptions{}); err != nil && !errors.Is(err, core.ErrAdaptiveEnabled) {
		return err
	}
	return nil
}

// openDurable recovers an engine from dir's WAL and snapshot store, or
// creates a fresh durable engine when the directory holds no usable
// snapshot yet. It returns the WAL's device with the engine; the returned
// function closes the two files, and the engine must not commit after
// it.
func openDurable(dir string, ckptEvery, pageSize, poolFrames, refreshWorkers int) (*core.Database, *wal.FileDevice, func(), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	walDev, err := wal.OpenFile(filepath.Join(dir, walFileName))
	if err != nil {
		return nil, nil, nil, err
	}
	snapDev, err := wal.OpenFile(filepath.Join(dir, snapFileName))
	if err != nil {
		walDev.Close()
		return nil, nil, nil, err
	}
	closeDevs := func() {
		walDev.Close()
		snapDev.Close()
	}
	opts := core.DurabilityOptions{CheckpointEvery: ckptEvery}
	db, info, err := core.Recover(walDev, snapDev, opts)
	switch {
	case err == nil:
		db.SetMaxRefreshWorkers(refreshWorkers)
		fmt.Printf("recovered from %s: snapshot seq %d (full frame seq %d + %d delta frames), %d records replayed, %d skipped",
			dir, info.SnapshotSeq, info.FullSeq, info.Deltas, info.Replayed, info.Skipped)
		if info.TailDamage != "" {
			fmt.Printf(", %s tail truncated", info.TailDamage)
		}
		fmt.Println()
		return db, walDev, closeDevs, nil
	case errors.Is(err, wal.ErrNoSnapshot):
		db = core.NewDatabase(core.Options{PageSize: pageSize, PoolFrames: poolFrames, MaxRefreshWorkers: refreshWorkers})
		if err := db.EnableDurability(walDev, snapDev, opts); err != nil {
			closeDevs()
			return nil, nil, nil, err
		}
		fmt.Printf("fresh durable engine under %s (checkpoint every %d commits)\n", dir, ckptEvery)
		return db, walDev, closeDevs, nil
	default:
		closeDevs()
		return nil, nil, nil, fmt.Errorf("recovering from %s: %w", dir, err)
	}
}
