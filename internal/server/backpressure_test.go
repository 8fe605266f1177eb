package server

import (
	"errors"
	"sync"
	"testing"
	"time"

	"viewmat/internal/client"
	"viewmat/internal/core"
)

// TestBackpressureShedsExactOverflow proves the admission contract
// deterministically: with the in-flight cap at K and 4K simultaneous
// requests, exactly K are admitted (and parked on the test hook) and
// exactly 3K are shed with ErrBusy immediately — none queue, none
// hang. After release and drain the engine's buffer pool holds no
// pinned frames.
func TestBackpressureShedsExactOverflow(t *testing.T) {
	const (
		k     = 8
		total = 4 * k
	)
	db := core.NewDatabase(testDBOpts())
	t.Cleanup(func() { assertIdle(t, db) })
	srv, addr := startServer(t, db, Config{MaxInflight: k})

	arrived := make(chan struct{}, total)
	release := make(chan struct{})
	srv.setAdmitHoldForTest(func() {
		arrived <- struct{}{}
		<-release
	})

	results := make(chan error, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				results <- err
				return
			}
			defer c.Close()
			results <- c.Ping()
		}()
	}

	// Wait until the cap is exactly saturated...
	for i := 0; i < k; i++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d requests reached the admission hold", i, k)
		}
	}

	// ...then every further request must be shed with ErrBusy, and
	// nothing may succeed while all K slots are parked.
	busy := 0
	for busy < total-k {
		select {
		case err := <-results:
			if !errors.Is(err, client.ErrBusy) {
				t.Fatalf("request finished with %v while the cap was saturated; want ErrBusy", err)
			}
			busy++
		case <-time.After(5 * time.Second):
			t.Fatalf("stalled with %d of %d busy responses; requests are queueing instead of shedding", busy, total-k)
		}
	}

	select {
	case extra := <-arrived:
		_ = extra
		t.Fatal("more than MaxInflight requests were admitted")
	default:
	}

	close(release)
	srv.setAdmitHoldForTest(nil)
	for i := 0; i < k; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatalf("admitted request failed after release: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("admitted request hung after release")
		}
	}
	wg.Wait()
}

// TestBusyIsRetryable: a shed request can simply be retried once load
// subsides — CodeBusy marks the request unexecuted.
func TestBusyIsRetryable(t *testing.T) {
	db := core.NewDatabase(testDBOpts())
	srv, addr := startServer(t, db, Config{MaxInflight: 1})

	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv.setAdmitHoldForTest(func() {
		entered <- struct{}{}
		<-gate
	})
	go func() {
		c := dialClient(t, addr)
		c.Ping()
	}()
	<-entered
	srv.setAdmitHoldForTest(nil)

	c := dialClient(t, addr)
	if err := c.Ping(); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("want ErrBusy while slot is held, got %v", err)
	}
	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.Ping(); err == nil {
			break
		} else if !errors.Is(err, client.ErrBusy) {
			t.Fatalf("retry failed with %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("retry never succeeded after slot release")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertIdle fails the test if db's operation pools hold any frame once
// no operation runs: an operation ended with a pin still held.
func assertIdle(t *testing.T, db *core.Database) {
	t.Helper()
	if n := db.Health().PoolResident; n != 0 {
		t.Errorf("pin leak: %d frame(s) held with no operation running", n)
	}
}
