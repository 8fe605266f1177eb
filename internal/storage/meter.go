// Package storage provides the simulated disk substrate of the viewmat
// engine: fixed-size pages grouped into files, an LRU buffer pool with
// pinning, and a cost meter that counts the operations priced by
// Hanson's model — disk page I/Os (C2 each), per-tuple predicate
// screens (C1 each), and per-tuple A/D bookkeeping touches (C3 each).
//
// The paper's analysis is expressed entirely in these three unit costs,
// so an engine that counts the same operations and prices them with the
// same constants measures exactly the model's quantity of interest
// (average milliseconds per view query) without depending on real
// hardware. This is the documented substitution for the paper's 1986
// testbed (see DESIGN.md §2).
package storage

import (
	"fmt"
	"sync/atomic"
)

// Stats is a snapshot of metered operation counts.
type Stats struct {
	Reads     int64 // disk page reads (C2 each)
	Writes    int64 // disk page writes (C2 each)
	Screens   int64 // predicate tests / tuple handling (C1 each)
	ADTouches int64 // A/D-set bookkeeping operations (C3 each)
}

// Add returns the element-wise sum of two snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:     s.Reads + o.Reads,
		Writes:    s.Writes + o.Writes,
		Screens:   s.Screens + o.Screens,
		ADTouches: s.ADTouches + o.ADTouches,
	}
}

// Sub returns the element-wise difference s − o; used to attribute
// costs to a phase bracketed by two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:     s.Reads - o.Reads,
		Writes:    s.Writes - o.Writes,
		Screens:   s.Screens - o.Screens,
		ADTouches: s.ADTouches - o.ADTouches,
	}
}

// IOs returns the total disk operations in the snapshot.
func (s Stats) IOs() int64 { return s.Reads + s.Writes }

// Cost prices the snapshot in milliseconds with the given unit costs
// (the paper's C1, C2, C3).
func (s Stats) Cost(c1, c2, c3 float64) float64 {
	return c1*float64(s.Screens) + c2*float64(s.IOs()) + c3*float64(s.ADTouches)
}

// String renders the snapshot.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d screens=%d adTouches=%d", s.Reads, s.Writes, s.Screens, s.ADTouches)
}

// Meter accumulates operation counts. All storage-layer operations
// charge through a Meter; higher layers take snapshots around phases to
// attribute costs (query vs. refresh vs. screening vs. HR upkeep).
//
// Counters are atomic, so a Meter may be charged from concurrent
// goroutines (parallel refresh workers, concurrent readers) without a
// lock. A Snapshot taken while operations are in flight is a consistent
// point-in-time lower bound per counter, not a transactional cut.
type Meter struct {
	reads     atomic.Int64
	writes    atomic.Int64
	screens   atomic.Int64
	adTouches atomic.Int64
}

// NewMeter returns a zeroed meter.
func NewMeter() *Meter { return &Meter{} }

// Read charges n page reads.
func (m *Meter) Read(n int64) { m.reads.Add(n) }

// Write charges n page writes.
func (m *Meter) Write(n int64) { m.writes.Add(n) }

// Screen charges n C1-unit CPU operations (predicate tests,
// satisfiability checks, per-tuple join handling).
func (m *Meter) Screen(n int64) { m.screens.Add(n) }

// ADTouch charges n C3-unit A/D bookkeeping operations (the immediate
// algorithm's in-transaction maintenance of the inserted/deleted sets).
func (m *Meter) ADTouch(n int64) { m.adTouches.Add(n) }

// Snapshot returns the current counts.
func (m *Meter) Snapshot() Stats {
	return Stats{
		Reads:     m.reads.Load(),
		Writes:    m.writes.Load(),
		Screens:   m.screens.Load(),
		ADTouches: m.adTouches.Load(),
	}
}

// Add charges the counts of s: an operation's meter scope, added to the
// engine's meter when the operation closes.
func (m *Meter) Add(s Stats) {
	m.reads.Add(s.Reads)
	m.writes.Add(s.Writes)
	m.screens.Add(s.Screens)
	m.adTouches.Add(s.ADTouches)
}

// Reset zeroes the counters.
func (m *Meter) Reset() {
	m.reads.Store(0)
	m.writes.Store(0)
	m.screens.Store(0)
	m.adTouches.Store(0)
}
