package storage

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// ErrCrashed is returned by every operation on a FaultDisk after its
// simulated machine has lost power.
var ErrCrashed = errors.New("storage: device crashed")

// ErrInjectedTorn is the error a torn WriteAt reports after applying
// only a prefix of the buffer.
var ErrInjectedTorn = errors.New("storage: injected torn write")

// span is one write since the last sync, in arrival order; the torn
// model keeps a byte prefix of this sequence on crash.
type span struct {
	off  int64
	data []byte
}

// FaultDisk is an in-memory Device with fault injection, built for
// crash-recovery testing of the WAL layer. It models the durability
// contract of a real disk behind a volatile cache:
//
//   - writes land in the cache immediately (reads see them),
//   - Sync hardens everything written so far,
//   - a crash discards unsynced writes except for a configurable byte
//     prefix (the torn tail a power loss can leave behind), or, by
//     CrashSectors, except for a chosen subset of the sectors they
//     touched (a cache written back out of order),
//   - after a crash every operation fails with ErrCrashed; the
//     survivor image is available via DurableDevice for recovery.
//
// Faults are injected per call number (1-based): FailWriteAt,
// TornWriteAt, FailSync, CrashAtSync. HoldSyncs keeps syncs in flight
// until the test releases them. A set of FaultDisks can share a
// CrashPlan so "crash at the Nth sync" counts syncs across all the
// devices of one simulated machine. A FaultDisk with no faults
// configured is simply an in-memory Device.
type FaultDisk struct {
	mu      sync.Mutex
	data    []byte // current contents (what ReadAt observes)
	synced  []byte // contents as of the last successful Sync
	pending []span // writes since the last Sync, in order

	writeCalls int
	syncCalls  int
	crashed    bool
	durable    []byte // survivor image captured at crash time

	failWriteAt map[int]error
	tornWriteAt map[int]int
	failSync    map[int]error
	crashAtSync int
	crashTorn   int

	plan *CrashPlan
	hold *syncHold
}

// syncHold is an armed HoldSyncs: each Sync that meets it offers itself
// on held, then waits for gate to close.
type syncHold struct {
	held chan struct{}
	gate chan struct{}
}

// NewFaultDisk returns an empty fault-free device; arm faults with the
// injection methods before handing it to the code under test.
func NewFaultDisk() *FaultDisk { return &FaultDisk{} }

// NewFaultDiskBytes returns a device whose initial contents are a copy
// of b, already durable — the shape recovery sees after a reboot.
func NewFaultDiskBytes(b []byte) *FaultDisk {
	return &FaultDisk{
		data:   append([]byte(nil), b...),
		synced: append([]byte(nil), b...),
	}
}

// FailWriteAt makes the call-th WriteAt (1-based) fail with err before
// applying any bytes.
func (d *FaultDisk) FailWriteAt(call int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failWriteAt == nil {
		d.failWriteAt = map[int]error{}
	}
	d.failWriteAt[call] = err
}

// TornWriteAt makes the call-th WriteAt (1-based) apply only the first
// keep bytes of its buffer and then fail with ErrInjectedTorn — a
// partial-page write.
func (d *FaultDisk) TornWriteAt(call, keep int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.tornWriteAt == nil {
		d.tornWriteAt = map[int]int{}
	}
	d.tornWriteAt[call] = keep
}

// FailSync makes the call-th Sync (1-based) fail with err without
// hardening the pending writes.
func (d *FaultDisk) FailSync(call int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failSync == nil {
		d.failSync = map[int]error{}
	}
	d.failSync[call] = err
}

// CrashAtSync crashes the device during its n-th Sync call (1-based):
// the sync fails with ErrCrashed and the survivor image keeps only the
// first tornBytes bytes of the writes issued since the last successful
// sync. For crashes coordinated across several devices use a CrashPlan
// instead.
func (d *FaultDisk) CrashAtSync(n, tornBytes int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashAtSync = n
	d.crashTorn = tornBytes
}

// CrashNow crashes the device immediately, keeping tornBytes of the
// unsynced writes.
func (d *FaultDisk) CrashNow(tornBytes int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashLocked(tornBytes)
}

// HoldSyncs makes every Sync from now on block, before it hardens or
// counts anything, until release is called; meanwhile reads, writes and
// truncates go on. Each blocked Sync offers itself on held, which the
// test may receive from to wait until a sync is in flight. Release is
// safe to call more than once.
func (d *FaultDisk) HoldSyncs() (held <-chan struct{}, release func()) {
	h := &syncHold{held: make(chan struct{}), gate: make(chan struct{})}
	d.mu.Lock()
	d.hold = h
	d.mu.Unlock()
	return h.held, sync.OnceFunc(func() {
		d.mu.Lock()
		if d.hold == h {
			d.hold = nil
		}
		d.mu.Unlock()
		close(h.gate)
	})
}

// Crashed reports whether the device has crashed.
func (d *FaultDisk) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// Writes returns the number of WriteAt calls observed.
func (d *FaultDisk) Writes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writeCalls
}

// Syncs returns the number of Sync calls observed.
func (d *FaultDisk) Syncs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncCalls
}

// SectorSize is the unit CrashSectors keeps or loses whole.
const SectorSize = 512

// CrashSectors crashes the device now. Of the unsynced writes it keeps
// the sectors that mask picks, each holding what the cache held there at
// the crash, and loses the rest. It models a cache written back sector by
// sector in no particular order, so a later sector of an overwrite can
// survive without an earlier one, which a byte prefix (CrashNow) never
// does. The i-th sector the pending writes touched, in ascending offset
// order, survives when bit i mod 64 of mask is set. A lost sector keeps
// its synced bytes, and reads as zeros past the synced end when a later
// sector survives.
func (d *FaultDisk) CrashSectors(mask uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return
	}
	var sectors []int64
	for _, sp := range d.pending {
		if len(sp.data) == 0 {
			continue
		}
		for s := sp.off / SectorSize; s*SectorSize < sp.off+int64(len(sp.data)); s++ {
			sectors = append(sectors, s)
		}
	}
	slices.Sort(sectors)
	img := append([]byte(nil), d.synced...)
	for i, s := range slices.Compact(sectors) {
		if mask&(1<<(i%64)) != 0 {
			img = applyAt(img, s*SectorSize, d.data[s*SectorSize:min((s+1)*SectorSize, int64(len(d.data)))])
		}
	}
	d.crashWith(img)
}

// crashLocked marks the device crashed and captures the survivor
// image: the synced contents plus the first tornBytes bytes of the
// pending writes, applied in write order.
func (d *FaultDisk) crashLocked(tornBytes int) {
	if d.crashed {
		return
	}
	img := append([]byte(nil), d.synced...)
	budget := tornBytes
	for _, sp := range d.pending {
		if budget <= 0 {
			break
		}
		k := len(sp.data)
		if k > budget {
			k = budget
		}
		img = applyAt(img, sp.off, sp.data[:k])
		budget -= k
	}
	d.crashWith(img)
}

// crashWith marks the device crashed with img as its survivor image.
func (d *FaultDisk) crashWith(img []byte) {
	d.crashed = true
	d.durable = img
	d.pending = nil
}

// DurableDevice returns a fresh fault-free FaultDisk holding the bytes
// that survived: the last-synced contents plus any torn tail captured
// at crash time. This is the device recovery reopens "after reboot".
func (d *FaultDisk) DurableDevice() *FaultDisk {
	d.mu.Lock()
	defer d.mu.Unlock()
	img := d.synced
	if d.crashed {
		img = d.durable
	}
	return NewFaultDiskBytes(img)
}

// applyAt writes data at off into buf, growing it (zero-filled) as
// needed, and returns the possibly-reallocated buffer.
func applyAt(buf []byte, off int64, data []byte) []byte {
	end := off + int64(len(data))
	if int64(len(buf)) < end {
		grown := make([]byte, end)
		copy(grown, buf)
		buf = grown
	}
	copy(buf[off:end], data)
	return buf
}

// ReadAt implements io.ReaderAt over the current (cached) contents.
func (d *FaultDisk) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return 0, ErrCrashed
	}
	if off < 0 {
		return 0, fmt.Errorf("storage: negative offset %d", off)
	}
	if off >= int64(len(d.data)) {
		return 0, io.EOF
	}
	n := copy(p, d.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt into the volatile cache; the bytes
// become durable at the next successful Sync.
func (d *FaultDisk) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return 0, ErrCrashed
	}
	if off < 0 {
		return 0, fmt.Errorf("storage: negative offset %d", off)
	}
	d.writeCalls++
	if err, ok := d.failWriteAt[d.writeCalls]; ok {
		return 0, err
	}
	if keep, ok := d.tornWriteAt[d.writeCalls]; ok {
		if keep > len(p) {
			keep = len(p)
		}
		d.data = applyAt(d.data, off, p[:keep])
		d.pending = append(d.pending, span{off: off, data: append([]byte(nil), p[:keep]...)})
		return keep, ErrInjectedTorn
	}
	d.data = applyAt(d.data, off, p)
	d.pending = append(d.pending, span{off: off, data: append([]byte(nil), p...)})
	return len(p), nil
}

// Sync hardens all pending writes, or trips a configured sync fault.
func (d *FaultDisk) Sync() error {
	d.mu.Lock()
	h := d.hold
	d.mu.Unlock()
	if h != nil {
		select {
		case h.held <- struct{}{}:
		case <-h.gate:
		}
		<-h.gate
	}
	if p := d.planOf(); p != nil {
		if err := p.onSync(d); err != nil {
			return err
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	d.syncCalls++
	if err, ok := d.failSync[d.syncCalls]; ok {
		return err
	}
	if d.crashAtSync > 0 && d.syncCalls == d.crashAtSync {
		d.crashLocked(d.crashTorn)
		return ErrCrashed
	}
	d.syncLocked()
	return nil
}

func (d *FaultDisk) syncLocked() {
	d.synced = append(d.synced[:0], d.data...)
	d.pending = nil
}

func (d *FaultDisk) planOf() *CrashPlan {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.plan
}

// Truncate resizes the device. It is modelled as a durable metadata
// operation: both the cached and the synced images change, and pending
// data writes are dropped (the durability layer always syncs data
// before truncating, so nothing of value is ever pending here).
func (d *FaultDisk) Truncate(size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	if size < 0 {
		return fmt.Errorf("storage: negative truncate size %d", size)
	}
	trim := func(b []byte) []byte {
		if int64(len(b)) > size {
			return b[:size]
		}
		for int64(len(b)) < size {
			b = append(b, 0)
		}
		return b
	}
	d.data = trim(d.data)
	d.synced = trim(d.synced)
	d.pending = nil
	return nil
}

// Size returns the current (cached) size in bytes.
func (d *FaultDisk) Size() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return 0, ErrCrashed
	}
	return int64(len(d.data)), nil
}

// CrashPlan coordinates a crash across the devices of one simulated
// machine: every attached FaultDisk routes its Sync calls through the
// plan's shared counter, and when the n-th sync overall arrives the
// whole machine loses power — the syncing device keeps tornBytes of
// its unsynced writes, every other attached device keeps none.
type CrashPlan struct {
	mu          sync.Mutex
	syncs       int
	crashAtSync int
	tornBytes   int
	crashed     bool
	devs        []*FaultDisk
}

// NewCrashPlan builds a plan that crashes at the crashAtSync-th sync
// (1-based) across all attached devices; 0 never crashes (the plan then
// only counts syncs).
func NewCrashPlan(crashAtSync, tornBytes int) *CrashPlan {
	return &CrashPlan{crashAtSync: crashAtSync, tornBytes: tornBytes}
}

// Attach registers a device with the plan.
func (p *CrashPlan) Attach(d *FaultDisk) {
	p.mu.Lock()
	p.devs = append(p.devs, d)
	p.mu.Unlock()
	d.mu.Lock()
	d.plan = p
	d.mu.Unlock()
}

// Syncs returns the total sync calls observed across attached devices.
func (p *CrashPlan) Syncs() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.syncs
}

// Crashed reports whether the plan has tripped.
func (p *CrashPlan) Crashed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashed
}

// onSync is called by an attached device at the top of its Sync. It
// returns a non-nil error when the machine is (now) crashed; otherwise
// the device proceeds with its own sync logic. Never called with the
// device's mutex held, so crashing the whole fleet here is safe.
func (p *CrashPlan) onSync(caller *FaultDisk) error {
	p.mu.Lock()
	if p.crashed {
		p.mu.Unlock()
		return ErrCrashed
	}
	p.syncs++
	if p.crashAtSync > 0 && p.syncs == p.crashAtSync {
		p.crashed = true
		devs := append([]*FaultDisk(nil), p.devs...)
		torn := p.tornBytes
		p.mu.Unlock()
		for _, d := range devs {
			d.mu.Lock()
			if d == caller {
				d.crashLocked(torn)
			} else {
				d.crashLocked(0)
			}
			d.mu.Unlock()
		}
		return ErrCrashed
	}
	p.mu.Unlock()
	return nil
}
