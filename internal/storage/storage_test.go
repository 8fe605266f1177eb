package storage

import (
	"testing"
	"testing/quick"
)

func TestMeterAccumulatesAndPrices(t *testing.T) {
	m := NewMeter()
	m.Read(3)
	m.Write(2)
	m.Screen(10)
	m.ADTouch(4)
	s := m.Snapshot()
	if s.Reads != 3 || s.Writes != 2 || s.Screens != 10 || s.ADTouches != 4 {
		t.Fatalf("snapshot = %v", s)
	}
	if s.IOs() != 5 {
		t.Errorf("IOs = %d, want 5", s.IOs())
	}
	// Paper's defaults: C1=1, C2=30, C3=1 → 10 + 150 + 4.
	if got := s.Cost(1, 30, 1); got != 164 {
		t.Errorf("Cost = %v, want 164", got)
	}
	m.Reset()
	if m.Snapshot() != (Stats{}) {
		t.Error("reset did not zero the meter")
	}
}

func TestStatsSubAttribution(t *testing.T) {
	m := NewMeter()
	m.Read(5)
	before := m.Snapshot()
	m.Read(2)
	m.Screen(7)
	phase := m.Snapshot().Sub(before)
	if phase.Reads != 2 || phase.Screens != 7 {
		t.Errorf("phase = %v", phase)
	}
	if sum := before.Add(phase); sum != m.Snapshot() {
		t.Errorf("before+phase = %v, want %v", sum, m.Snapshot())
	}
}

func TestDiskFileAllocFree(t *testing.T) {
	d := NewDisk(128)
	f := d.Open("r")
	p0 := f.Alloc()
	p1 := f.Alloc()
	if p0 == p1 {
		t.Fatal("Alloc returned duplicate page numbers")
	}
	if f.NumPages() != 2 {
		t.Errorf("NumPages = %d, want 2", f.NumPages())
	}
	f.Free(p0)
	if f.NumPages() != 1 {
		t.Errorf("NumPages after free = %d, want 1", f.NumPages())
	}
	if _, err := f.Peek(p0); err == nil {
		t.Error("read of freed page succeeded")
	}
	p2 := f.Alloc() // reuses the freed slot
	if p2 != p0 {
		t.Errorf("expected page reuse: got %d, want %d", p2, p0)
	}
	// Reused page must come back zeroed.
	b, err := f.Peek(p2)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range b {
		if x != 0 {
			t.Fatal("reused page not zeroed")
		}
	}
}

func TestDiskOpenIsIdempotent(t *testing.T) {
	d := NewDisk(64)
	a := d.Open("f")
	a.Alloc()
	b := d.Open("f")
	if a != b {
		t.Error("Open returned a different file for the same name")
	}
	if len(d.FileNames()) != 1 {
		t.Errorf("FileNames = %v", d.FileNames())
	}
	d.Remove("f")
	if d.TotalPages() != 0 {
		t.Errorf("TotalPages after remove = %d", d.TotalPages())
	}
}

func TestPoolChargesReadOnMissOnly(t *testing.T) {
	d := NewDisk(64)
	m := NewMeter()
	p := NewArena(d, 8).NewPool(m)
	f := d.Open("r")
	pn := f.Alloc()

	fr, err := p.Get(f, pn)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Release(fr); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Reads; got != 1 {
		t.Errorf("reads after first get = %d, want 1", got)
	}
	fr2, err := p.Get(f, pn) // hit: no charge
	if err != nil {
		t.Fatal(err)
	}
	p.Release(fr2)
	if got := m.Snapshot().Reads; got != 1 {
		t.Errorf("reads after cached get = %d, want 1", got)
	}
}

// A release writes nothing; the flush that closes the scope writes each
// dirty page once, however often it was dirtied, and persists its bytes.
func TestPoolWriteBackDefersWrites(t *testing.T) {
	d := NewDisk(64)
	m := NewMeter()
	p := NewArena(d, 8).NewPool(m)
	f := d.Open("r")
	pn := f.Alloc()

	for i := byte(1); i <= 3; i++ {
		fr, _ := p.Get(f, pn)
		fr.Data[0] = i
		fr.MarkDirty()
		p.Release(fr)
	}
	if m.Snapshot().Writes != 0 {
		t.Error("a release charged a write")
	}
	if b, _ := f.Peek(pn); b[0] != 0 {
		t.Error("a release reached the image before the flush")
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Writes; got != 1 {
		t.Errorf("writes after flush = %d, want 1", got)
	}
	if b, _ := f.Peek(pn); b[0] != 3 {
		t.Errorf("flushed image reads %d, want 3", b[0])
	}
	// Flushing twice must not double-charge.
	p.FlushAll()
	if got := m.Snapshot().Writes; got != 1 {
		t.Errorf("writes after second flush = %d, want 1", got)
	}
}

func TestPoolEvictionWritesDirtyAndRechargesRead(t *testing.T) {
	d := NewDisk(64)
	m := NewMeter()
	p := NewArena(d, 2).NewPool(m)
	f := d.Open("r")
	pns := []PageNum{f.Alloc(), f.Alloc(), f.Alloc()}

	fr, _ := p.Get(f, pns[0])
	fr.Data[1] = 9
	fr.MarkDirty()
	p.Release(fr)
	for _, pn := range pns[1:] { // overflow capacity 2, evicting page 0
		fr, _ := p.Get(f, pn)
		p.Release(fr)
	}
	s := m.Snapshot()
	if s.Writes != 1 {
		t.Errorf("dirty eviction writes = %d, want 1", s.Writes)
	}
	if p.Resident() != 2 {
		t.Errorf("resident = %d, want 2", p.Resident())
	}
	// Re-reading the evicted page charges a new read and sees the data.
	fr2, _ := p.Get(f, pns[0])
	if fr2.Data[1] != 9 {
		t.Error("evicted page lost its data")
	}
	p.Release(fr2)
	if got := m.Snapshot().Reads; got != 4 {
		t.Errorf("reads = %d, want 4 (3 cold + 1 after eviction)", got)
	}
}

func TestPoolPinnedFramesAreNotEvicted(t *testing.T) {
	d := NewDisk(64)
	m := NewMeter()
	p := NewArena(d, 2).NewPool(m)
	f := d.Open("r")
	a, b, c := f.Alloc(), f.Alloc(), f.Alloc()

	frA, _ := p.Get(f, a) // keep pinned
	frB, _ := p.Get(f, b)
	p.Release(frB)
	frC, _ := p.Get(f, c) // must evict b, not pinned a
	p.Release(frC)

	resident := func(pn PageNum) bool { return p.lookup(f, pn) != nil }
	if !resident(a) {
		t.Error("pinned frame was evicted")
	}
	if resident(b) {
		t.Error("unpinned frame was not evicted")
	}
	p.Release(frA)
}

func TestPoolAllFramesPinnedErrors(t *testing.T) {
	d := NewDisk(64)
	p := NewArena(d, 1).NewPool(NewMeter())
	f := d.Open("r")
	a, b := f.Alloc(), f.Alloc()
	frA, err := p.Get(f, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(f, b); err == nil {
		t.Error("expected error when pool is full of pinned frames")
	}
	p.Release(frA)
}

func TestPoolAllocBornDirtyNoReadCharge(t *testing.T) {
	d := NewDisk(64)
	m := NewMeter()
	p := NewArena(d, 8).NewPool(m)
	f := d.Open("r")
	fr, err := p.Alloc(f)
	if err != nil {
		t.Fatal(err)
	}
	if m.Snapshot().Reads != 0 {
		t.Error("Alloc charged a read")
	}
	fr.Data[0] = 7
	p.Release(fr)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot().Writes != 1 {
		t.Errorf("writes = %d, want 1 (newborn dirty page)", m.Snapshot().Writes)
	}
}

func TestPoolEvictAll(t *testing.T) {
	d := NewDisk(64)
	m := NewMeter()
	p := NewArena(d, 8).NewPool(m)
	f := d.Open("r")
	pn := f.Alloc()
	fr, _ := p.Get(f, pn)
	fr.Data[0] = 5
	fr.MarkDirty()
	p.Release(fr)
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	if p.Resident() != 0 {
		t.Errorf("resident after EvictAll = %d", p.Resident())
	}
	// Next access is a cold miss again.
	r0 := m.Snapshot().Reads
	fr2, _ := p.Get(f, pn)
	p.Release(fr2)
	if m.Snapshot().Reads != r0+1 {
		t.Error("EvictAll did not cool the cache")
	}
}

func TestPoolEvictAllKeepsPinnedFrames(t *testing.T) {
	d := NewDisk(64)
	p := NewArena(d, 8).NewPool(NewMeter())
	f := d.Open("r")
	fr, _ := p.Get(f, f.Alloc())
	// A frame pinned by a concurrent operation must survive the
	// boundary eviction rather than fail it.
	if err := p.EvictAll(); err != nil {
		t.Fatalf("EvictAll with a pinned frame: %v", err)
	}
	if p.Resident() != 1 {
		t.Errorf("resident after EvictAll = %d, want the pinned frame", p.Resident())
	}
	p.Release(fr)
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	if p.Resident() != 0 {
		t.Errorf("resident after unpinned EvictAll = %d, want 0", p.Resident())
	}
}

func TestReleaseUnpinnedErrors(t *testing.T) {
	d := NewDisk(64)
	p := NewArena(d, 8).NewPool(NewMeter())
	f := d.Open("r")
	fr, _ := p.Get(f, f.Alloc())
	p.Release(fr)
	if err := p.Release(fr); err == nil {
		t.Error("double release succeeded")
	}
}

// Property: data written through the pool is always read back intact,
// across arbitrary interleavings of gets, writes and evictions.
func TestPropertyPoolDurability(t *testing.T) {
	fn := func(ops []uint16) bool {
		d := NewDisk(32)
		p := NewArena(d, 3).NewPool(NewMeter())
		f := d.Open("r")
		const nPages = 8
		want := make([][]byte, nPages)
		for i := 0; i < nPages; i++ {
			f.Alloc()
			want[i] = make([]byte, 32)
		}
		for _, op := range ops {
			pn := PageNum(op % nPages)
			val := byte(op >> 8)
			fr, err := p.Get(f, pn)
			if err != nil {
				return false
			}
			if string(fr.Data) != string(want[pn]) {
				return false
			}
			fr.Data[int(val)%32] = val
			want[pn][int(val)%32] = val
			fr.MarkDirty()
			if err := p.Release(fr); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDiskDefaults(t *testing.T) {
	d := NewDisk(0)
	if d.PageSize() != DefaultPageSize {
		t.Errorf("default page size = %d, want %d", d.PageSize(), DefaultPageSize)
	}
	p := NewArena(d, 0).NewPool(NewMeter())
	if p.Capacity() != DefaultPoolCapacity {
		t.Errorf("default pool capacity = %d", p.Capacity())
	}
	if p.PageSize() != DefaultPageSize {
		t.Errorf("pool PageSize = %d", p.PageSize())
	}
}

func TestFileExtentAndPeek(t *testing.T) {
	d := NewDisk(32)
	f := d.Open("x")
	a := f.Alloc()
	b := f.Alloc()
	if f.Extent() != 2 {
		t.Errorf("Extent = %d, want 2", f.Extent())
	}
	f.Free(a)
	if f.Extent() != 2 {
		t.Errorf("Extent after free = %d (holes keep extent)", f.Extent())
	}
	m := NewMeter()
	p := NewArena(d, 4).NewPool(m)
	fr, _ := p.Get(f, b)
	fr.Data[0] = 0xCD
	fr.MarkDirty()
	p.Release(fr)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	page, err := f.Peek(b)
	if err != nil {
		t.Fatal(err)
	}
	if page[0] != 0xCD {
		t.Error("Peek did not see written data")
	}
	if m.Snapshot().Reads != 1 { // only the pool's Get
		t.Errorf("Peek charged the meter: %v", m.Snapshot())
	}
	// Peek of a freed page errors; mutating the copy is harmless.
	if _, err := f.Peek(a); err == nil {
		t.Error("Peek of freed page succeeded")
	}
	page[0] = 0xFF
	again, _ := f.Peek(b)
	if again[0] != 0xCD {
		t.Error("Peek returned a live alias, not a copy")
	}
}

func TestFrameAccessors(t *testing.T) {
	d := NewDisk(32)
	p := NewArena(d, 4).NewPool(NewMeter())
	f := d.Open("x")
	fr, err := p.Alloc(f)
	if err != nil {
		t.Fatal(err)
	}
	if fr.PageNum() != 0 {
		t.Errorf("PageNum = %d", fr.PageNum())
	}
	p.Release(fr)
}

func TestDiscard(t *testing.T) {
	d := NewDisk(32)
	m := NewMeter()
	p := NewArena(d, 4).NewPool(m)
	f := d.Open("x")
	pn := f.Alloc()
	fr, _ := p.Get(f, pn)
	fr.Data[0] = 9
	fr.MarkDirty()
	p.Release(fr)
	p.Discard(f, pn) // dirty data dropped without a write
	if m.Snapshot().Writes != 0 {
		t.Error("Discard charged a write")
	}
	page, _ := f.Peek(pn)
	if page[0] != 0 {
		t.Error("Discard flushed dirty data")
	}
	// Discard of a non-resident page is a no-op.
	p.Discard(f, pn)
	// Discard of a pinned frame orphans it: the holder keeps the
	// frame, but the final release must not write the stale image.
	fr2, _ := p.Get(f, pn)
	fr2.Data[0] = 0x55
	fr2.MarkDirty()
	p.Discard(f, pn)
	if p.Resident() != 0 {
		t.Errorf("resident after pinned Discard = %d, want 0", p.Resident())
	}
	if err := p.Release(fr2); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot().Writes != 0 {
		t.Error("release of an orphaned frame wrote it back")
	}
	page, _ = f.Peek(pn)
	if page[0] != 0 {
		t.Error("orphaned frame's stale data reached disk")
	}
}

func TestWritePageSizeMismatch(t *testing.T) {
	d := NewDisk(32)
	f := d.Open("x")
	pn := f.Alloc()
	if err := f.writePage(pn, make([]byte, 16)); err == nil {
		t.Error("short page accepted")
	}
	if err := f.writePage(PageNum(99), make([]byte, 32)); err == nil {
		t.Error("write to unallocated page accepted")
	}
}

func TestDiskSnapshotRestore(t *testing.T) {
	d := NewDisk(32)
	f := d.Open("a")
	p0 := f.Alloc()
	p1 := f.Alloc()
	f.Free(p0)
	m := NewMeter()
	pool := NewArena(d, 4).NewPool(m)
	fr, _ := pool.Get(f, p1)
	fr.Data[3] = 0x7E
	fr.MarkDirty()
	pool.Release(fr)
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	img := d.Snapshot()
	// Mutating the image must not alias the live disk.
	img.Files[0].Pages[1][3] = 0
	live, _ := f.Peek(p1)
	if live[3] != 0x7E {
		t.Fatal("snapshot aliases live pages")
	}

	img = d.Snapshot()
	restored, err := RestoreDisk(img)
	if err != nil {
		t.Fatal(err)
	}
	rf := restored.Open("a")
	page, err := rf.Peek(p1)
	if err != nil || page[3] != 0x7E {
		t.Errorf("restored page wrong: %v err=%v", page[:4], err)
	}
	if _, err := rf.Peek(p0); err == nil {
		t.Error("freed page restored as live")
	}
	// Allocation reuses the freed hole, as on the original.
	if got := rf.Alloc(); got != p0 {
		t.Errorf("restored allocator gave %d, want %d", got, p0)
	}
}

func TestRestoreDiskRejectsCorruption(t *testing.T) {
	if _, err := RestoreDisk(&DiskImage{PageSize: 0}); err == nil {
		t.Error("zero page size accepted")
	}
	bad := &DiskImage{PageSize: 32, Files: []FileImage{{Name: "f", Pages: [][]byte{make([]byte, 16)}}}}
	if _, err := RestoreDisk(bad); err == nil {
		t.Error("wrong page size accepted")
	}
	hole := &DiskImage{PageSize: 32, Files: []FileImage{{Name: "f", Pages: [][]byte{nil}}}}
	if _, err := RestoreDisk(hole); err == nil {
		t.Error("unfreed hole accepted")
	}
	badFree := &DiskImage{PageSize: 32, Files: []FileImage{{
		Name: "f", Pages: [][]byte{make([]byte, 32)}, Free: []PageNum{0},
	}}}
	if _, err := RestoreDisk(badFree); err == nil {
		t.Error("free list naming a live page accepted")
	}
}
