package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"viewmat/internal/storage"
)

// readAll drains a reader, returning the payloads and the terminating
// error.
func readAll(t *testing.T, dev storage.Device) ([][]byte, error) {
	t.Helper()
	r, err := NewReader(dev)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var out [][]byte
	for {
		p, err := r.Next()
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

func TestLogRoundTrip(t *testing.T) {
	dev := storage.NewFaultDisk()
	l, err := OpenLog(dev)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	want := [][]byte{[]byte("one"), []byte("two two"), {0x00, 0xff, 0x00}}
	for _, p := range want {
		if err := l.AppendSync(p); err != nil {
			t.Fatalf("AppendSync: %v", err)
		}
	}
	got, err := readAll(t, dev)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("terminating error = %v, want EOF", err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAppendRejectsEmptyAndOversized(t *testing.T) {
	l, err := OpenLog(storage.NewFaultDisk())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(nil); err == nil {
		t.Error("Append(nil) succeeded; empty payloads would alias the zero-fill end marker")
	}
	if err := l.Append(make([]byte, MaxRecordSize+1)); err == nil {
		t.Error("oversized Append succeeded")
	}
}

// TestTornTailStopsReplay cuts a record at every possible byte boundary
// and checks the reader yields exactly the whole records before the cut
// and then ErrTorn (or clean EOF at frame boundaries / zero-filled
// remainders).
func TestTornTailStopsReplay(t *testing.T) {
	build := func() ([]byte, []int) {
		dev := storage.NewFaultDisk()
		l, _ := OpenLog(dev)
		var ends []int
		for _, p := range [][]byte{[]byte("alpha"), []byte("beta-beta"), []byte("g")} {
			if err := l.AppendSync(p); err != nil {
				t.Fatal(err)
			}
			ends = append(ends, int(l.Offset()))
		}
		img := make([]byte, ends[len(ends)-1])
		if _, err := dev.ReadAt(img, 0); err != nil && !errors.Is(err, io.EOF) {
			t.Fatal(err)
		}
		return img, ends
	}
	img, ends := build()
	for cut := 0; cut <= len(img); cut++ {
		dev := storage.NewFaultDiskBytes(img[:cut])
		got, err := readAll(t, dev)
		wantWhole := 0
		for _, e := range ends {
			if cut >= e {
				wantWhole++
			}
		}
		if len(got) != wantWhole {
			t.Fatalf("cut %d: %d records, want %d", cut, len(got), wantWhole)
		}
		atBoundary := cut == 0
		for _, e := range ends {
			if cut == e {
				atBoundary = true
			}
		}
		if atBoundary {
			if !errors.Is(err, io.EOF) {
				t.Errorf("cut %d (frame boundary): err = %v, want EOF", cut, err)
			}
		} else if !errors.Is(err, ErrTorn) {
			t.Errorf("cut %d: err = %v, want ErrTorn", cut, err)
		}
	}
}

func TestZeroFillIsCleanEnd(t *testing.T) {
	dev := storage.NewFaultDisk()
	l, _ := OpenLog(dev)
	if err := l.AppendSync([]byte("record")); err != nil {
		t.Fatal(err)
	}
	// A pre-allocated file tail: zero bytes after the last record.
	for _, pad := range []int{1, 7, 8, 64} {
		padded := storage.NewFaultDiskBytes(nil)
		img := make([]byte, l.Offset())
		if _, err := dev.ReadAt(img, 0); err != nil && !errors.Is(err, io.EOF) {
			t.Fatal(err)
		}
		if _, err := padded.WriteAt(append(img, make([]byte, pad)...), 0); err != nil {
			t.Fatal(err)
		}
		got, err := readAll(t, padded)
		if !errors.Is(err, io.EOF) {
			t.Errorf("pad %d: err = %v, want EOF", pad, err)
		}
		if len(got) != 1 {
			t.Errorf("pad %d: %d records, want 1", pad, len(got))
		}
	}
}

func TestCorruptRecordStopsReplay(t *testing.T) {
	mk := func() (*storage.FaultDisk, int64) {
		dev := storage.NewFaultDisk()
		l, _ := OpenLog(dev)
		for _, p := range [][]byte{[]byte("first"), []byte("second")} {
			if err := l.AppendSync(p); err != nil {
				t.Fatal(err)
			}
		}
		return dev, l.Offset()
	}

	t.Run("flipped payload byte", func(t *testing.T) {
		dev, _ := mk()
		// Corrupt a payload byte of the second record (offset 8+5+8 = 21).
		if _, err := dev.WriteAt([]byte{0xee}, 22); err != nil {
			t.Fatal(err)
		}
		got, err := readAll(t, dev)
		if len(got) != 1 || !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %d records, err %v; want 1 record then ErrCorrupt", len(got), err)
		}
	})
	t.Run("absurd length", func(t *testing.T) {
		dev, _ := mk()
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], MaxRecordSize+1)
		if _, err := dev.WriteAt(hdr[:], 13); err != nil { // second record's length field
			t.Fatal(err)
		}
		got, err := readAll(t, dev)
		if len(got) != 1 || !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %d records, err %v; want 1 record then ErrCorrupt", len(got), err)
		}
	})
}

// TestOpenLogRepairsTail checks OpenLog truncates crash residue so a
// new append never leaves stale bytes after itself.
func TestOpenLogRepairsTail(t *testing.T) {
	dev := storage.NewFaultDisk()
	l, _ := OpenLog(dev)
	if err := l.AppendSync([]byte("keep")); err != nil {
		t.Fatal(err)
	}
	kept := l.Offset()
	// Simulate a torn append: half a frame of garbage.
	if _, err := dev.WriteAt([]byte{9, 0, 0, 0, 1, 2}, kept); err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLog(dev)
	if err != nil {
		t.Fatalf("OpenLog over torn tail: %v", err)
	}
	if l2.Offset() != kept {
		t.Fatalf("reopened offset %d, want %d", l2.Offset(), kept)
	}
	if err := l2.AppendSync([]byte("after")); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(t, dev)
	if !errors.Is(err, io.EOF) || len(got) != 2 || string(got[1]) != "after" {
		t.Fatalf("after repair: records %q err %v", got, err)
	}
}

// TestAppendDuringSync: an Append completes while a Sync on the same log
// is blocked in the device, and a later Sync hardens it.
func TestAppendDuringSync(t *testing.T) {
	dev := storage.NewFaultDisk()
	l, _ := OpenLog(dev)
	if err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	held, release := dev.HoldSyncs()
	defer release()
	synced := make(chan error, 1)
	go func() { synced <- l.Sync() }()
	<-held
	if err := l.Append([]byte("second")); err != nil {
		t.Fatalf("Append during a blocked Sync: %v", err)
	}
	release()
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(t, dev.DurableDevice())
	if !errors.Is(err, io.EOF) || len(got) != 2 || string(got[1]) != "second" {
		t.Fatalf("durable records %q, err %v; want first and second", got, err)
	}
}

// TestResetAt: ResetAt resets the log only when its tail is at the
// given offset; otherwise it leaves every frame in place. A reset log
// takes its next append at offset 0. Until then a reader of the durable
// image sees only records from before the reset, all of them covered by
// the checkpoint that reset it (recovery skips them), and once appends
// are synced it sees exactly the records appended since the reset.
func TestResetAt(t *testing.T) {
	dev := storage.NewFaultDisk()
	l, _ := OpenLog(dev)
	if err := l.AppendSync([]byte("covered")); err != nil {
		t.Fatal(err)
	}
	end := l.Offset()
	if err := l.AppendSync([]byte("newer")); err != nil {
		t.Fatal(err)
	}
	if err := l.ResetAt(end); err != nil {
		t.Fatal(err)
	}
	if got, _ := readAll(t, dev.DurableDevice()); len(got) != 2 || l.Offset() == 0 {
		t.Fatalf("ResetAt behind the tail left records %q at offset %d, want both kept", got, l.Offset())
	}
	if err := l.ResetAt(l.Offset()); err != nil {
		t.Fatal(err)
	}
	if l.Offset() != 0 {
		t.Fatalf("ResetAt at the tail left the tail at %d, want 0", l.Offset())
	}
	if got, err := readAll(t, dev.DurableDevice()); !errors.Is(err, io.EOF) || len(got) != 2 || string(got[0]) != "covered" || string(got[1]) != "newer" {
		t.Fatalf("before any append the durable log reads %q, err %v; want only the records the reset covers", got, err)
	}
	for _, p := range []string{"after", "then"} {
		if err := l.AppendSync([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := readAll(t, dev.DurableDevice()); !errors.Is(err, io.EOF) || len(got) != 2 || string(got[0]) != "after" || string(got[1]) != "then" {
		t.Fatalf("after the reset: durable records %q err %v; want after, then", got, err)
	}
}

// TestResetAtTruncatesPastOnePage: a log whose device holds more than
// one page is truncated and synced at its reset instead of rewound, and
// the truncate lowers the bytes its next append's zero header guards.
func TestResetAtTruncatesPastOnePage(t *testing.T) {
	for _, c := range []struct {
		payload  int
		truncate bool
	}{
		{rewindLimit - headerSize, false},
		{rewindLimit - headerSize + 1, true},
	} {
		dev := storage.NewFaultDisk()
		l, _ := OpenLog(dev)
		if err := l.AppendSync(make([]byte, c.payload)); err != nil {
			t.Fatal(err)
		}
		syncs := dev.Syncs()
		if err := l.ResetAt(l.Offset()); err != nil {
			t.Fatal(err)
		}
		size, _ := dev.DurableDevice().Size()
		if truncated := size == 0; truncated != c.truncate || l.Offset() != 0 {
			t.Errorf("%d-byte log: reset left %d durable bytes and the tail at %d; want truncated %v", headerSize+c.payload, size, l.Offset(), c.truncate)
		}
		if synced := dev.Syncs() > syncs; synced != c.truncate {
			t.Errorf("%d-byte log: reset synced %v, want %v", headerSize+c.payload, synced, c.truncate)
		}
		if err := l.AppendSync([]byte("x")); err != nil {
			t.Fatal(err)
		}
		want := int64(headerSize + 1)
		if !c.truncate {
			want = headerSize + int64(c.payload)
		}
		if size, _ := dev.Size(); size != want {
			t.Errorf("%d-byte log: the append after the reset left %d bytes, want %d", headerSize+c.payload, size, want)
		}
		if got, err := readAll(t, dev.DurableDevice()); !errors.Is(err, io.EOF) || len(got) != 1 || string(got[0]) != "x" {
			t.Errorf("%d-byte log: after the reset the log reads %q, err %v", headerSize+c.payload, got, err)
		}
	}
}

// TestRewindKeepsSizeWhenTruncateFails: a frame cut off by rewind on a
// device that refuses the truncate stays on the device, and the next,
// shorter frame over it hides the rest of it behind a zero header.
func TestRewindKeepsSizeWhenTruncateFails(t *testing.T) {
	dev := &refuseTruncate{FaultDisk: storage.NewFaultDisk()}
	l, _ := OpenLog(dev)
	if err := l.Append([]byte("a frame that fails")); err != nil {
		t.Fatal(err)
	}
	if err := l.rewind(0); err == nil {
		t.Fatal("rewind on a device that refuses the truncate returned nil")
	}
	if err := l.AppendSync([]byte("retry")); err != nil {
		t.Fatal(err)
	}
	if got, err := readAll(t, dev.DurableDevice()); !errors.Is(err, io.EOF) || len(got) != 1 || string(got[0]) != "retry" {
		t.Fatalf("after the refused truncate the log reads %q, err %v; want the retry alone", got, err)
	}
}

// refuseTruncate is a FaultDisk whose truncates fail.
type refuseTruncate struct{ *storage.FaultDisk }

func (refuseTruncate) Truncate(int64) error { return errors.New("truncate refused") }

// lastFrame opens a store on dev and returns the tail of its recovery
// chain and the chain's length.
func lastFrame(t *testing.T, dev storage.Device) (SnapshotFrame, int, *SnapshotStore) {
	t.Helper()
	s := mustOpenStore(t, dev)
	frames, err := s.Chain()
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	return frames[len(frames)-1], len(frames), s
}

func TestSnapshotStoreLatestSurvivesTornCheckpoint(t *testing.T) {
	dev := storage.NewFaultDisk()
	s, err := OpenSnapshotStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Chain(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("Chain on empty store: %v, want ErrNoSnapshot", err)
	}
	if err := s.Append(1, FrameDelta, []byte("orphan")); err == nil {
		t.Fatal("delta frame accepted before any full frame")
	}
	if err := s.Append(3, FrameFull, []byte("snap-a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(9, FrameFull, []byte("snap-b")); err != nil {
		t.Fatal(err)
	}
	if f, n, _ := lastFrame(t, dev); n != 1 || f.Seq != 9 || f.Kind != FrameFull || string(f.Body) != "snap-b" {
		t.Fatalf("chain tail = %+v of %d frames, want full snap-b at seq 9 alone", f, n)
	}
	// Tear the tail of a third snapshot: the second must still win, and
	// the reopened store must append right after it.
	size, _ := dev.Size()
	if _, err := dev.WriteAt([]byte{200, 1, 0, 0, 7, 7, 7, 7, 1, 2, 3}, size); err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	f, n, s2 := lastFrame(t, dev)
	if n != 1 || f.Seq != 9 || string(f.Body) != "snap-b" {
		t.Fatalf("chain tail after torn checkpoint = %+v of %d frames, want snap-b at seq 9", f, n)
	}
	if got, _ := dev.Size(); got != size {
		t.Fatalf("torn tail not truncated: device is %d bytes, want %d", got, size)
	}
	if err := s2.Append(12, FrameDelta, []byte("delta-c")); err != nil {
		t.Fatal(err)
	}
	if f, n, _ := lastFrame(t, dev); n != 2 || f.Seq != 12 || f.Kind != FrameDelta || string(f.Body) != "delta-c" {
		t.Fatalf("chain tail = %+v of %d frames, want delta-c at seq 12 after snap-b", f, n)
	}
}

// TestSnapshotStoreChain pins what the chain is — the last full frame
// and the deltas after it, nothing older — that the store keeps it
// current across appends without rescanning, and that the open scan
// ends the valid prefix at a well-framed payload that is no snapshot
// frame.
func TestSnapshotStoreChain(t *testing.T) {
	dev := storage.NewFaultDisk()
	s, err := OpenSnapshotStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	type fr struct {
		seq  uint64
		kind FrameKind
		body string
	}
	script := []fr{{1, FrameFull, "f1"}, {2, FrameDelta, "d2"}, {3, FrameDelta, "d3"}, {4, FrameFull, "f4"}, {5, FrameDelta, "d5-longer"}, {6, FrameDelta, "d6"}}
	for _, f := range script {
		if err := s.Append(f.seq, f.kind, []byte(f.body)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(s *SnapshotStore, where string) {
		t.Helper()
		frames, err := s.Chain()
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		want := script[3:]
		if len(frames) != len(want) {
			t.Fatalf("%s: chain of %d frames, want %d", where, len(frames), len(want))
		}
		for i, f := range frames {
			if f.Seq != want[i].seq || f.Kind != want[i].kind || string(f.Body) != want[i].body {
				t.Errorf("%s: frame %d = %+v, want %+v", where, i, f, want[i])
			}
		}
		if got, want := s.DeltaBytes(), int64(2*snapHeaderSize+len("d5-longer")+len("d6")); got != want {
			t.Errorf("%s: DeltaBytes = %d, want %d", where, got, want)
		}
		if got, want := s.FullBytes(), int64(snapHeaderSize+len("f4")); got != want {
			t.Errorf("%s: FullBytes = %d, want %d", where, got, want)
		}
	}
	check(s, "live store")
	reopened, err := OpenSnapshotStore(dev.DurableDevice())
	if err != nil {
		t.Fatal(err)
	}
	check(reopened, "reopened store")

	// A checksummed frame that is not a snapshot frame (too short, or of
	// an unknown kind) ends the valid prefix like a corrupt one.
	for name, payload := range map[string][]byte{
		"short":        []byte("tiny"),
		"unknown kind": append(make([]byte, 8), 77, 'x'),
	} {
		d := dev.DurableDevice()
		size, _ := d.Size()
		l, err := OpenLog(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendSync(payload); err != nil {
			t.Fatal(err)
		}
		again, err := OpenSnapshotStore(d)
		if err != nil {
			t.Fatal(err)
		}
		check(again, name)
		if got, _ := d.Size(); got != size {
			t.Errorf("%s: alien frame not truncated: %d bytes, want %d", name, got, size)
		}
	}
}

// TestSnapshotStoreFailedAppendIsCutOff: a frame whose write or sync
// fails must not stay in the store — its retry would otherwise follow
// it, and two deltas against one base would both be applied.
func TestSnapshotStoreFailedAppendIsCutOff(t *testing.T) {
	boom := errors.New("boom")
	for _, fail := range []string{"write", "sync"} {
		dev := storage.NewFaultDisk()
		s, err := OpenSnapshotStore(dev)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append(1, FrameFull, []byte("full")); err != nil {
			t.Fatal(err)
		}
		if fail == "write" {
			dev.FailWriteAt(dev.Writes()+1, boom)
		} else {
			dev.FailSync(dev.Syncs()+1, boom)
		}
		if err := s.Append(2, FrameDelta, []byte("lost-delta-with-a-long-body")); !errors.Is(err, boom) {
			t.Fatalf("%s failure: Append = %v, want boom", fail, err)
		}
		if err := s.Append(3, FrameDelta, []byte("retry")); err != nil {
			t.Fatalf("%s failure: retry: %v", fail, err)
		}
		for where, st := range map[string]*SnapshotStore{"live": s, "reopened": mustOpenStore(t, dev.DurableDevice())} {
			frames, err := st.Chain()
			if err != nil {
				t.Fatalf("%s failure, %s: %v", fail, where, err)
			}
			if len(frames) != 2 || frames[1].Seq != 3 || string(frames[1].Body) != "retry" {
				t.Errorf("%s failure, %s: chain %+v, want full + the retried delta only", fail, where, frames)
			}
		}
	}
}

func mustOpenStore(t *testing.T, dev storage.Device) *SnapshotStore {
	t.Helper()
	s, err := OpenSnapshotStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFileDevice exercises the real-file backend end to end, including
// its injectable failures.
func TestFileDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	dev, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	l, err := OpenLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.AppendSync([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen and verify the valid prefix survives the file round trip.
	dev2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	got, err := readAll(t, dev2)
	if !errors.Is(err, io.EOF) || len(got) != 5 {
		t.Fatalf("reopened file: %d records, err %v", len(got), err)
	}

	boom := errors.New("boom")
	dev2.FailWriteAt(1, boom)
	l2, err := OpenLog(dev2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([]byte("x")); !errors.Is(err, boom) {
		t.Fatalf("injected write failure: %v", err)
	}
	dev2.FailSync(1, boom)
	if err := l2.AppendSync([]byte("y")); !errors.Is(err, boom) {
		t.Fatalf("injected sync failure: %v", err)
	}
}
