package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"testing"

	"viewmat/internal/storage"
)

// FuzzWALReader feeds arbitrary bytes to the frame reader and checks
// the contract garbage can never break: no panics, every yielded
// payload re-verifies against its own checksum, the reader terminates
// (offsets strictly advance), and it ends in exactly one of EOF, torn
// or corrupt.
func FuzzWALReader(f *testing.F) {
	// Seed with a valid log, a torn tail, zero fill, and junk.
	dev := storage.NewFaultDisk()
	l, err := OpenLog(dev)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range [][]byte{[]byte("seed-one"), []byte("seed-two")} {
		if err := l.AppendSync(p); err != nil {
			f.Fatal(err)
		}
	}
	img := make([]byte, l.Offset())
	if _, err := dev.ReadAt(img, 0); err != nil && !errors.Is(err, io.EOF) {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add(img[:len(img)-3])
	f.Add(append(append([]byte(nil), img...), 0, 0, 0, 0, 0))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(storage.NewFaultDiskBytes(data))
		if err != nil {
			t.Fatalf("NewReader: %v", err)
		}
		prev := r.Offset()
		for {
			payload, err := r.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("unexpected terminal error: %v", err)
				}
				if r.Offset() < prev {
					t.Fatalf("offset moved backward on error: %d -> %d", prev, r.Offset())
				}
				return
			}
			if len(payload) == 0 {
				t.Fatal("reader yielded an empty record")
			}
			if r.Offset() <= prev {
				t.Fatalf("offset did not advance: %d -> %d", prev, r.Offset())
			}
			// Re-verify the yielded payload against the stored checksum;
			// a mismatch here would mean the reader returned corrupt data.
			start := prev
			var hdr [8]byte
			if n := copy(hdr[:], data[start:]); n != 8 {
				t.Fatalf("record at %d has no full header", start)
			}
			if got := Checksum(payload); got != uint32(hdr[4])|uint32(hdr[5])<<8|uint32(hdr[6])<<16|uint32(hdr[7])<<24 {
				t.Fatalf("record at %d fails its checksum after read", start)
			}
			prev = r.Offset()
		}
	})
}

// FuzzLogRecycle drives one log through random appends, syncs and
// resets, then a power cut. With sectors 0 the cut keeps a torn prefix
// of the unsynced writes (FaultDisk.CrashNow), and the durable image must
// read as every record synced since the last reset, in order, then
// possibly unsynced records complete, and then only frames the reset made
// stale (seqs no greater than the last one before it), whatever ends the
// read. Otherwise it keeps the unsynced sectors the bits of sectors pick
// (FaultDisk.CrashSectors), in no order: a later record can survive
// without an earlier one, and stale frames where the first records were.
// Every payload starts with its seq, which increases across resets as the
// engine's do, and its length picks one of two bands, under 64 bytes or
// just past 4 KiB, so that some resets rewind the log and some truncate
// it. Either way the log read as recovery reads it — frames in order up
// to where the seq rule (Seqs) ends it, past the reset's seq — must hold
// the current records from the first, in order, every synced one among
// them; a log reopened where that read ended, as recovery reopens it,
// then takes the next record, which reads back right behind them.
//
// The last seed is the out-of-order overwrite: nine 64-byte records
// rewound and overwritten by nine more, whose first sector is lost and
// second kept, so the stale frames run into the ninth new record; only
// the seq rule's gap stop keeps it from being read as current.
func FuzzLogRecycle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 0, 2, 5}, uint16(7), uint64(0))
	f.Add([]byte{1, 2, 3, 0, 0, 2, 3, 0}, uint16(30), uint64(0))
	f.Add([]byte{0, 0, 0, 2, 3, 1, 2, 3, 0, 0}, uint16(4100), uint64(0))
	f.Add([]byte{0, 0, 2, 3, 0, 2, 0, 0, 0}, uint16(0), uint64(0))
	f.Add([]byte{0, 1, 2, 0, 3, 0, 2, 5, 1, 0}, uint16(7), uint64(0x5555))
	f.Add([]byte{1, 2, 3, 0, 0, 2, 3, 0, 1}, uint16(30), ^uint64(0))
	overwrite := append(append(bytes.Repeat([]byte{48}, 9), 2, 3), bytes.Repeat([]byte{48}, 9)...)
	f.Add(overwrite, uint16(0), uint64(0b10))
	f.Fuzz(func(t *testing.T, script []byte, torn uint16, sectors uint64) {
		if len(script) > 64 {
			script = script[:64]
		}
		dev := storage.NewFaultDisk()
		l, err := OpenLog(dev)
		if err != nil {
			t.Fatal(err)
		}
		var (
			seq, resetSeq uint64
			sizes         = map[uint64]int{}
			cur           []uint64 // seqs appended since the last reset
			synced        int      // how many of cur a sync covered
		)
		appendRec := func(l *Log, n int) {
			seq++
			if err := l.Append(recyclePayload(seq, n)); err != nil {
				t.Fatal(err)
			}
			sizes[seq] = n
			cur = append(cur, seq)
		}
		for i, op := range script {
			switch op % 4 {
			case 0, 1:
				n := 8 + int(op)%56
				if op%4 == 1 {
					n = 4090 + int(op)%16
				}
				appendRec(l, n)
			case 2:
				if err := l.Sync(); err != nil {
					t.Fatal(err)
				}
				synced = len(cur)
			case 3:
				if err := l.ResetAt(l.Offset()); err != nil {
					t.Fatalf("op %d: ResetAt: %v", i, err)
				}
				cur, synced, resetSeq = nil, 0, seq
			}
		}
		// read checks an image, returning the seqs of the current records
		// it holds, where they end, whether a stale frame followed them
		// and what ended the read.
		read := func(img storage.Device) (found []uint64, end int64, stale bool, err error) {
			r, err := NewReader(img)
			if err != nil {
				t.Fatal(err)
			}
			for {
				start := r.Offset()
				p, err := r.Next()
				if err != nil {
					return found, end, stale, err
				}
				s := binary.LittleEndian.Uint64(p)
				if n, ok := sizes[s]; !ok || !bytes.Equal(p, recyclePayload(s, n)) {
					t.Fatalf("frame at %d: payload of %d bytes is no record's", start, len(p))
				}
				if !stale && len(found) < len(cur) && s == cur[len(found)] {
					found, end = append(found, s), r.Offset()
					continue
				}
				if s > resetSeq {
					t.Fatalf("frame at %d holds seq %d after current records %v of %v; a stale frame's seq is at most %d", start, s, found, cur, resetSeq)
				}
				stale = true
			}
		}
		// clean checks that an image whose writes all landed reads as the
		// current records and then ends cleanly; only a log that took no
		// append since its reset shows stale frames.
		clean := func(img storage.Device, when string) {
			if found, _, stale, err := read(img); len(found) != len(cur) || stale && len(cur) > 0 || !errors.Is(err, io.EOF) {
				t.Fatalf("%s: the log reads current records %v of %v, stale frames %v, end %v; want all, none, EOF", when, found, cur, stale, err)
			}
		}
		// recovered reads an image as recovery does, returning the
		// current records the seq rule lets through, where the read
		// ended and what ended it (nil: the seq rule).
		recovered := func(img storage.Device) (replayed []uint64, end int64, err error) {
			r, err := NewReader(img)
			if err != nil {
				t.Fatal(err)
			}
			seqs := NewSeqs(resetSeq)
			for {
				end = r.Offset()
				p, err := r.Next()
				if err != nil {
					return replayed, end, err
				}
				s := binary.LittleEndian.Uint64(p)
				if n, ok := sizes[s]; !ok || !bytes.Equal(p, recyclePayload(s, n)) {
					t.Fatalf("frame at %d: payload of %d bytes is no record's", end, len(p))
				}
				if ok, _ := seqs.Next(s); !ok {
					return replayed, end, nil
				}
				if s > resetSeq {
					replayed = append(replayed, s)
				}
			}
		}
		clean(dev, "before the crash")
		if sectors == 0 {
			dev.CrashNow(int(torn))
		} else {
			dev.CrashSectors(sectors)
		}
		img := dev.DurableDevice()
		if sectors == 0 {
			if found, _, _, _ := read(img); len(found) < synced {
				t.Fatalf("durable image holds current records %v, want at least the synced %v", found, cur[:synced])
			}
		}
		replayed, end, _ := recovered(img)
		if len(replayed) < synced || len(replayed) > len(cur) || !slices.Equal(replayed, cur[:len(replayed)]) {
			t.Fatalf("recovery reads records %v of the current %v, want the first of them, the %d synced among them", replayed, cur, synced)
		}
		reopened, err := OpenLogAt(img, end)
		if err != nil {
			t.Fatal(err)
		}
		// The next record follows the last one recovered, as the engine's
		// seq does after Recover.
		cur, seq = replayed, resetSeq
		if len(replayed) > 0 {
			seq = replayed[len(replayed)-1]
		}
		appendRec(reopened, 8+int(torn)%4100)
		if err := reopened.Sync(); err != nil {
			t.Fatal(err)
		}
		if got, _, err := recovered(img); !slices.Equal(got, cur) || !errors.Is(err, io.EOF) {
			t.Fatalf("after reopening where recovery stopped and appending, recovery reads %v ending with %v; want %v and a clean end", got, err, cur)
		}
	})
}

// recyclePayload is FuzzLogRecycle's record of seq: n bytes, the seq
// first, then a fill that depends on it.
func recyclePayload(seq uint64, n int) []byte {
	p := make([]byte, n)
	binary.LittleEndian.PutUint64(p, seq)
	for i := 8; i < n; i++ {
		p[i] = byte(seq) + byte(i)
	}
	return p
}
