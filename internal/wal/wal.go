// Package wal implements the durability substrate of the viewmat
// engine: a checksummed, length-prefixed write-ahead log and an
// append-only snapshot store, both over a storage.Device (a real file
// or a fault-injecting in-memory disk).
//
// The frame format is the shared codec of internal/frame (also spoken
// by the network protocol):
//
//	[4B little-endian payload length][4B CRC-32C of payload][payload]
//
// Replay reads frames in order and stops at the first sign of trouble:
// a clean end (device boundary or a zero header), a torn record (length
// runs past the device), or a corrupt record (checksum mismatch or an
// absurd length). A torn tail is the residue of a crash mid-append at
// the device's end, a corrupt one that of a crash mid-append over the
// stale frames of a rewound log; everything before either was synced
// and is valid. Empty payloads are rejected on append so a zeroed
// region can never masquerade as a record (length 0 + CRC 0 is the
// zero header).
//
// A log is reset by rewinding it (Log.ResetAt): the next append lands
// at offset 0 over the frames the checkpoint made stale, and an append
// that ends short of the bytes the device holds writes a zero header
// behind its frame, so the reader never runs on into them.
package wal

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"viewmat/internal/frame"
	"viewmat/internal/storage"
)

const (
	headerSize = frame.HeaderSize
	// MaxRecordSize caps a single record; longer lengths in a header
	// are treated as corruption, which also keeps a fuzzer (or a bad
	// disk) from tricking the reader into a giant allocation.
	MaxRecordSize = 1 << 26
	// rewindLimit is the largest log ResetAt rewinds in place; a larger
	// one is truncated. An overwrite dirties the whole page-cache folio
	// it lands in, and the folios a large log leaves behind are large:
	// overwriting one small record then writes back far more than the
	// record (see DESIGN §3).
	rewindLimit = 4096
)

var (
	// ErrTorn marks a record cut short by the end of the device — the
	// tail a crash mid-append leaves behind. Everything before it is
	// valid.
	ErrTorn = errors.New("wal: torn record")
	// ErrCorrupt marks a record whose checksum does not match its
	// payload (or whose length field is impossible).
	ErrCorrupt = errors.New("wal: corrupt record")
)

// Checksum returns the CRC-32C the frame codec uses; exported so tests
// and fuzzers can verify records independently.
func Checksum(payload []byte) uint32 { return frame.Checksum(payload) }

// Log is an appender of checksummed frames on a Device. Appends are
// buffered by the device until a Sync covers them: the engine's commit
// barrier is an Append plus a later Sync, by this or another caller.
// Sync holds no lock across the device sync, so appends go on while
// one is in flight. Safe for concurrent use.
//
// The log's frames end at its tail (off), but the device may hold
// bytes past it (up to size): the stale frames of a rewound log, or
// whatever recovery stopped at. An append that ends short of size
// writes a zero header behind its frame, which ends every reader there.
type Log struct {
	mu  sync.Mutex
	dev storage.Device
	off int64
	// size is how far the device may hold bytes: its size at open,
	// raised by every write past it and lowered only by a truncate the
	// device took.
	size int64
}

// zeroHeader is the clean-end mark an append writes behind its frame
// when stale bytes follow it.
var zeroHeader [headerSize]byte

// OpenLog opens a log for appending, scanning existing frames to find
// the end of the valid prefix. A torn or corrupt tail (crash residue)
// is truncated away.
func OpenLog(dev storage.Device) (*Log, error) {
	end, err := scanAndRepair(dev, nil)
	if err != nil {
		return nil, err
	}
	return OpenLogAt(dev, end)
}

// OpenLogAt opens a log for appending at end, where a caller that reads
// what the records say (recovery, which ends a log at a stale or missing
// seq) found them to end. Nothing past end is read or cut: the next
// append's zero header hides it.
func OpenLogAt(dev storage.Device, end int64) (*Log, error) {
	size, err := dev.Size()
	if err != nil {
		return nil, err
	}
	return &Log{dev: dev, off: end, size: size}, nil
}

// scanAndRepair reads and checksums every frame of dev once, handing
// each payload (valid only during the call: the buffer is reused) and
// its offset to visit, and returns where the valid prefix ends. The
// prefix ends at a clean end, at a torn or corrupt frame, or before a
// frame visit rejects with ErrCorrupt; whatever follows a torn or
// corrupt frame is truncated away.
func scanAndRepair(dev storage.Device, visit func(off int64, payload []byte) error) (int64, error) {
	r, err := NewReader(dev)
	if err != nil {
		return 0, err
	}
	var buf []byte
	for {
		start := r.Offset()
		if buf, err = r.next(buf); err == nil && visit != nil {
			if err = visit(start+headerSize, buf); err != nil {
				r.off = start
			}
		}
		switch {
		case err == nil:
			continue
		case errors.Is(err, io.EOF):
			return r.Offset(), nil
		case errors.Is(err, ErrTorn), errors.Is(err, ErrCorrupt):
			if err := dev.Truncate(r.Offset()); err != nil {
				return 0, fmt.Errorf("wal: truncating damaged tail: %w", err)
			}
			if err := dev.Sync(); err != nil {
				return 0, err
			}
			return r.Offset(), nil
		default:
			return 0, err
		}
	}
}

// Append writes one frame at the tail without syncing.
func (l *Log) Append(payload []byte) error {
	f := make([]byte, headerSize+len(payload), 2*headerSize+len(payload))
	copy(f[headerSize:], payload)
	return l.AppendFramed(f)
}

// AppendFramed writes f, a payload behind headerSize bytes of room, as
// one frame at the tail without syncing: the header goes into the room,
// and the payload is not copied. When the frame ends short of the bytes
// the device holds, a zero header follows it in the same write, in f's
// spare capacity when it has headerSize bytes of it.
func (l *Log) AppendFramed(f []byte) error {
	payload := f[headerSize:]
	if len(payload) == 0 {
		return fmt.Errorf("wal: empty payload")
	}
	if len(payload) > MaxRecordSize {
		return fmt.Errorf("wal: payload of %d bytes exceeds max %d", len(payload), MaxRecordSize)
	}
	frame.PutHeader(f, payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	end := l.off + int64(len(f))
	if end < l.size {
		f = append(f, zeroHeader[:]...)
	}
	// A write that fails may still have landed in part: size counts it.
	l.size = max(l.size, l.off+int64(len(f)))
	if _, err := l.dev.WriteAt(f, l.off); err != nil {
		return err
	}
	l.off = end
	return nil
}

// Sync hardens every frame whose Append returned before it was called.
// Frames appended while it runs may or may not be covered.
func (l *Log) Sync() error { return l.dev.Sync() }

// ResetAt empties the log if its tail is still at off: the checkpoint's
// log-reset step, where off is where the frame's last record ended. A
// record appended since then is newer than the checkpoint, so the log
// keeps everything until the next checkpoint.
//
// A log whose device holds at most rewindLimit bytes is rewound: the
// tail moves to 0, with no truncate and no sync, and the frames left
// behind it are stale — all of them covered by the checkpoint, which
// recovery skips — until appends overwrite them. A larger log is
// truncated and synced.
func (l *Log) ResetAt(off int64) error {
	l.mu.Lock()
	if l.off != off {
		l.mu.Unlock()
		return nil
	}
	if l.size <= rewindLimit {
		l.off = 0
		l.mu.Unlock()
		return nil
	}
	if err := l.dev.Truncate(0); err != nil {
		l.mu.Unlock()
		return err
	}
	l.off, l.size = 0, 0
	l.mu.Unlock()
	// Appends may land at the new tail before this sync; it hardens
	// them with the truncate.
	return l.dev.Sync()
}

// rewind cuts the log back to off, dropping frames appended after it.
// The offset moves back even when the device refuses the truncate, so
// the next append overwrites what could not be cut, and size stays, so
// that append's zero header hides the rest.
func (l *Log) rewind(off int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.off = off
	if err := l.dev.Truncate(off); err != nil {
		return err
	}
	l.size = off
	return l.dev.Sync()
}

// Offset returns the current tail offset in bytes.
func (l *Log) Offset() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.off
}

// Seqs is where a log of sequence-numbered records ends for recovery,
// beyond what the frames say. Seqs increase along a log and across its
// rewinds, so a record whose seq does not exceed the previous record's is
// a stale frame a rewind left behind, behind a record whose zero header
// a crash tore off: the log's clean end. A record whose seq skips past
// the next follows one a crash lost, a later write of an overwrite that
// landed without an earlier one: the log's torn end.
type Seqs struct{ prev, last uint64 }

// NewSeqs starts the rule for a log replayed onto an image that holds
// every record up to seq base: records up to base may come first, and the
// first record past them must be base+1.
func NewSeqs(base uint64) Seqs { return Seqs{last: base} }

// Next judges the next record read, of sequence number seq: ok when the
// log goes on with it; otherwise the log ends before it, torn when seq
// skips past the next record.
func (s *Seqs) Next(seq uint64) (ok, torn bool) {
	switch {
	case seq <= s.prev:
		return false, false
	case seq > s.last+1:
		return false, true
	}
	s.prev, s.last = seq, max(s.last, seq)
	return true, false
}

// Reader iterates the frames of a device from the start.
type Reader struct {
	dev  storage.Device
	off  int64
	size int64
}

// NewReader positions a reader at the head of the device.
func NewReader(dev storage.Device) (*Reader, error) {
	size, err := dev.Size()
	if err != nil {
		return nil, err
	}
	return &Reader{dev: dev, size: size}, nil
}

// Offset returns the byte offset of the next unread frame — after an
// error, the boundary where the valid prefix ends.
func (r *Reader) Offset() int64 { return r.off }

// Next returns the next record's payload. It returns io.EOF at a clean
// end (device boundary or zero header), ErrTorn when a record runs past
// the device, and ErrCorrupt on a checksum or length violation. After
// any error the reader stays put: replay must stop, and Offset marks
// the end of the valid prefix.
func (r *Reader) Next() ([]byte, error) { return r.next(nil) }

// next is Next reading into buf when it is large enough.
func (r *Reader) next(buf []byte) ([]byte, error) {
	rem := r.size - r.off
	if rem <= 0 {
		return nil, io.EOF
	}
	if rem < headerSize {
		tail := make([]byte, rem)
		if _, err := io.ReadFull(io.NewSectionReader(r.dev, r.off, rem), tail); err != nil {
			return nil, fmt.Errorf("%w: reading %d tail bytes: %v", ErrTorn, rem, err)
		}
		for _, b := range tail {
			if b != 0 {
				return nil, fmt.Errorf("%w: %d trailing bytes, no room for a header", ErrTorn, rem)
			}
		}
		return nil, io.EOF
	}
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(io.NewSectionReader(r.dev, r.off, headerSize), hdr); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrTorn, err)
	}
	length, crc := frame.ParseHeader(hdr)
	if length == 0 && crc == 0 {
		return nil, io.EOF // zero header: clean end
	}
	if length == 0 || length > MaxRecordSize {
		return nil, fmt.Errorf("%w: record length %d", ErrCorrupt, length)
	}
	if r.off+headerSize+int64(length) > r.size {
		return nil, fmt.Errorf("%w: record of %d bytes runs past device end", ErrTorn, length)
	}
	payload := buf[:0]
	if uint32(cap(payload)) < length {
		payload = make([]byte, length)
	}
	payload = payload[:length]
	if _, err := io.ReadFull(io.NewSectionReader(r.dev, r.off+headerSize, int64(length)), payload); err != nil {
		return nil, fmt.Errorf("%w: reading payload: %v", ErrTorn, err)
	}
	if Checksum(payload) != crc {
		return nil, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, r.off)
	}
	r.off += headerSize + int64(length)
	return payload, nil
}
