package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"viewmat/internal/storage"
)

// ErrNoSnapshot is returned by Chain when the store holds no complete
// full frame (a fresh device, or one whose only write was torn).
var ErrNoSnapshot = errors.New("wal: no snapshot")

// FrameKind says what a snapshot frame's body is relative to.
type FrameKind byte

const (
	// FrameFull is a self-contained image: recovery starts from the
	// last one.
	FrameFull FrameKind = 1
	// FrameDelta holds what changed since the frame before it.
	FrameDelta FrameKind = 2
)

// snapHeaderSize is the per-payload prefix: 8-byte sequence number and
// one kind byte.
const snapHeaderSize = 9

// SnapshotFrame is one checkpoint as stored: the sequence number of the
// last WAL record it covers, its kind, and the engine's opaque body.
type SnapshotFrame struct {
	Seq  uint64
	Kind FrameKind
	Body []byte
}

// frameRef locates a frame's payload on the device.
type frameRef struct {
	off int64
	n   int
}

// SnapshotStore keeps engine checkpoints on a Device using the same
// checksummed frame format as the log, with a sequence number and a
// kind prefixed to each payload. It is append-only: a new frame goes
// after the previous one and only joins the recovery chain once it is
// fully synced, so a crash mid-checkpoint leaves the prior chain intact
// and Chain still finds it. The log is reset only after the frame is
// durable. The recovery chain is the last full frame and every delta
// frame after it; frames before the last full frame are dead weight the
// store never reads again (it does not reclaim them).
type SnapshotStore struct {
	log *Log
	// chain locates the recovery chain's frames, found by the open scan
	// and extended by Append.
	chain      []frameRef
	deltaBytes int64
}

// OpenSnapshotStore opens a snapshot store on dev in one pass: every
// frame is read and checksummed once, only the offsets of the current
// recovery chain are kept, and — like OpenLog — a torn or corrupt tail
// (including a well-framed payload that is no snapshot frame) is
// truncated away.
func OpenSnapshotStore(dev storage.Device) (*SnapshotStore, error) {
	s := &SnapshotStore{}
	end, err := scanAndRepair(dev, func(off int64, payload []byte) error {
		return s.note(frameRef{off: off, n: len(payload)}, payload)
	})
	if err != nil {
		return nil, err
	}
	if s.log, err = OpenLogAt(dev, end); err != nil {
		return nil, err
	}
	return s, nil
}

// note folds one verified frame into the chain bookkeeping.
func (s *SnapshotStore) note(ref frameRef, payload []byte) error {
	if len(payload) < snapHeaderSize {
		return fmt.Errorf("%w: snapshot frame of %d bytes lacks its header", ErrCorrupt, len(payload))
	}
	switch FrameKind(payload[8]) {
	case FrameFull:
		s.chain = append(s.chain[:0], ref)
		s.deltaBytes = 0
	case FrameDelta:
		if len(s.chain) == 0 {
			return fmt.Errorf("%w: delta frame before any full frame", ErrCorrupt)
		}
		s.chain = append(s.chain, ref)
		s.deltaBytes += int64(ref.n)
	default:
		return fmt.Errorf("%w: snapshot frame of unknown kind %d", ErrCorrupt, payload[8])
	}
	return nil
}

// FrameReserve is the room a checkpoint body's buffer keeps in front of
// the body for AppendFramed: the frame header, then the snapshot header.
const FrameReserve = headerSize + snapHeaderSize

// Append durably stores a checkpoint frame tagged with seq: the body
// copied once behind the headers, then AppendFramed.
func (s *SnapshotStore) Append(seq uint64, kind FrameKind, body []byte) error {
	buf := make([]byte, FrameReserve+len(body))
	copy(buf[FrameReserve:], body)
	return s.AppendFramed(seq, kind, buf)
}

// AppendFramed durably stores buf[FrameReserve:], a body encoded behind
// the room FrameReserve keeps, as a checkpoint frame tagged with seq: it
// writes both headers into that room and the frame with one WriteAt after
// the previous frame, never copying the body, and syncs before
// returning. A frame whose write or sync fails is cut off again, so the
// frame that retries it replaces it instead of following it (two deltas
// against the same base must not both be applied).
func (s *SnapshotStore) AppendFramed(seq uint64, kind FrameKind, buf []byte) error {
	if kind == FrameDelta && len(s.chain) == 0 {
		return fmt.Errorf("wal: delta frame before any full frame")
	}
	payload := buf[headerSize:]
	binary.LittleEndian.PutUint64(payload[:8], seq)
	payload[8] = byte(kind)
	start := s.log.Offset()
	err := s.log.AppendFramed(buf)
	if err == nil {
		err = s.log.Sync()
	}
	if err != nil {
		// Best effort: on a device too broken to truncate, rewinding the
		// offset alone still makes the next frame overwrite this one.
		_ = s.log.rewind(start)
		return err
	}
	return s.note(frameRef{off: start + headerSize, n: len(payload)}, payload)
}

// DeltaBytes returns the payload bytes of the delta frames appended
// since the last full frame — what a new full frame would supersede.
func (s *SnapshotStore) DeltaBytes() int64 { return s.deltaBytes }

// FullBytes returns the payload bytes of the chain's full frame (0 with
// no chain): what the disk's image costs to store, which the deltas
// after it are weighed against.
func (s *SnapshotStore) FullBytes() int64 {
	if len(s.chain) == 0 {
		return 0
	}
	return int64(s.chain[0].n)
}

// Chain reads the recovery chain: the newest fully-written full frame
// and the delta frames after it, in order. Only these frames are read;
// each is checksummed again. ErrNoSnapshot if no full frame survived.
func (s *SnapshotStore) Chain() ([]SnapshotFrame, error) {
	if len(s.chain) == 0 {
		return nil, ErrNoSnapshot
	}
	frames := make([]SnapshotFrame, len(s.chain))
	for i, ref := range s.chain {
		r := &Reader{dev: s.log.dev, off: ref.off - headerSize, size: ref.off + int64(ref.n)}
		payload, err := r.Next()
		if err != nil || len(payload) != ref.n {
			return nil, fmt.Errorf("%w: snapshot frame at %d changed since the store was opened: %v", ErrCorrupt, ref.off, err)
		}
		frames[i] = SnapshotFrame{
			Seq:  binary.LittleEndian.Uint64(payload[:8]),
			Kind: FrameKind(payload[8]),
			Body: payload[snapHeaderSize:],
		}
	}
	return frames, nil
}
