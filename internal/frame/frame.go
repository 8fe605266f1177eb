// Package frame is the length-prefixed, checksummed frame codec shared
// by the write-ahead log (internal/wal) and the network protocol
// (internal/proto). Both speak the same minimal format:
//
//	[4B little-endian payload length][4B CRC-32C of payload][payload]
//
// The codec itself is policy-free: it encodes and parses headers and
// verifies checksums. A frame is built in one buffer: its writer lays
// the payload out behind HeaderSize bytes of room, and the header is
// filled into that room, so no payload is copied into a second buffer.
// The two consumers layer their own error taxonomy on top — the WAL
// distinguishes torn from corrupt tails over a storage.Device, while the
// stream helpers here classify damage on a byte stream (a network
// connection) where "torn" means the peer hung up mid-frame.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// HeaderSize is the fixed frame header: 4 bytes of payload length
// followed by 4 bytes of CRC-32C.
const HeaderSize = 8

var (
	// ErrTooLarge marks a header whose length field exceeds the
	// caller's cap — adversarial or corrupt input that must not turn
	// into a giant allocation.
	ErrTooLarge = errors.New("frame: payload length exceeds cap")
	// ErrChecksum marks a payload that does not match its header CRC.
	ErrChecksum = errors.New("frame: checksum mismatch")
	// ErrEmpty marks a zero-length frame. Empty payloads are rejected
	// on encode so a zeroed region can never masquerade as a record
	// (length 0 + CRC 0 is the zero-fill pattern the WAL treats as a
	// clean end).
	ErrEmpty = errors.New("frame: empty payload")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of the payload.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, crcTable) }

// PutHeader writes a frame header for the payload into hdr, which must
// be at least HeaderSize bytes.
func PutHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], Checksum(payload))
}

// ParseHeader splits a frame header into its payload length and CRC.
// hdr must be at least HeaderSize bytes.
func ParseHeader(hdr []byte) (length, crc uint32) {
	return binary.LittleEndian.Uint32(hdr[0:4]), binary.LittleEndian.Uint32(hdr[4:8])
}

// Write writes f, a payload built in place behind HeaderSize bytes of
// room, as one frame with one Write: the header goes into the room, so
// the payload is not copied. max caps the payload length (0 means no
// cap); empty payloads are rejected (see ErrEmpty). Nothing is written
// on an error.
func Write(w io.Writer, f []byte, max uint32) error {
	payload := f[HeaderSize:]
	switch {
	case len(payload) == 0:
		return ErrEmpty
	case max != 0 && uint32(len(payload)) > max:
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(payload), max)
	}
	PutHeader(f, payload)
	_, err := w.Write(f)
	return err
}

// Read reads one frame from r and returns its verified payload. max
// caps the payload length a header may claim (0 means no cap).
//
// Error classification on a stream: io.EOF when the stream ends
// cleanly before any header byte, io.ErrUnexpectedEOF (wrapped) when
// it ends mid-frame, ErrTooLarge and ErrEmpty for impossible lengths,
// ErrChecksum for payload damage. Transport errors pass through.
func Read(r io.Reader, max uint32) ([]byte, error) {
	hdr := make([]byte, HeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("frame: stream ended mid-header: %w", io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	length, crc := ParseHeader(hdr)
	if length == 0 {
		return nil, ErrEmpty
	}
	if max != 0 && length > max {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, length, max)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("frame: stream ended mid-payload: %w", io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	if Checksum(payload) != crc {
		return nil, ErrChecksum
	}
	return payload, nil
}
