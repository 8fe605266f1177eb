package frame

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// room lays payload out as a frame's writer does: behind HeaderSize
// bytes of room for the header.
func room(payload []byte) []byte { return append(make([]byte, HeaderSize), payload...) }

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{1}, []byte("hello"), bytes.Repeat([]byte{0xab}, 4096)}
	for _, p := range payloads {
		if err := Write(&buf, room(p), 1<<20); err != nil {
			t.Fatalf("Write(%d bytes): %v", len(p), err)
		}
	}
	for i, p := range payloads {
		got, err := Read(&buf, 1<<20)
		if err != nil {
			t.Fatalf("Read frame %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(p))
		}
	}
	if _, err := Read(&buf, 1<<20); !errors.Is(err, io.EOF) {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestWriteRejectsEmptyAndOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, room(nil), 0); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty payload: err = %v, want ErrEmpty", err)
	}
	if err := Write(&buf, room(make([]byte, 100)), 99); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize payload: err = %v, want ErrTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("a rejected frame wrote %d bytes", buf.Len())
	}
}

// sink records the slices written to it.
type sink [][]byte

func (s *sink) Write(p []byte) (int, error) { *s = append(*s, p); return len(p), nil }

// Write fills the header into the room in front of the payload and hands
// the writer that one buffer: the payload is not copied.
func TestWriteFillsTheRoomInPlace(t *testing.T) {
	f := room([]byte("payload"))
	var w sink
	if err := Write(&w, f, 0); err != nil {
		t.Fatal(err)
	}
	if len(w) != 1 || &w[0][0] != &f[0] || len(w[0]) != len(f) {
		t.Fatalf("Write made %d writes, not one of the frame's own buffer", len(w))
	}
	length, crc := ParseHeader(f)
	if int(length) != len("payload") || crc != Checksum([]byte("payload")) {
		t.Fatalf("header (%d, %#x) in the room, want (%d, %#x)", length, crc, len("payload"), Checksum([]byte("payload")))
	}
}

func TestReadClassifiesDamage(t *testing.T) {
	var framed bytes.Buffer
	if err := Write(&framed, room([]byte("payload")), 0); err != nil {
		t.Fatal(err)
	}
	whole := framed.Bytes()

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"clean EOF", nil, io.EOF},
		{"mid-header", whole[:3], io.ErrUnexpectedEOF},
		{"mid-payload", whole[:HeaderSize+2], io.ErrUnexpectedEOF},
		{"zero length", make([]byte, HeaderSize), ErrEmpty},
		{"checksum", flipLastByte(whole), ErrChecksum},
	}
	for _, c := range cases {
		if _, err := Read(bytes.NewReader(c.data), 0); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}

	// A header claiming more than the cap must fail before allocating.
	big := make([]byte, HeaderSize)
	PutHeader(big, make([]byte, 1024))
	if _, err := Read(bytes.NewReader(big), 16); !errors.Is(err, ErrTooLarge) {
		t.Errorf("over-cap length: err = %v, want ErrTooLarge", err)
	}
}

func flipLastByte(f []byte) []byte {
	out := append([]byte(nil), f...)
	out[len(out)-1] ^= 0xff
	return out
}
