package storage

import (
	"reflect"
	"testing"
)

// FuzzDiskDelta reads its input twice. As a script, it drives a Disk
// through Open, Alloc, Free, page edits, Remove and checkpoints — taken
// and applied, dropped as a frame that never landed, or a full frame
// starting the chain over — and holds every applied delta, sent through
// its encoding, to the Snapshot oracle (applyChecked). As hostile bytes,
// it is handed to DecodeDiskDelta: whatever decodes must re-encode to a
// delta that decodes the same, and applies to an image or is refused by
// Apply, never a panic.
func FuzzDiskDelta(f *testing.F) {
	// Ops are the low 3 bits of a byte, each followed by its operands.
	const (
		opOpen = iota
		opAlloc
		opFree
		opEdit
		opRemove
		opFill
		opCheckpoint
		opDrop
	)
	f.Add([]byte{opAlloc, 0, opAlloc, 0, opEdit, 0, 0, 3, 9, opCheckpoint, opEdit, 0, 1, 4, 7, opFree, 0, 0, opAlloc, 0, opCheckpoint})
	f.Add([]byte{opAlloc, 1, opFill, 1, 0, 5, opCheckpoint, opCheckpoint, opFill, 1, 0, 5, opEdit, 1, 0, 31, 1, opCheckpoint})
	f.Add([]byte{opAlloc, 2, opCheckpoint, opRemove, 2, opOpen, 2, opAlloc, 2, opEdit, 2, 0, 0, 1, opDrop, 0, opCheckpoint, opDrop, 1})
	f.Add([]byte{opAlloc, 0, opAlloc, 0, opCheckpoint, opFree, 0, 1, opCheckpoint, opAlloc, 0, opCheckpoint})
	// Encodings of real deltas, for the decoder.
	d := NewDisk(deltaTestPageSize)
	fl := d.Open("f")
	fl.Alloc()
	fl.Free(fl.Alloc())
	page := make([]byte, deltaTestPageSize)
	page[3], page[9] = 1, 2
	if err := fl.writePage(0, page); err != nil {
		f.Fatal(err)
	}
	for _, delta := range []*DiskDelta{d.FullDelta(), {PageSize: deltaTestPageSize, Removed: []string{"g"}}} {
		enc, err := delta.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		hostile(t, in)
		script := in
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		d := NewDisk(deltaTestPageSize)
		names := []string{"a", "b", "c"}
		var img *DiskImage // nil until the first full frame
		live := func(f *File) []PageNum {
			var out []PageNum
			for pn := PageNum(0); pn < f.Extent(); pn++ {
				if _, err := f.Peek(pn); err == nil {
					out = append(out, pn)
				}
			}
			return out
		}
		page := func(f *File) (PageNum, []byte, bool) {
			pages := live(f)
			if len(pages) == 0 {
				return 0, nil, false
			}
			pn := pages[next()%len(pages)]
			b, err := f.Peek(pn)
			if err != nil {
				t.Fatal(err)
			}
			return pn, b, true
		}
		full := func() {
			img = &DiskImage{PageSize: deltaTestPageSize}
			if err := applyChecked(d, img, d.FullDelta()); err != nil {
				t.Fatalf("full frame: %v", err)
			}
			d.ResetChanges()
		}
		for len(script) > 0 {
			op := next() % 8
			switch op {
			case opCheckpoint:
				if img == nil {
					full()
					continue
				}
				if err := applyChecked(d, img, d.Delta()); err != nil {
					t.Fatalf("delta frame: %v", err)
				}
				d.ResetChanges()
				continue
			case opDrop:
				if next()%2 == 0 || img == nil {
					full()
				} else {
					_ = d.Delta() // taken, never landed: the next delta carries it too
				}
				continue
			}
			name := names[next()%len(names)]
			switch op {
			case opOpen:
				d.Open(name)
			case opAlloc:
				d.Open(name).Alloc()
			case opFree:
				f := d.Open(name)
				if pn, _, ok := page(f); ok {
					f.Free(pn)
				}
			case opRemove:
				d.Remove(name)
			case opEdit, opFill:
				f := d.Open(name)
				pn, b, ok := page(f)
				if !ok {
					continue
				}
				if op == opEdit {
					off := next() % len(b)
					for n := next()%8 + 1; n > 0 && off < len(b); n-- {
						b[off] = byte(next())
						off++
					}
				} else {
					v := byte(next())
					for i := range b {
						b[i] = v
					}
				}
				if err := f.writePage(pn, b); err != nil {
					t.Fatal(err)
				}
			}
		}
		if img != nil {
			if err := applyChecked(d, img, d.Delta()); err != nil {
				t.Fatalf("last delta frame: %v", err)
			}
		}
	})
}

// hostile hands arbitrary bytes to the decoder: a delta it accepts
// round-trips its encoding and applies to an image, or is refused by
// Apply — without a panic either way.
func hostile(t *testing.T, b []byte) {
	delta, err := DecodeDiskDelta(b)
	if err != nil {
		return
	}
	enc, err := delta.AppendBinary(nil)
	if err != nil {
		t.Fatalf("a decoded delta does not encode: %v", err)
	}
	again, err := DecodeDiskDelta(enc)
	if err != nil || !reflect.DeepEqual(again, delta) {
		t.Fatalf("a decoded delta does not round-trip: %v", err)
	}
	img := &DiskImage{PageSize: delta.PageSize, Files: []FileImage{
		{Name: "f", Pages: [][]byte{make([]byte, delta.PageSize), nil}, Free: []PageNum{1}},
	}}
	_ = img.Apply(delta)
}
