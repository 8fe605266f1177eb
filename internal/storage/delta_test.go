package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

const deltaTestPageSize = 32

// deltaScript drives one random script against a Disk: file creation,
// allocation, page writes, frees, removal and re-creation under the
// same name, with a "checkpoint" at random points. A checkpoint takes
// the delta, sends it through its byte encoding like a frame body,
// applies it to the image the previous checkpoint left and requires the
// result to equal Snapshot() field for field; one in four checkpoints
// "fails" instead (the delta is dropped and the changes are not reset),
// so the next delta has to carry them.
func deltaScript(seed int64, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	d := NewDisk(deltaTestPageSize)
	names := []string{"a", "b", "c", "d"}
	live := func(f *File) []PageNum {
		var out []PageNum
		for pn := PageNum(0); pn < f.Extent(); pn++ {
			if _, err := f.Peek(pn); err == nil {
				out = append(out, pn)
			}
		}
		return out
	}
	step := func() {
		name := names[rng.Intn(len(names))]
		switch op := rng.Intn(10); {
		case op == 0:
			d.Remove(name)
		case op <= 3:
			d.Open(name).Alloc()
		case op <= 6:
			f := d.Open(name)
			if pages := live(f); len(pages) > 0 {
				page := make([]byte, deltaTestPageSize)
				rng.Read(page)
				if err := f.writePage(pages[rng.Intn(len(pages))], page); err != nil {
					panic(err)
				}
			}
		case op <= 8:
			f := d.Open(name)
			if pages := live(f); len(pages) > 0 {
				f.Free(pages[rng.Intn(len(pages))])
			}
		default:
			d.Open(name)
		}
	}
	// apply sends a delta through its byte encoding onto img and holds
	// the result to Snapshot().
	apply := func(img *DiskImage, delta *DiskDelta) error {
		enc, err := delta.AppendBinary(nil)
		if err != nil {
			return err
		}
		if n := delta.EncodedSize(); n != len(enc) {
			return fmt.Errorf("EncodedSize says %d bytes, the encoding has %d", n, len(enc))
		}
		decoded, err := DecodeDiskDelta(enc)
		if err != nil {
			return fmt.Errorf("decoding: %w", err)
		}
		if err := img.Apply(decoded); err != nil {
			return fmt.Errorf("Apply: %w", err)
		}
		if want := d.Snapshot(); !reflect.DeepEqual(img, want) {
			return fmt.Errorf("image after Apply differs from Snapshot:\n got  %s\n want %s", describeImage(img), describeImage(want))
		}
		if _, err := RestoreDisk(img); err != nil {
			return fmt.Errorf("applied image does not restore: %w", err)
		}
		return nil
	}
	// Some history before tracking starts. The first frame is a full one:
	// the delta against the empty disk.
	for i := 0; i < 10; i++ {
		step()
	}
	img := &DiskImage{PageSize: deltaTestPageSize}
	if err := apply(img, d.FullDelta()); err != nil {
		return fmt.Errorf("first full delta: %w", err)
	}
	d.ResetChanges()
	for i := 0; i < steps; i++ {
		step()
		if rng.Intn(6) != 0 {
			continue
		}
		delta, full := d.Delta(), d.FullDelta()
		if rng.Intn(4) == 0 {
			continue // the frame never became durable
		}
		if rng.Intn(8) == 0 { // a full rewrite starts the chain over
			img, delta = &DiskImage{PageSize: deltaTestPageSize}, full
		}
		if err := apply(img, delta); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
		d.ResetChanges()
	}
	return nil
}

// describeImage prints an image's shape: per file the extent with its
// holes, and the free list in order.
func describeImage(img *DiskImage) string {
	var b strings.Builder
	for _, f := range img.Files {
		fmt.Fprintf(&b, "%s[", f.Name)
		for _, p := range f.Pages {
			if p == nil {
				b.WriteByte('_')
			} else {
				fmt.Fprintf(&b, "%02x", p[0])
			}
		}
		fmt.Fprintf(&b, "] free=%v nilFree=%v; ", f.Free, f.Free == nil)
	}
	return b.String()
}

func TestPropertyDeltaApplyEqualsSnapshot(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		if err := deltaScript(seed, 300); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestDeltaHoldsOnlyWhatChanged pins the point of the exercise: an
// untouched file is absent from the delta and a touched one contributes
// only its touched pages.
func TestDeltaHoldsOnlyWhatChanged(t *testing.T) {
	d := NewDisk(deltaTestPageSize)
	big, other := d.Open("big"), d.Open("other")
	for i := 0; i < 50; i++ {
		big.Alloc()
	}
	other.Alloc()
	d.ResetChanges()
	if delta := d.Delta(); len(delta.Files) != 0 || len(delta.Removed) != 0 {
		t.Fatalf("delta right after ResetChanges is not empty: %+v", delta)
	}
	page := bytes.Repeat([]byte{7}, deltaTestPageSize)
	if err := big.writePage(17, page); err != nil {
		t.Fatal(err)
	}
	if err := big.writePage(17, page); err != nil {
		t.Fatal(err)
	}
	big.Free(3)
	delta := d.Delta()
	if len(delta.Files) != 1 || delta.Files[0].Name != "big" || delta.Files[0].Created {
		t.Fatalf("delta files = %+v, want big alone, not created", delta.Files)
	}
	fd := delta.Files[0]
	if len(fd.Pages) != 1 || fd.Pages[0].Num != 17 || !bytes.Equal(fd.Pages[0].Data, page) {
		t.Errorf("delta pages = %+v, want page 17 once", fd.Pages)
	}
	if fd.Extent != 50 || !reflect.DeepEqual(fd.Free, []PageNum{3}) {
		t.Errorf("delta extent %d free %v, want 50 and [3]", fd.Extent, fd.Free)
	}
	// Delta copies: later writes must not reach a delta already taken.
	if err := big.writePage(17, make([]byte, deltaTestPageSize)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fd.Pages[0].Data, page) {
		t.Error("a later write changed a delta already taken")
	}
}

// TestChangeTrackingOffUntilReset: an engine without durability (vmsim,
// a volatile viewmatd) must pay nothing for the mechanism.
func TestChangeTrackingOffUntilReset(t *testing.T) {
	d := NewDisk(deltaTestPageSize)
	f := d.Open("f")
	pn := f.Alloc()
	f.Free(f.Alloc())
	d.Open("gone")
	d.Remove("gone")
	page := make([]byte, deltaTestPageSize)
	if err := f.writePage(pn, page); err != nil {
		t.Fatal(err)
	}
	if f.dirty != nil || f.fresh || d.removed != nil {
		t.Fatalf("untracked disk recorded changes: dirty=%v fresh=%v removed=%v", f.dirty, f.fresh, d.removed)
	}
	if delta := d.Delta(); len(delta.Files) != 0 || len(delta.Removed) != 0 {
		t.Fatalf("untracked disk produced a delta: %+v", delta)
	}
	if n := testing.AllocsPerRun(100, func() { _ = f.writePage(pn, page) }); n != 0 {
		t.Errorf("writePage allocates %.0f times per call with tracking off", n)
	}
	d.ResetChanges()
	if err := f.writePage(pn, page); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = f.writePage(pn, page) }); n != 0 {
		t.Errorf("rewriting an already-dirty page allocates %.0f times per call", n)
	}
}

// TestApplyRejectsCorruptDeltas: Apply validates a delta the way
// RestoreDisk validates an image, so a damaged frame is refused rather
// than restored into an allocator that hands out a live page.
func TestApplyRejectsCorruptDeltas(t *testing.T) {
	page := func(b byte) []byte { return bytes.Repeat([]byte{b}, deltaTestPageSize) }
	base := func() *DiskImage {
		return &DiskImage{PageSize: deltaTestPageSize, Files: []FileImage{
			{Name: "f", Pages: [][]byte{page(1), nil, page(3)}, Free: []PageNum{1}},
			{Name: "g", Pages: [][]byte{page(9)}},
		}}
	}
	keep := FileDelta{Name: "f", Extent: 3, Free: []PageNum{1}}
	delta := func(removed []string, files ...FileDelta) *DiskDelta {
		return &DiskDelta{PageSize: deltaTestPageSize, Removed: removed, Files: files}
	}
	with := func(mut func(*FileDelta)) *DiskDelta {
		fd := keep
		mut(&fd)
		return delta(nil, fd)
	}
	cases := []struct {
		name  string
		delta *DiskDelta
		want  string
	}{
		{"wrong page size", with(func(fd *FileDelta) { fd.Pages = []PageDelta{{Num: 0, Data: []byte{1, 2}}} }), "has 2 bytes"},
		{"page beyond the extent", with(func(fd *FileDelta) { fd.Pages = []PageDelta{{Num: 3, Data: page(4)}} }), "beyond extent"},
		{"free list names a live page", with(func(fd *FileDelta) { fd.Free = []PageNum{1, 2}; fd.Pages = []PageDelta{{Num: 2, Data: page(4)}} }), "free list names live page"},
		{"free list beyond the extent", with(func(fd *FileDelta) { fd.Free = []PageNum{1, 8} }), "free list names live page"},
		{"free list names a page twice", with(func(fd *FileDelta) { fd.Free = []PageNum{1, 1} }), "twice"},
		{"hole not in the free list", with(func(fd *FileDelta) { fd.Free = nil }), "missing and not freed"},
		{"nil page data", with(func(fd *FileDelta) { fd.Pages = []PageDelta{{Num: 0}} }), "missing and not freed"},
		{"shrinking extent", with(func(fd *FileDelta) { fd.Extent = 2 }), "does not follow"},
		{"extent larger than its pages account for", with(func(fd *FileDelta) { fd.Extent = 1 << 30 }), "does not follow"},
		{"negative extent", with(func(fd *FileDelta) { fd.Extent = -1 }), "does not follow"},
		{"delta for a removed file", delta([]string{"f"}, keep), "unknown or removed file"},
		{"delta for an unknown file", delta(nil, FileDelta{Name: "nope"}), "unknown or removed file"},
		{"removing an unknown file", delta([]string{"nope"}), "removes unknown file"},
		{"creating an existing file", delta(nil, FileDelta{Name: "g", Created: true}), "creates existing file"},
		{"another disk's page size", &DiskDelta{PageSize: 2 * deltaTestPageSize}, "page size"},
	}
	for _, c := range cases {
		err := base().Apply(c.delta)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Apply = %v, want an error containing %q", c.name, err, c.want)
		}
	}
	// The same defects in an image are what RestoreDisk refuses.
	for _, img := range []*DiskImage{
		{PageSize: deltaTestPageSize, Files: []FileImage{{Name: "f", Pages: [][]byte{page(1)}, Free: []PageNum{0}}}},
		{PageSize: deltaTestPageSize, Files: []FileImage{{Name: "f", Pages: [][]byte{nil}, Free: []PageNum{0, 0}}}},
	} {
		if _, err := RestoreDisk(img); err == nil {
			t.Errorf("RestoreDisk accepted %s", describeImage(img))
		}
	}
	// And a well-formed delta, replacing g under its own name, applies.
	img := base()
	ok := delta([]string{"g"},
		FileDelta{Name: "f", Extent: 4, Free: []PageNum{1, 0}, Pages: []PageDelta{{Num: 3, Data: page(5)}}},
		FileDelta{Name: "g", Created: true, Extent: 2, Free: []PageNum{0}, Pages: []PageDelta{{Num: 1, Data: page(6)}}},
	)
	if err := img.Apply(ok); err != nil {
		t.Fatalf("well-formed delta refused: %v", err)
	}
	want := &DiskImage{PageSize: deltaTestPageSize, Files: []FileImage{
		{Name: "f", Pages: [][]byte{nil, nil, page(3), page(5)}, Free: []PageNum{1, 0}},
		{Name: "g", Pages: [][]byte{nil, page(6)}, Free: []PageNum{0}},
	}}
	if !reflect.DeepEqual(img, want) {
		t.Errorf("applied image:\n got  %s\n want %s", describeImage(img), describeImage(want))
	}
}

// TestDecodeDiskDeltaRejectsDamage: the decoder is the first thing a
// recovered frame body meets; every cut of a valid encoding, a count
// the input cannot hold (refused before anything is sized by it) and
// trailing bytes must come back as errors.
func TestDecodeDiskDeltaRejectsDamage(t *testing.T) {
	page := bytes.Repeat([]byte{5}, deltaTestPageSize)
	d := &DiskDelta{PageSize: deltaTestPageSize, Removed: []string{"old"}, Files: []FileDelta{
		{Name: "f", Created: true, Extent: 3, Free: []PageNum{1}, Pages: []PageDelta{{Num: 0, Data: page}, {Num: 2, Data: page}}},
		{Name: "empty", Extent: 0},
	}}
	enc, err := d.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDiskDelta(enc)
	if err != nil || !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip: %+v, %v; want %+v", got, err, d)
	}
	// The encoding is sized up front: one buffer, never regrown.
	if n := d.EncodedSize(); n != len(enc) {
		t.Errorf("EncodedSize = %d, encoding is %d bytes", n, len(enc))
	}
	if n := testing.AllocsPerRun(10, func() { _, _ = d.AppendBinary(nil) }); n != 1 {
		t.Errorf("AppendBinary allocated %.0f times, want once", n)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeDiskDelta(enc[:cut]); err == nil {
			t.Errorf("encoding cut at %d of %d bytes decoded", cut, len(enc))
		}
	}
	if _, err := DecodeDiskDelta(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	huge := []byte{deltaTestPageSize, 0xff, 0xff, 0xff, 0xff, 0x0f} // 2^32-1 removed names, none present
	if _, err := DecodeDiskDelta(huge); err == nil {
		t.Error("a count larger than the input accepted")
	}
	if _, err := (&DiskDelta{PageSize: deltaTestPageSize, Files: []FileDelta{{Name: "f", Pages: []PageDelta{{Data: []byte{1}}}}}}).AppendBinary(nil); err == nil {
		t.Error("a page of the wrong size encoded")
	}
}
