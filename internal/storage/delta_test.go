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

// applyChecked sends a delta through its byte encoding onto img, the
// image the previous checkpoint left, and holds the result to
// d.Snapshot() field for field.
func applyChecked(d *Disk, img *DiskImage, delta *DiskDelta) error {
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
	if !reflect.DeepEqual(decoded, delta) {
		return fmt.Errorf("delta does not round-trip its encoding:\n got  %+v\n want %+v", decoded, delta)
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

// rewrite writes page pn of f back with some of its bytes changed, the
// way a page edit does: one byte, a stretch, every byte, all zeros, or
// none at all (the page written back as it was).
func rewrite(rng *rand.Rand, f *File, pn PageNum) {
	page, err := f.Peek(pn)
	if err != nil {
		panic(err)
	}
	switch rng.Intn(6) {
	case 0:
		page[rng.Intn(len(page))]++
	case 1, 2:
		i := rng.Intn(len(page))
		rng.Read(page[i : i+rng.Intn(len(page)-i)+1])
	case 3:
		rng.Read(page)
	case 4:
		clear(page)
	}
	if err := f.writePage(pn, page); err != nil {
		panic(err)
	}
}

// deltaScript drives one random script against a Disk: file creation,
// allocation, page edits, frees, removal and re-creation under the
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
				rewrite(rng, f, pages[rng.Intn(len(pages))])
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
	// Some history before tracking starts. The first frame is a full one:
	// the delta against the empty disk.
	for i := 0; i < 10; i++ {
		step()
	}
	img := &DiskImage{PageSize: deltaTestPageSize}
	if err := applyChecked(d, img, d.FullDelta()); err != nil {
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
		if err := applyChecked(d, img, delta); err != nil {
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

// TestPropertyDeltaApplyEqualsSnapshot runs random scripts, then the
// cases a pre-image has to get right one by one.
func TestPropertyDeltaApplyEqualsSnapshot(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		if err := deltaScript(seed, 300); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	page := func(b byte) []byte { return bytes.Repeat([]byte{b}, deltaTestPageSize) }
	write := func(t *testing.T, f *File, pn PageNum, data []byte) {
		t.Helper()
		if err := f.writePage(pn, data); err != nil {
			t.Fatal(err)
		}
	}
	// Each case builds a disk with tracking on and a first full frame
	// applied, mutates it, and checkpoints; the returned delta is the
	// last one taken, for the case's own checks.
	type chain struct {
		d   *Disk
		f   *File
		img *DiskImage
	}
	start := func(t *testing.T, pages int) *chain {
		d := NewDisk(deltaTestPageSize)
		f := d.Open("f")
		for i := 0; i < pages; i++ {
			write(t, f, f.Alloc(), page(byte(10+i)))
		}
		c := &chain{d: d, f: f, img: &DiskImage{PageSize: deltaTestPageSize}}
		if err := applyChecked(d, c.img, d.FullDelta()); err != nil {
			t.Fatal(err)
		}
		d.ResetChanges()
		return c
	}
	checkpoint := func(t *testing.T, c *chain) *DiskDelta {
		t.Helper()
		delta := c.d.Delta()
		if err := applyChecked(c.d, c.img, delta); err != nil {
			t.Fatal(err)
		}
		c.d.ResetChanges()
		return delta
	}
	t.Run("freed and reallocated in one interval", func(t *testing.T) {
		c := start(t, 3)
		c.f.Free(1)
		if pn := c.f.Alloc(); pn != 1 {
			t.Fatalf("Alloc = %d, want the freed page 1", pn)
		}
		// The base is the page as the last frame left it, not the zero
		// page Alloc made: bytes 0–3 equal the base again.
		data := page(0)
		copy(data, page(11)[:4])
		write(t, c.f, 1, data)
		delta := checkpoint(t, c)
		if got := delta.Files[0].Pages; len(got) != 1 || len(got[0].Runs) != 1 || got[0].Runs[0].Off != 4 {
			t.Errorf("patch = %+v, want one run from byte 4", got)
		}
		// Reallocated and left as Alloc made it: the patch zeroes it.
		c.f.Free(2)
		c.f.Alloc()
		checkpoint(t, c)
	})
	t.Run("freed before the reset and reallocated after", func(t *testing.T) {
		c := start(t, 3)
		c.f.Free(1)
		checkpoint(t, c)
		// The earlier image has no page 1, so its base is zeros, and the
		// page is carried even though its patch against zeros is empty.
		if pn := c.f.Alloc(); pn != 1 {
			t.Fatalf("Alloc = %d, want the freed page 1", pn)
		}
		delta := checkpoint(t, c)
		if got := delta.Files[0].Pages; len(got) != 1 || got[0].Num != 1 || got[0].Runs != nil {
			t.Errorf("pages = %+v, want page 1 with an empty patch", got)
		}
		c.f.Free(1)
		checkpoint(t, c)
		write(t, c.f, c.f.Alloc(), page(7))
		checkpoint(t, c)
	})
	t.Run("file removed and recreated under its name", func(t *testing.T) {
		c := start(t, 3)
		write(t, c.f, 0, page(1))
		c.d.Remove("f")
		f := c.d.Open("f")
		f.Alloc()
		write(t, f, f.Alloc(), page(12)) // page 1's bytes in the removed file
		delta := checkpoint(t, c)
		if fd := delta.Files[0]; !fd.Created || len(fd.Pages) != 2 || len(fd.Pages[1].Runs) != 1 {
			t.Errorf("file delta = %+v, want created, both pages against zeros", fd)
		}
	})
	t.Run("written back to its pre-image", func(t *testing.T) {
		// The page is left out of the delta; its file is still there,
		// with its extent and free list.
		c := start(t, 3)
		write(t, c.f, 1, page(99))
		write(t, c.f, 1, page(11))
		delta := checkpoint(t, c)
		if len(delta.Files) != 1 || len(delta.Files[0].Pages) != 0 {
			t.Errorf("delta = %+v, want file f with no pages", delta.Files)
		}
	})
	t.Run("written many times", func(t *testing.T) {
		c := start(t, 2)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 100; i++ {
			rewrite(rng, c.f, 1)
		}
		data := page(11)
		data[5], data[20] = 1, 2
		write(t, c.f, 1, data)
		delta := checkpoint(t, c)
		// One patch against the page the last frame left, whatever came
		// between: bytes 5 and 20 are too far apart to share a run.
		want := []PageDelta{{Num: 1, Runs: []Run{{Off: 5, Data: []byte{1}}, {Off: 20, Data: []byte{2}}}}}
		if got := delta.Files[0].Pages; !reflect.DeepEqual(got, want) {
			t.Errorf("pages = %+v, want %+v", got, want)
		}
		// Runs at most maxRunGap bytes apart are one run, bytes and all.
		data[10], data[10+maxRunGap+1] = 3, 4
		data[25], data[25+maxRunGap+2] = 5, 6
		write(t, c.f, 1, data)
		delta = checkpoint(t, c)
		want = []PageDelta{{Num: 1, Runs: []Run{
			{Off: 10, Data: append(append([]byte{3}, page(11)[:maxRunGap]...), 4)},
			{Off: 25, Data: []byte{5}},
			{Off: 25 + maxRunGap + 2, Data: []byte{6}},
		}}}
		if got := delta.Files[0].Pages; !reflect.DeepEqual(got, want) {
			t.Errorf("pages = %+v, want %+v", got, want)
		}
	})
	t.Run("tracking switched on mid-life", func(t *testing.T) {
		d := NewDisk(deltaTestPageSize)
		f := d.Open("f")
		for i := 0; i < 4; i++ {
			write(t, f, f.Alloc(), page(byte(i)))
		}
		f.Free(2)
		write(t, f, 0, page(8))
		if f.dirty != nil || f.spare != nil {
			t.Fatal("an untracked disk captured pre-images")
		}
		img := &DiskImage{PageSize: deltaTestPageSize}
		if err := applyChecked(d, img, d.FullDelta()); err != nil {
			t.Fatal(err)
		}
		d.ResetChanges()
		write(t, f, 0, page(9))
		write(t, f, f.Alloc(), page(2))
		if err := applyChecked(d, img, d.Delta()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestApplyLeavesFrameBodiesAlone: an image owns its pages, so applying
// a chain writes into none of the encodings it decoded — a patch lands
// on the image's copy of a page, never on an earlier frame's bytes.
func TestApplyLeavesFrameBodiesAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDisk(deltaTestPageSize)
	f := d.Open("f")
	var bodies [][]byte
	take := func(delta *DiskDelta) {
		enc, err := delta.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, enc)
		d.ResetChanges()
	}
	for i := 0; i < 8; i++ {
		f.Alloc()
	}
	take(d.FullDelta())
	for i := 0; i < 40; i++ {
		for k := 0; k < 3; k++ {
			rewrite(rng, f, PageNum(rng.Intn(8)))
		}
		take(d.Delta())
	}
	kept := make([][]byte, len(bodies))
	for i, b := range bodies {
		kept[i] = bytes.Clone(b)
	}
	img := &DiskImage{PageSize: deltaTestPageSize}
	for i, b := range bodies {
		delta, err := DecodeDiskDelta(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := img.Apply(delta); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	for i := range bodies {
		if !bytes.Equal(bodies[i], kept[i]) {
			t.Errorf("frame %d's body changed under Apply", i)
		}
	}
	if want := d.Snapshot(); !reflect.DeepEqual(img, want) {
		t.Errorf("chain applied to %s, want %s", describeImage(img), describeImage(want))
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
	want := []PageDelta{{Num: 17, Runs: []Run{{Off: 0, Data: page}}}}
	if !reflect.DeepEqual(fd.Pages, want) {
		t.Errorf("delta pages = %+v, want page 17 once, one run of all its bytes", fd.Pages)
	}
	if fd.Extent != 50 || !reflect.DeepEqual(fd.Free, []PageNum{3}) {
		t.Errorf("delta extent %d free %v, want 50 and [3]", fd.Extent, fd.Free)
	}
	// Delta copies: later writes must not reach a delta already taken.
	if err := big.writePage(17, make([]byte, deltaTestPageSize)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fd.Pages, want) {
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
	// A page's first write after a reset copies its pre-image into a
	// buffer the reset recycled: an interval costs the reset's removed
	// set and the file's dirty map (3 objects), and no page-sized buffer
	// (4 objects with one).
	if n := testing.AllocsPerRun(100, func() { d.ResetChanges(); _ = f.writePage(pn, page) }); n != 3 {
		t.Errorf("a reset and a first write allocate %.0f times, want 3 (no pre-image buffer)", n)
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
	whole := func(b byte) []Run { return []Run{{Data: page(b)}} }
	patch := func(pn PageNum, runs ...Run) *DiskDelta {
		return with(func(fd *FileDelta) { fd.Pages = []PageDelta{{Num: pn, Runs: runs}} })
	}
	cases := []struct {
		name  string
		delta *DiskDelta
		want  string
	}{
		{"run past the page end", patch(0, Run{Off: deltaTestPageSize - 1, Data: []byte{1, 2}}), "past the page end"},
		{"run beyond the page start", patch(0, Run{Off: -1, Data: []byte{1}}), "out of order"},
		{"runs out of order", patch(0, Run{Off: 8, Data: []byte{1}}, Run{Off: 2, Data: []byte{1}}), "out of order"},
		{"runs overlapping", patch(0, Run{Off: 2, Data: []byte{1, 2, 3}}, Run{Off: 4, Data: []byte{1}}), "overlapping"},
		{"zero-length run", patch(0, Run{Off: 2}), "zero-length run"},
		{"page beyond the extent", patch(3, whole(4)...), "beyond extent"},
		{"free list names a live page", with(func(fd *FileDelta) { fd.Free = []PageNum{1, 2}; fd.Pages = []PageDelta{{Num: 2, Runs: whole(4)}} }), "free list names live page"},
		{"free list beyond the extent", with(func(fd *FileDelta) { fd.Free = []PageNum{1, 8} }), "free list names live page"},
		{"free list names a page twice", with(func(fd *FileDelta) { fd.Free = []PageNum{1, 1} }), "twice"},
		{"hole not in the free list", with(func(fd *FileDelta) { fd.Free = nil }), "missing and not freed"},
		{"hole the extent gained not in the free list", with(func(fd *FileDelta) { fd.Extent = 4 }), "missing and not freed"},
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
		FileDelta{Name: "f", Extent: 5, Free: []PageNum{1, 0}, Pages: []PageDelta{
			{Num: 2, Runs: []Run{{Off: 1, Data: []byte{7, 7}}, {Off: deltaTestPageSize - 1, Data: []byte{8}}}},
			{Num: 3, Runs: whole(5)},
			{Num: 4},
		}},
		FileDelta{Name: "g", Created: true, Extent: 2, Free: []PageNum{0}, Pages: []PageDelta{{Num: 1, Runs: []Run{{Off: 4, Data: []byte{6}}}}}},
	)
	if err := img.Apply(ok); err != nil {
		t.Fatalf("well-formed delta refused: %v", err)
	}
	patched, g1 := page(3), make([]byte, deltaTestPageSize)
	patched[1], patched[2], patched[deltaTestPageSize-1] = 7, 7, 8
	g1[4] = 6
	want := &DiskImage{PageSize: deltaTestPageSize, Files: []FileImage{
		{Name: "f", Pages: [][]byte{nil, nil, patched, page(5), make([]byte, deltaTestPageSize)}, Free: []PageNum{1, 0}},
		{Name: "g", Pages: [][]byte{nil, g1}, Free: []PageNum{0}},
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
		{Name: "f", Created: true, Extent: 4, Free: []PageNum{1}, Pages: []PageDelta{
			{Num: 0, Runs: []Run{{Off: 0, Data: page}}},
			{Num: 2, Runs: []Run{{Off: 3, Data: page[:2]}, {Off: 9, Data: page[:1]}}},
			{Num: 3},
		}},
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
	// One file "f" of one page, page 0, whose patch is runs (nRuns first).
	onePage := func(runs ...byte) []byte {
		return append([]byte{deltaTestPageSize, 0, 1, 1, 'f', 0, 1, 0, 1, 0}, runs...)
	}
	if _, err := DecodeDiskDelta(onePage(2, 3, 2, 1, 2, 9, 1, 3)); err != nil {
		t.Fatalf("a well-formed page refused: %v", err)
	}
	for _, c := range []struct {
		name string
		enc  []byte
		want string
	}{
		{"trailing byte", append(bytes.Clone(enc), 0), "trailing"},
		{"a count larger than the input", []byte{deltaTestPageSize, 0xff, 0xff, 0xff, 0xff, 0x0f}, "count exceeds"}, // 2^32-1 removed names
		{"a run count larger than the bytes that follow", onePage(0xff, 0xff, 0xff, 0xff, 0x0f, 2, 1, 7), "count exceeds"},
		{"a run past the page end", onePage(1, deltaTestPageSize-1, 2, 1, 2), "past the page end"},
		{"a run at the page end", onePage(1, deltaTestPageSize, 1, 1), "past the page end"},
		{"runs out of order", onePage(2, 8, 1, 1, 2, 1, 1), "out of order"},
		{"runs overlapping", onePage(2, 2, 3, 1, 2, 3, 4, 1, 1), "overlapping"},
		{"a zero-length run", onePage(2, 2, 0, 5, 3, 1, 2, 3), "zero-length run"},
		{"a run offset out of range", onePage(1, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 1), "out of range"},
		{"a page size out of range", []byte{0x81, 0x80, 0x04, 0, 0}, "page size out of range"}, // 2^16 + 1
	} {
		if _, err := DecodeDiskDelta(c.enc); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: DecodeDiskDelta = %v, want an error containing %q", c.name, err, c.want)
		}
	}
	for _, runs := range [][]Run{
		{{Off: deltaTestPageSize, Data: []byte{1}}},
		{{Off: 1}},
		{{Off: 4, Data: []byte{1}}, {Off: 4, Data: []byte{1}}},
	} {
		bad := &DiskDelta{PageSize: deltaTestPageSize, Files: []FileDelta{{Name: "f", Pages: []PageDelta{{Runs: runs}}}}}
		if _, err := bad.AppendBinary(nil); err == nil {
			t.Errorf("a patch of runs %+v encoded", runs)
		}
	}
	if _, err := (&DiskDelta{PageSize: maxDeltaPageSize + 1}).AppendBinary(nil); err == nil {
		t.Error("a page size the decoder refuses encoded")
	}
}
