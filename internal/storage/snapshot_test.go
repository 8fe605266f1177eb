package storage

// Snapshot reads a disk's whole on-disk state out as a DiskImage, file
// by file. It is the oracle the delta tests hold DiskImage.Apply to —
// FullDelta and Delta applied in order must arrive at exactly this —
// and was the engine's full-checkpoint format until a full frame became
// a FullDelta; nothing outside the tests calls it now.
func (d *Disk) Snapshot() *DiskImage {
	img := &DiskImage{PageSize: d.pageSize}
	for _, name := range d.FileNames() {
		f := d.file(name)
		if f == nil {
			continue
		}
		f.mu.RLock()
		fi := FileImage{Name: name, Pages: make([][]byte, len(f.pages)), Free: append([]PageNum(nil), f.free...)}
		for i, p := range f.pages {
			if p != nil {
				fi.Pages[i] = append([]byte(nil), p...)
			}
		}
		f.mu.RUnlock()
		img.Files = append(img.Files, fi)
	}
	return img
}
