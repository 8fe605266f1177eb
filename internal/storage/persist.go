package storage

import (
	"fmt"
	"sync/atomic"
)

// DiskImage is a Disk's state as plain data: page size plus every
// file's pages and free list. Recovery builds one by applying
// DiskDeltas in order, the first a FullDelta, and turns it into a Disk
// with RestoreDisk; it is never serialised itself.
type DiskImage struct {
	PageSize int
	Files    []FileImage
}

// FileImage is one file of a DiskImage. Pages holds the physical
// extent in order; freed holes are nil entries, and Free lists their
// page numbers for allocator reuse.
type FileImage struct {
	Name  string
	Pages [][]byte
	Free  []PageNum
}

// validate checks one file image against the invariants the allocator
// relies on: live pages are exactly pageSize bytes, and the free list
// names each hole of the extent exactly once and nothing else.
func (fi *FileImage) validate(pageSize int) error {
	freed := make([]bool, len(fi.Pages))
	for _, pn := range fi.Free {
		if int(pn) >= len(fi.Pages) || fi.Pages[pn] != nil {
			return fmt.Errorf("storage: file %q free list names live page %d", fi.Name, pn)
		}
		if freed[pn] {
			return fmt.Errorf("storage: file %q free list names page %d twice", fi.Name, pn)
		}
		freed[pn] = true
	}
	for i, p := range fi.Pages {
		if p == nil {
			if !freed[i] {
				return fmt.Errorf("storage: file %q page %d missing and not freed", fi.Name, i)
			}
			continue
		}
		if len(p) != pageSize {
			return fmt.Errorf("storage: file %q page %d has %d bytes, want %d", fi.Name, i, len(p), pageSize)
		}
	}
	return nil
}

// RestoreDisk rebuilds a Disk from an image, validating page sizes and
// free lists.
func RestoreDisk(img *DiskImage) (*Disk, error) {
	if img.PageSize <= 0 {
		return nil, fmt.Errorf("storage: image has page size %d", img.PageSize)
	}
	d := NewDisk(img.PageSize)
	for i := range img.Files {
		fi := &img.Files[i]
		if err := fi.validate(img.PageSize); err != nil {
			return nil, err
		}
		f := d.Open(fi.Name)
		f.pages = make([][]byte, len(fi.Pages))
		for i, p := range fi.Pages {
			if p != nil {
				f.pages[i] = append([]byte(nil), p...)
			}
		}
		f.free = append([]PageNum(nil), fi.Free...)
		f.derived = make([]atomic.Pointer[derivation], len(f.pages))
	}
	return d, nil
}
