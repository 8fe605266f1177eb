package wal

import (
	"os"
	"sync"
)

// FileDevice adapts an *os.File to storage.Device, with optional fault
// hooks so even the real-file backend can be driven through injected
// WriteAt/Sync failures in tests. Hooks fire before the underlying
// call; a non-nil return suppresses it.
type FileDevice struct {
	f *os.File

	mu         sync.Mutex
	writeCalls int
	syncCalls  int
	failWrite  map[int]error
	failSync   map[int]error
}

// OpenFile opens (creating if needed) path as a FileDevice.
func OpenFile(path string) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &FileDevice{f: f}, nil
}

// FailWriteAt makes the call-th WriteAt (1-based) fail with err without
// touching the file.
func (d *FileDevice) FailWriteAt(call int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failWrite == nil {
		d.failWrite = map[int]error{}
	}
	d.failWrite[call] = err
}

// FailSync makes the call-th Sync (1-based) fail with err without
// syncing the file.
func (d *FileDevice) FailSync(call int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failSync == nil {
		d.failSync = map[int]error{}
	}
	d.failSync[call] = err
}

func (d *FileDevice) ReadAt(p []byte, off int64) (int, error) { return d.f.ReadAt(p, off) }

func (d *FileDevice) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	d.writeCalls++
	err, injected := d.failWrite[d.writeCalls]
	d.mu.Unlock()
	if injected {
		return 0, err
	}
	return d.f.WriteAt(p, off)
}

func (d *FileDevice) Sync() error {
	d.mu.Lock()
	d.syncCalls++
	err, injected := d.failSync[d.syncCalls]
	d.mu.Unlock()
	if injected {
		return err
	}
	return d.f.Sync()
}

// Syncs returns how many Sync calls the device has taken, injected
// failures included.
func (d *FileDevice) Syncs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncCalls
}

func (d *FileDevice) Truncate(size int64) error { return d.f.Truncate(size) }

func (d *FileDevice) Size() (int64, error) {
	st, err := d.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Close closes the underlying file.
func (d *FileDevice) Close() error { return d.f.Close() }
