// Package storage provides the secondary-storage substrate for the CPR
// reproduction: block devices (RAM-backed and file-backed), an asynchronous
// I/O pool matching FASTER's async model, and a checkpoint store used to
// persist CPR commit artifacts (HybridLog pages, index pages, metadata).
//
// The paper ran on an NVMe SSD; per DESIGN.md the default substitute is a
// RAM-backed device with optional simulated latency and bandwidth so the
// flush-duration effects of Sec. 7.3 reproduce on any machine, while
// FileDevice runs the identical code path against real files.
package storage

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// Device is a random-access block device. Implementations must support
// concurrent ReadAt/WriteAt on disjoint ranges. WriteAt must not retain p, nor
// store into it: once it returns, the bytes are the device's own copy and the
// caller's memory is the caller's again (the HybridLog hands it its page
// frames, and reuses them). MemDevice, FileDevice, FaultDevice and
// SyncBufferDevice all copy or write through.
type Device interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	// Sync blocks until previously written data is durable.
	Sync() error
	// Size returns the current device extent (highest written offset).
	Size() int64
	Close() error
}

// ErrClosed is returned by operations on a closed device.
var ErrClosed = errors.New("storage: device closed")

// MemDevice is a RAM-backed Device with optional simulated per-operation
// latency and write bandwidth. It is the default stand-in for the paper's
// SSD (see DESIGN.md substitutions).
type MemDevice struct {
	mu     sync.RWMutex
	data   []byte
	closed bool

	// Latency is added to every read and write when non-zero.
	Latency time.Duration
	// WriteBandwidth, when non-zero, throttles writes to this many bytes/sec,
	// reproducing the paper's "6 seconds to write 14 GB" flush plateaus.
	WriteBandwidth int64
}

// NewMemDevice returns an empty RAM-backed device.
func NewMemDevice() *MemDevice { return &MemDevice{} }

// ReadAt implements Device.
func (d *MemDevice) ReadAt(p []byte, off int64) (int, error) {
	if d.Latency > 0 {
		time.Sleep(d.Latency)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return 0, ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("storage: negative offset %d", off)
	}
	if off >= int64(len(d.data)) {
		return 0, fmt.Errorf("storage: read past end (off=%d size=%d)", off, len(d.data))
	}
	n := copy(p, d.data[off:])
	if n < len(p) {
		return n, fmt.Errorf("storage: short read at %d: got %d want %d", off, n, len(p))
	}
	return n, nil
}

// WriteAt implements Device, growing the device as needed.
func (d *MemDevice) WriteAt(p []byte, off int64) (int, error) {
	if d.Latency > 0 {
		time.Sleep(d.Latency)
	}
	if d.WriteBandwidth > 0 {
		time.Sleep(time.Duration(float64(len(p)) / float64(d.WriteBandwidth) * float64(time.Second)))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("storage: negative offset %d", off)
	}
	if end := off + int64(len(p)); end > int64(len(d.data)) {
		d.data = growZero(d.data, end)
	}
	copy(d.data[off:], p)
	return len(p), nil
}

// growZero extends b to n bytes (n > len(b)), the new ones zero. When it must
// reallocate it at least doubles the capacity, so a buffer grown by many small
// appends is copied O(log n) times in all, not once per append. b must never
// have been longer than it is now: the spare capacity is taken to be zero.
func growZero(b []byte, n int64) []byte {
	if n <= int64(cap(b)) {
		return b[:n]
	}
	grown := make([]byte, n, max(n, 2*int64(cap(b))))
	copy(grown, b)
	return grown
}

// Sync implements Device; RAM is always "durable" for simulation purposes.
func (d *MemDevice) Sync() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return ErrClosed
	}
	return nil
}

// Size implements Device.
func (d *MemDevice) Size() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(len(d.data))
}

// Close implements Device.
func (d *MemDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}

// Clone returns an independent copy of the device's current contents —
// the crash-simulation primitive: recovery from a clone taken at an
// arbitrary instant models restarting from whatever had reached "disk".
func (d *MemDevice) Clone() *MemDevice {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c := NewMemDevice()
	c.data = append([]byte(nil), d.data...)
	return c
}

// FileDevice is a Device backed by a file on the host filesystem.
type FileDevice struct {
	f      *os.File
	mu     sync.Mutex // guards size tracking and the closed flag; I/O uses pread/pwrite
	sz     int64
	closed bool
}

// OpenFileDevice opens (creating if necessary) a file-backed device.
func OpenFileDevice(path string) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileDevice{f: f, sz: st.Size()}, nil
}

// isClosed reports whether Close has been called (matching MemDevice's
// contract of returning ErrClosed rather than an os-level "file already
// closed" error).
func (d *FileDevice) isClosed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}

// ReadAt implements Device, looping on partial reads so a successful return
// always fills p (os.File.ReadAt already loops, but the Device contract must
// not depend on that implementation detail).
func (d *FileDevice) ReadAt(p []byte, off int64) (int, error) {
	if d.isClosed() {
		return 0, ErrClosed
	}
	total := 0
	for total < len(p) {
		n, err := d.f.ReadAt(p[total:], off+int64(total))
		total += n
		if err != nil {
			return total, err
		}
		if n == 0 {
			return total, fmt.Errorf("storage: read at %d stalled after %d of %d bytes", off, total, len(p))
		}
	}
	return total, nil
}

// WriteAt implements Device, looping on partial writes so a successful
// return always persists all of p.
func (d *FileDevice) WriteAt(p []byte, off int64) (int, error) {
	if d.isClosed() {
		return 0, ErrClosed
	}
	total := 0
	for total < len(p) {
		n, err := d.f.WriteAt(p[total:], off+int64(total))
		total += n
		if err != nil {
			return total, err
		}
		if n == 0 {
			return total, fmt.Errorf("storage: write at %d stalled after %d of %d bytes", off, total, len(p))
		}
	}
	d.mu.Lock()
	if end := off + int64(total); end > d.sz {
		d.sz = end
	}
	d.mu.Unlock()
	return total, nil
}

// Sync implements Device.
func (d *FileDevice) Sync() error {
	if d.isClosed() {
		return ErrClosed
	}
	return d.f.Sync()
}

// Size implements Device.
func (d *FileDevice) Size() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sz
}

// Close implements Device. Closing twice is a no-op, like MemDevice.
func (d *FileDevice) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	return d.f.Close()
}
