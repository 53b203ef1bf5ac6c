package storage

import (
	"fmt"
	"sync"
)

// SyncBufferDevice models an OS page cache in front of a Device: WriteAt
// lands in a volatile shadow buffer (reads see it immediately), and only
// Sync pushes the accumulated dirty ranges down to the inner device. A crash
// image taken from the inner device (e.g. MemDevice.Clone) therefore holds
// exactly the bytes that were fsynced — writes that were never Synced vanish,
// and a fault injected mid-Sync (torn write, crash point) leaves a prefix of
// a dirty range on the medium. The ingestion-log crash tests use it to prove
// that an append acked only after fsync survives every crash, and an unacked
// one never resurfaces.
//
// Layer it above the fault injector — SyncBufferDevice(FaultDevice(inner)) —
// so faults strike at fsync time, where a real medium fails.
type SyncBufferDevice struct {
	mu     sync.Mutex
	inner  Device
	shadow []byte
	dirty  []dirtyRange // coalesced, ordered, non-overlapping
	closed bool
}

type dirtyRange struct{ off, end int64 }

// NewSyncBufferDevice wraps inner. The shadow starts as a copy of the inner
// device's current contents, so reopening an existing medium behaves like a
// freshly mounted file.
func NewSyncBufferDevice(inner Device) (*SyncBufferDevice, error) {
	d := &SyncBufferDevice{inner: inner}
	if sz := inner.Size(); sz > 0 {
		d.shadow = make([]byte, sz)
		if _, err := inner.ReadAt(d.shadow, 0); err != nil {
			return nil, fmt.Errorf("storage: syncbuffer preload: %w", err)
		}
	}
	return d, nil
}

// ReadAt implements Device; reads observe unsynced writes (read-your-writes,
// like a page cache).
func (d *SyncBufferDevice) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("storage: negative offset %d", off)
	}
	if off >= int64(len(d.shadow)) {
		return 0, fmt.Errorf("storage: read past end (off=%d size=%d)", off, len(d.shadow))
	}
	n := copy(p, d.shadow[off:])
	if n < len(p) {
		return n, fmt.Errorf("storage: short read at %d: got %d want %d", off, n, len(p))
	}
	return n, nil
}

// WriteAt implements Device, buffering the write until the next Sync.
func (d *SyncBufferDevice) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("storage: negative offset %d", off)
	}
	end := off + int64(len(p))
	if end > int64(len(d.shadow)) {
		d.shadow = growZero(d.shadow, end)
	}
	copy(d.shadow[off:], p)
	d.markDirty(off, end)
	return len(p), nil
}

// markDirty records [off, end) as pending, merging adjacent/overlapping
// ranges so Sync issues few large inner writes.
func (d *SyncBufferDevice) markDirty(off, end int64) {
	merged := dirtyRange{off: off, end: end}
	out := d.dirty[:0]
	for _, r := range d.dirty {
		if r.end < merged.off || r.off > merged.end {
			out = append(out, r)
			continue
		}
		if r.off < merged.off {
			merged.off = r.off
		}
		if r.end > merged.end {
			merged.end = r.end
		}
	}
	d.dirty = append(out, merged)
}

// Sync implements Device: flushes every dirty range to the inner device (in
// ascending offset order), then syncs it. On an inner write error the range
// that failed — and everything after it — stays dirty, so a retried Sync
// rewrites it whole.
func (d *SyncBufferDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	ranges := d.dirty
	sortDirty(ranges)
	for i, r := range ranges {
		if _, err := d.inner.WriteAt(d.shadow[r.off:r.end], r.off); err != nil {
			d.dirty = ranges[i:]
			return err
		}
	}
	d.dirty = d.dirty[:0]
	return d.inner.Sync()
}

// sortDirty orders ranges ascending (insertion sort; the list is tiny).
func sortDirty(rs []dirtyRange) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].off < rs[j-1].off; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// Size implements Device, reporting the shadow extent (what a reader of this
// device can address, like a file's st_size including unsynced appends).
func (d *SyncBufferDevice) Size() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.shadow))
}

// Dirty reports the number of bytes written but not yet synced (diagnostics).
func (d *SyncBufferDevice) Dirty() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var n int64
	for _, r := range d.dirty {
		n += r.end - r.off
	}
	return n
}

// Close implements Device. Buffered writes are dropped — exactly what a
// crash does; call Sync first for a clean shutdown.
func (d *SyncBufferDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return d.inner.Close()
}
