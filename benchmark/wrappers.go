package main

import (
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/inlog"
	"repro/internal/storage"
)

// The wrappers below sit between the program and its storage and count what
// crosses: they implement storage.Device, storage.CheckpointStore and
// inlog.SegmentStore, pass every call through unchanged, and keep the byte
// counts write_amp and space_amp are made of. They are in place in every run,
// traced or not, so both sides of a comparison pay the same for them.

const maxIOSamples = 1 << 18 // latency samples kept per direction between resets

// ioStats counts one class of device (HybridLog devices, or inlog segments).
type ioStats struct {
	reads, readBytes   atomic.Int64
	writes, writeBytes atomic.Int64
	syncs              atomic.Int64

	mu                      sync.Mutex
	readNs, writeNs, syncNs []int64
	spRead, spWrite, spSync spanName
	bg                      *ring // background span ring; nil when tracing is off
}

func newIOStats(read, write, sync spanName, bg *ring) *ioStats {
	return &ioStats{spRead: read, spWrite: write, spSync: sync, bg: bg}
}

func (s *ioStats) sample(dst *[]int64, d int64) {
	s.mu.Lock()
	if len(*dst) < maxIOSamples {
		*dst = append(*dst, d)
	}
	s.mu.Unlock()
}

// ioSnapshot is a point-in-time copy of the counters.
type ioSnapshot struct{ reads, readBytes, writes, writeBytes, syncs int64 }

func (s *ioStats) snapshot() ioSnapshot {
	return ioSnapshot{s.reads.Load(), s.readBytes.Load(), s.writes.Load(), s.writeBytes.Load(), s.syncs.Load()}
}

// resetSamples drops the latency samples taken so far (a window starts).
func (s *ioStats) resetSamples() {
	s.mu.Lock()
	s.readNs, s.writeNs, s.syncNs = s.readNs[:0], s.writeNs[:0], s.syncNs[:0]
	s.mu.Unlock()
}

// samples returns copies of the latency samples taken since the last reset.
func (s *ioStats) samples() (read, write, sync []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.readNs...), append([]int64(nil), s.writeNs...), append([]int64(nil), s.syncNs...)
}

// countDevice wraps a storage.Device.
type countDevice struct {
	inner storage.Device
	st    *ioStats
}

func (d *countDevice) ReadAt(p []byte, off int64) (int, error) {
	t0 := now()
	n, err := d.inner.ReadAt(p, off)
	t1 := now()
	d.st.reads.Add(1)
	d.st.readBytes.Add(int64(n))
	d.st.sample(&d.st.readNs, t1-t0)
	d.st.bg.sharedLeaf(d.st.spRead, t0, t1)
	return n, err
}

func (d *countDevice) WriteAt(p []byte, off int64) (int, error) {
	t0 := now()
	n, err := d.inner.WriteAt(p, off)
	t1 := now()
	d.st.writes.Add(1)
	d.st.writeBytes.Add(int64(n))
	d.st.sample(&d.st.writeNs, t1-t0)
	d.st.bg.sharedLeaf(d.st.spWrite, t0, t1)
	return n, err
}

func (d *countDevice) Sync() error {
	t0 := now()
	err := d.inner.Sync()
	t1 := now()
	d.st.syncs.Add(1)
	d.st.sample(&d.st.syncNs, t1-t0)
	d.st.bg.sharedLeaf(d.st.spSync, t0, t1)
	return err
}

func (d *countDevice) Size() int64  { return d.inner.Size() }
func (d *countDevice) Close() error { return d.inner.Close() }

// countCkpt wraps a storage.CheckpointStore. An artifact write is timed from
// Create to the writer's Close; live holds the size of every artifact present.
type countCkpt struct {
	inner storage.CheckpointStore
	bg    *ring

	writes, writeBytes atomic.Int64

	mu      sync.Mutex
	live    map[string]int64
	writeNs []int64
}

func newCountCkpt(inner storage.CheckpointStore, bg *ring) *countCkpt {
	return &countCkpt{inner: inner, bg: bg, live: make(map[string]int64)}
}

type ckptWriter struct {
	io.WriteCloser
	c    *countCkpt
	name string
	n    int64
	t0   int64
}

func (w *ckptWriter) Write(p []byte) (int, error) {
	n, err := w.WriteCloser.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *ckptWriter) Close() error {
	err := w.WriteCloser.Close()
	t1 := now()
	c := w.c
	c.writes.Add(1)
	c.writeBytes.Add(w.n)
	c.mu.Lock()
	if err == nil {
		c.live[w.name] = w.n
	}
	if len(c.writeNs) < maxIOSamples {
		c.writeNs = append(c.writeNs, t1-w.t0)
	}
	c.mu.Unlock()
	c.bg.sharedLeaf(spArtifactWrite, w.t0, t1)
	return err
}

func (c *countCkpt) Create(name string) (io.WriteCloser, error) {
	t0 := now()
	w, err := c.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &ckptWriter{WriteCloser: w, c: c, name: name, t0: t0}, nil
}

func (c *countCkpt) Open(name string) (io.ReadCloser, error) { return c.inner.Open(name) }
func (c *countCkpt) List() ([]string, error)                 { return c.inner.List() }

func (c *countCkpt) Remove(name string) error {
	err := c.inner.Remove(name)
	if err == nil {
		c.mu.Lock()
		delete(c.live, name)
		c.mu.Unlock()
	}
	return err
}

// takeSamples returns the artifact write latencies recorded since the last
// call and starts over.
func (c *countCkpt) takeSamples() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.writeNs
	c.writeNs = nil
	return out
}

// liveBytes is the total size of the artifacts currently in the store.
func (c *countCkpt) liveBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, sz := range c.live {
		n += sz
	}
	return n
}

// countSegStore wraps an inlog.SegmentStore: every segment device it hands
// out is a countDevice over the shared segment stats.
type countSegStore struct {
	inner inlog.SegmentStore
	st    *ioStats

	mu   sync.Mutex
	segs map[uint64]storage.Device
}

func newCountSegStore(inner inlog.SegmentStore, st *ioStats) *countSegStore {
	return &countSegStore{inner: inner, st: st, segs: make(map[uint64]storage.Device)}
}

func (s *countSegStore) Open(base uint64) (storage.Device, error) {
	d, err := s.inner.Open(base)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.segs[base] = d
	s.mu.Unlock()
	return &countDevice{inner: d, st: s.st}, nil
}

func (s *countSegStore) List() ([]uint64, error) { return s.inner.List() }

func (s *countSegStore) Remove(base uint64) error {
	err := s.inner.Remove(base)
	if err == nil {
		s.mu.Lock()
		delete(s.segs, base)
		s.mu.Unlock()
	}
	return err
}

// liveBytes is the total extent of the segments currently in the store.
func (s *countSegStore) liveBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, d := range s.segs {
		n += d.Size()
	}
	return n
}

// ramDevice is the RAM-backed storage.Device of the in-memory workloads: fixed
// 1 MiB blocks, so a growing write costs what it writes. (The repository's
// MemDevice reallocates and copies the whole device on every growing write;
// under a log that grows all window long that cost, not the program's flush
// path, would be what the in-memory workloads measure. See README, findings.)
type ramDevice struct {
	mu     sync.RWMutex
	blocks [][]byte
	size   int64
	closed bool
}

const ramBlock = 1 << 20

func (d *ramDevice) ReadAt(p []byte, off int64) (int, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return 0, storage.ErrClosed
	}
	if off < 0 || off+int64(len(p)) > d.size {
		return 0, io.ErrUnexpectedEOF
	}
	for n := 0; n < len(p); {
		pos := off + int64(n)
		n += copy(p[n:], d.blocks[pos/ramBlock][pos%ramBlock:])
	}
	return len(p), nil
}

func (d *ramDevice) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, storage.ErrClosed
	}
	if off < 0 {
		return 0, io.ErrUnexpectedEOF
	}
	end := off + int64(len(p))
	for int64(len(d.blocks))*ramBlock < end {
		d.blocks = append(d.blocks, make([]byte, ramBlock))
	}
	for n := 0; n < len(p); {
		pos := off + int64(n)
		n += copy(d.blocks[pos/ramBlock][pos%ramBlock:], p[n:])
	}
	d.size = max(d.size, end)
	return len(p), nil
}

func (d *ramDevice) Sync() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return storage.ErrClosed
	}
	return nil
}

func (d *ramDevice) Size() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.size
}

func (d *ramDevice) Close() error {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	return nil
}

// clone copies the device's contents at this instant: the crash image of a
// killed process whose "disk" was this device.
func (d *ramDevice) clone() *ramDevice {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c := &ramDevice{size: d.size, blocks: make([][]byte, len(d.blocks))}
	for i, b := range d.blocks {
		c.blocks[i] = append([]byte(nil), b...)
	}
	return c
}
