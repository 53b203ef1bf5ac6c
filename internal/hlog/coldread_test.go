package hlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/epoch"
	"repro/internal/storage"
)

// readCountDevice counts ReadAt calls; with shortAt > 0 a read asking for more
// than shortAt bytes returns only that many and an error, once per armed call.
type readCountDevice struct {
	storage.Device
	reads   atomic.Int64
	shortAt atomic.Int64
}

func (d *readCountDevice) ReadAt(p []byte, off int64) (int, error) {
	d.reads.Add(1)
	if n := d.shortAt.Swap(0); n > 0 && int64(len(p)) > n {
		got, _ := d.Device.ReadAt(p[:n], off)
		return got, errors.New("test: short read")
	}
	return d.Device.ReadAt(p, off)
}

// coldLog writes one record per value size, makes all of them durable and
// returns their addresses.
func coldLog(t testing.TB, valSizes ...int) (*Log, *readCountDevice, []uint64) {
	t.Helper()
	em := epoch.New()
	dev := &readCountDevice{Device: storage.NewMemDevice()}
	l, err := New(Config{PageBits: 16, MemPages: 8, Device: dev, Epochs: em})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	g := em.Acquire()
	defer g.Release()
	addrs := make([]uint64, len(valSizes))
	for i, n := range valSizes {
		val := make([]byte, n)
		for j := range val {
			val[j] = byte(i + j)
		}
		addrs[i] = l.Allocate(g, RecordSize(8, n))
		if err := l.WriteRecord(addrs[i], 0, 1, key64(uint64(i)), val, n); err != nil {
			t.Fatal(err)
		}
	}
	l.ShiftReadOnlyTo(l.Tail())
	g.Refresh()
	l.WaitDurable(l.Tail())
	return l, dev, addrs
}

// fetch runs one AsyncRead through cr and returns the record's key and value
// and how many device reads it took.
func fetch(t testing.TB, l *Log, dev *readCountDevice, cr *ColdRead, addr uint64) (key uint64, val []byte, reads int64) {
	t.Helper()
	type result struct {
		rec RecordRef
		err error
	}
	done := make(chan result, 1)
	cr.Done = func(rec RecordRef, err error) { done <- result{rec, err} }
	before := dev.reads.Load()
	l.AsyncRead(addr, cr)
	r := <-done
	if r.err != nil {
		t.Fatalf("AsyncRead(%d): %v", addr, r.err)
	}
	return binary.LittleEndian.Uint64(r.rec.Key(nil)), r.rec.Value(nil), dev.reads.Load() - before
}

func checkRecord(t *testing.T, i int, n int, key uint64, val []byte) {
	t.Helper()
	if key != uint64(i) || len(val) != n {
		t.Fatalf("record %d: key %d, %d value bytes, want %d", i, key, len(val), n)
	}
	for j, b := range val {
		if b != byte(i+j) {
			t.Fatalf("record %d: value byte %d = %d", i, j, b)
		}
	}
}

// TestAsyncReadSizeHint: the log learns the record size it serves, so a record
// no larger than the hint costs one device read; a larger one costs a second
// read for exactly the missing bytes; the last record before the flushed
// extent is served by a read clipped to it; a short hint read is completed by
// an exact one. The same ColdRead serves every fetch.
func TestAsyncReadSizeHint(t *testing.T) {
	sizes := []int{8, 8, 1000, 8, 5000, 5, 8} // 5 bytes: the one small record with a lens word
	l, dev, addrs := coldLog(t, sizes...)
	cr := new(ColdRead)
	steps := []struct {
		name  string
		i     int
		reads int64
		short int64
	}{
		{"first fetch reads the header, then the body", 0, 2, 0},
		{"same size as the hint", 1, 1, 0},
		{"larger than the hint", 2, 2, 0},
		{"smaller than the hint", 3, 1, 0},
		{"larger than the hint cap", 4, 2, 0},
		{"hint cap not exceeded by a huge record", 2, 1, 0},
		{"last record before the flushed extent", 6, 1, 0},
		{"hint read comes back short of the record", 3, 2, int64(RecordSize(8, 8)) - 8},
		{"hint read comes back with the header word alone, which holds a short-form record's size", 1, 2, 8},
		{"... and says that a long-form record's is in the next word", 5, 3, 8},
	}
	for _, s := range steps {
		dev.shortAt.Store(s.short)
		key, val, reads := fetch(t, l, dev, cr, addrs[s.i])
		checkRecord(t, s.i, sizes[s.i], key, val)
		if reads != s.reads {
			t.Errorf("%s: %d device reads, want %d", s.name, reads, s.reads)
		}
	}
	if end := addrs[6] + uint64(RecordSize(8, 8)); end != l.Durable() {
		t.Fatalf("last record ends at %d, flushed extent is %d", end, l.Durable())
	}
	if got := l.readHint.Load(); got != RecordSize(8, 1000) {
		t.Fatalf("learned hint = %d, want %d", got, RecordSize(8, 1000))
	}
}

// TestAsyncReadFailure: a read that makes no progress reports the device's
// error instead of retrying forever.
func TestAsyncReadFailure(t *testing.T) {
	l, _, addrs := coldLog(t, 8)
	done := make(chan error, 1)
	cr := &ColdRead{Done: func(_ RecordRef, err error) { done <- err }}
	l.AsyncRead(addrs[0]+1<<20, cr) // far past the device's extent
	if err := <-done; err == nil {
		t.Fatal("AsyncRead past the device extent reported no error")
	}
}

func BenchmarkUpdateValue(b *testing.B) {
	em := epoch.New()
	l, err := New(Config{PageBits: 16, MemPages: 8, Device: storage.NewMemDevice(), Epochs: em})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	g := em.Acquire()
	defer g.Release()
	addr := l.Allocate(g, RecordSize(8, 8))
	if err := l.WriteRecord(addr, 0, 1, key64(1), key64(0), 8); err != nil {
		b.Fatal(err)
	}
	rec := l.Record(addr)
	one := key64(1)
	var scratch []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.UpdateValue(&scratch, func(cur []byte) []byte {
			binary.LittleEndian.PutUint64(cur, binary.LittleEndian.Uint64(cur)+binary.LittleEndian.Uint64(one))
			return cur
		})
	}
	if got := valueUint64(rec); got != uint64(b.N) {
		b.Fatalf("counter = %d after %d updates", got, b.N)
	}
}

func BenchmarkAsyncRead(b *testing.B) {
	sizes := make([]int, 1024)
	for i := range sizes {
		sizes[i] = 8
	}
	l, dev, addrs := coldLog(b, sizes...)
	done := make(chan struct{}, 1)
	var sum uint64
	var val []byte
	cr := &ColdRead{Done: func(rec RecordRef, err error) {
		if err != nil {
			b.Error(err)
		}
		val = rec.Value(val[:0])
		sum += binary.LittleEndian.Uint64(val)
		done <- struct{}{}
	}}
	b.ReportAllocs()
	b.ResetTimer()
	before := dev.reads.Load()
	for i := 0; i < b.N; i++ {
		l.AsyncRead(addrs[i%len(addrs)], cr)
		<-done
	}
	b.ReportMetric(float64(dev.reads.Load()-before)/float64(b.N), "devreads/op")
}

// discardDevice accepts writes and keeps nothing (a MemDevice growing under the
// log would dominate what the flush path itself allocates).
type discardDevice struct{ storage.Device }

func (discardDevice) WriteAt(p []byte, _ int64) (int, error) { return len(p), nil }
func (discardDevice) Sync() error                            { return nil }
func (discardDevice) Close() error                           { return nil }

// flushLog opens a log for the flush guard and benchmark, every frame allocated.
func flushLog(tb testing.TB, pageBits uint) (*Log, *epoch.Guard) {
	em := epoch.New()
	l, err := New(Config{PageBits: pageBits, MemPages: 8, Device: discardDevice{}, Epochs: em})
	if err != nil {
		tb.Fatal(err)
	}
	g := em.Acquire()
	tb.Cleanup(func() { g.Release(); l.Close() })
	appendPages(tb, l, g, len(l.frames))
	return l, g
}

var flushVal = make([]byte, 1000)

// appendPages appends 1 KiB records until the tail is n pages further, folds
// over at the tail and waits until everything is on the device: n pages were
// flushed, as the read-only offset passed them or — several at once — by the
// fold-over. The loop itself allocates nothing.
func appendPages(tb testing.TB, l *Log, g *epoch.Guard, n int) {
	size := RecordSize(8, len(flushVal))
	var key [8]byte
	for end := l.Tail() + uint64(n)*l.pageSize; l.Tail() < end; g.Refresh() {
		addr := l.Allocate(g, size)
		binary.LittleEndian.PutUint64(key[:], addr)
		if err := l.WriteRecord(addr, 0, 1, key[:], flushVal, len(flushVal)); err != nil {
			tb.Fatal(err)
		}
	}
	target := l.Tail()
	l.ShiftReadOnlyTo(target)
	g.Refresh()
	l.WaitDurable(target)
	if err := l.FlushErr(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkFlushPage: one page appended and flushed per iteration. B/op is
// what the flush path allocates per page on top of the records themselves.
func BenchmarkFlushPage(b *testing.B) {
	for _, pageBits := range []uint{16, 20} {
		b.Run(fmt.Sprintf("%dKiB", 1<<pageBits>>10), func(b *testing.B) {
			l, g := flushLog(b, pageBits)
			b.SetBytes(int64(l.pageSize))
			b.ReportAllocs()
			b.ResetTimer()
			appendPages(b, l, g, b.N)
		})
	}
}

// BenchmarkAppend is Allocate + WriteRecord of an 8-byte key and a value of 8
// or 64 bytes over 16 one-MiB frames, so the log also flushes and evicts as it
// grows: what the benchmark's hlog.alloc_write_ns probe runs.
func BenchmarkAppend(b *testing.B) {
	for _, n := range []int{8, 64} {
		b.Run(fmt.Sprintf("v%d", n), func(b *testing.B) {
			em := epoch.New()
			l, err := New(Config{PageBits: 20, MemPages: 16, Device: discardDevice{}, Epochs: em})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			g := em.Acquire()
			defer g.Release()
			val, size := make([]byte, n), RecordSize(8, n)
			var key [8]byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binary.LittleEndian.PutUint64(key[:], uint64(i))
				if err := l.WriteRecord(l.Allocate(g, size), 0, 1, key[:], val, n); err != nil {
					b.Fatal(err)
				}
				if i%64 == 0 {
					g.Refresh()
				}
			}
		})
	}
}
