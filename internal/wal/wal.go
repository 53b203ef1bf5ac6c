// Package wal implements the write-ahead-log baseline of Sec. 7.2: a central
// log buffer with LSN allocation, per-write redo records, and a group-commit
// flusher. It deliberately has the structure whose costs the paper measures —
// a serializing append (tail contention) plus a payload copy (log write) —
// because that is the baseline CPR is compared against.
package wal

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// Record is one redo entry: a (key, value) pair applied by a committed
// transaction.
type Record struct {
	Key   uint64
	Value []byte
}

// Log is a central write-ahead log with group commit. Append serializes on
// an internal spinlock (the tail), mirroring the LSN-allocation and buffer
// contention of classic WAL implementations (Sec. 8, Aether discussion).
type Log struct {
	mu   sync.Mutex
	buf  []byte
	lsn  uint64 // next LSN == total bytes ever appended
	dev  storage.Device
	off  int64 // device offset of buf[0]
	stop chan struct{}
	wg   sync.WaitGroup

	// flushMu runs one flush at a time: a flush of a later buffer that
	// finished first would report the bytes of an earlier one durable.
	flushMu sync.Mutex
	flushed atomic.Uint64 // LSN up to which the device is durable
}

// flushEvery is the group-commit interval.
const flushEvery = time.Millisecond

// New creates a WAL over dev and starts its group-commit flusher.
func New(dev storage.Device) *Log {
	l := &Log{dev: dev, stop: make(chan struct{})}
	l.wg.Add(1)
	go l.flusher()
	return l
}

// Append writes a transaction's redo records to the log and returns the
// transaction's LSN. Read-only transactions (no records) must not call
// Append; they generate no log traffic (Sec. 7.2.1).
func (l *Log) Append(recs []Record) uint64 {
	scratch := encode(recs) // outside the lock
	l.mu.Lock()
	lsn := l.lsn
	l.lsn += uint64(len(scratch))
	l.buf = append(l.buf, scratch...)
	l.mu.Unlock()
	return lsn
}

// AppendMeasured is Append with instrumentation: it separately reports the
// time spent waiting for the log tail (LSN allocation / lock acquisition,
// the "tail contention" of Fig. 10e) and the time spent copying the record
// into the buffer ("log write").
func (l *Log) AppendMeasured(recs []Record) (lsn uint64, lockWaitNs, copyNs int64) {
	scratch := encode(recs)
	t0 := time.Now()
	l.mu.Lock()
	t1 := time.Now()
	lsn = l.lsn
	l.lsn += uint64(len(scratch))
	l.buf = append(l.buf, scratch...)
	l.mu.Unlock()
	t2 := time.Now()
	return lsn, t1.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds()
}

// encode lays out a transaction's redo records as the log stores them:
// u32 count | count × (u64 key | u32 value length | value).
func encode(recs []Record) []byte {
	need := 4
	for _, r := range recs {
		need += 12 + len(r.Value)
	}
	buf := binary.LittleEndian.AppendUint32(make([]byte, 0, need), uint32(len(recs)))
	for _, r := range recs {
		buf = binary.LittleEndian.AppendUint64(buf, r.Key)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Value)))
		buf = append(buf, r.Value...)
	}
	return buf
}

// LSN returns the next LSN to be allocated.
func (l *Log) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// Flushed returns the LSN up to which the log is durable.
func (l *Log) Flushed() uint64 { return l.flushed.Load() }

// Flush forces an immediate group commit and blocks until durable.
func (l *Log) Flush() error { return l.flushOnce() }

func (l *Log) flusher() {
	defer l.wg.Done()
	t := time.NewTicker(flushEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			l.flushOnce()
			return
		case <-t.C:
			l.flushOnce()
		}
	}
}

// flushOnce swaps the buffer out under the lock (double buffering) and
// writes it behind the lock, so appenders only contend with the swap.
func (l *Log) flushOnce() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	buf := l.buf
	off := l.off
	end := l.lsn
	l.buf = nil
	l.off = int64(end)
	l.mu.Unlock()
	if len(buf) == 0 {
		return nil
	}
	if _, err := l.dev.WriteAt(buf, off); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if err := l.dev.Sync(); err != nil {
		return err
	}
	l.flushed.Store(end)
	return nil
}

// Close stops the flusher after a final flush.
func (l *Log) Close() {
	close(l.stop)
	l.wg.Wait()
}

// Replay reads the log from the device and invokes fn for every record of
// every transaction whose records were fully flushed, in LSN order. It is
// the redo pass of recovery.
func Replay(dev storage.Device, durableLSN uint64, fn func(rec Record)) error {
	if durableLSN == 0 {
		return nil
	}
	data := make([]byte, durableLSN)
	if _, err := dev.ReadAt(data, 0); err != nil {
		return fmt.Errorf("wal: replay read: %w", err)
	}
	pos := uint64(0)
	for pos+4 <= durableLSN {
		n := binary.LittleEndian.Uint32(data[pos:])
		pos += 4
		for i := uint32(0); i < n; i++ {
			if pos+12 > durableLSN {
				return nil // torn tail; stop
			}
			key := binary.LittleEndian.Uint64(data[pos:])
			vlen := binary.LittleEndian.Uint32(data[pos+8:])
			pos += 12
			if pos+uint64(vlen) > durableLSN {
				return nil
			}
			fn(Record{Key: key, Value: data[pos : pos+uint64(vlen)]})
			pos += uint64(vlen)
		}
	}
	return nil
}
