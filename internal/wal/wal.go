// Package wal implements the write-ahead-log baseline of Sec. 7.2: a central
// log buffer with LSN allocation, per-write redo records, and a group-commit
// flusher. It deliberately has the structure whose costs the paper measures —
// a serializing append (tail contention) plus a payload copy (log write) —
// because that is the baseline CPR is compared against.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
	lsn  uint64 // next LSN: the device offset of the next byte appended
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

// Open replays the log on dev (replay; an empty device holds none) and
// returns a WAL that appends after its last whole transaction, over the torn
// tail if there is one: what the tail leaves behind a shorter group fails its
// checksum. It starts the group-commit flusher.
func Open(dev storage.Device, fn func(rec Record)) (*Log, error) {
	at, err := replay(dev, uint64(dev.Size()), fn)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	l := &Log{dev: dev, lsn: at, off: int64(at), stop: make(chan struct{})}
	l.flushed.Store(at)
	l.wg.Add(1)
	go l.flusher()
	return l, nil
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
// u32 count | count × (u64 key | u32 value length | value) | u32 CRC-32C of
// the bytes before it.
func encode(recs []Record) []byte {
	need := 8
	for _, r := range recs {
		need += 12 + len(r.Value)
	}
	buf := binary.LittleEndian.AppendUint32(make([]byte, 0, need), uint32(len(recs)))
	for _, r := range recs {
		buf = binary.LittleEndian.AppendUint64(buf, r.Key)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Value)))
		buf = append(buf, r.Value...)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Flushed returns the LSN up to which the log is durable.
func (l *Log) Flushed() uint64 { return l.flushed.Load() }

// Flush forces an immediate group commit and blocks until durable. It
// returns the LSN up to which the log is then durable: every transaction
// appended before the call ends at or below it.
func (l *Log) Flush() (uint64, error) { return l.flushOnce() }

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
// writes it behind the lock, so appenders only contend with the swap. A group
// whose write or sync fails is owed: it keeps its offset, the next flush
// writes it ahead of what was appended since, and flushed does not pass it.
// It returns the end of the group: durable unless err is set.
func (l *Log) flushOnce() (end uint64, err error) {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	buf, off, end := l.buf, l.off, l.lsn
	l.buf, l.off = nil, int64(end)
	l.mu.Unlock()
	if len(buf) == 0 {
		return end, nil
	}
	_, err = l.dev.WriteAt(buf, off)
	if err == nil {
		err = l.dev.Sync()
	}
	if err != nil {
		l.mu.Lock()
		l.buf, l.off = append(buf, l.buf...), off
		l.mu.Unlock()
		return end, fmt.Errorf("wal: flush: %w", err)
	}
	l.flushed.Store(end)
	return end, nil
}

// Close stops the flusher after a final flush.
func (l *Log) Close() {
	close(l.stop)
	l.wg.Wait()
}

// replay reads the first size bytes of the log on dev and calls fn for each
// record of each whole transaction, in LSN order — the redo pass of recovery.
// A transaction's records are applied only once its last record and its
// checksum have read whole, so a torn tail restores no part of the
// transaction it cuts. It returns the end of the last whole transaction.
func replay(dev storage.Device, size uint64, fn func(rec Record)) (end uint64, err error) {
	if size == 0 {
		return 0, nil
	}
	data := make([]byte, size)
	if _, err := dev.ReadAt(data, 0); err != nil {
		return 0, fmt.Errorf("replay read: %w", err)
	}
	for b := data; len(b) >= 8; b = data[end:] {
		n, at := binary.LittleEndian.Uint32(b), uint64(4)
		for ; n > 0 && at+12 <= uint64(len(b)); n-- {
			at += 12 + uint64(binary.LittleEndian.Uint32(b[at+8:]))
		}
		if n > 0 || at+4 > uint64(len(b)) || binary.LittleEndian.Uint32(b[at:]) != crc32.Checksum(b[:at], castagnoli) {
			break
		}
		for r := b[4:at]; len(r) > 0; r = r[12+binary.LittleEndian.Uint32(r[8:]):] {
			fn(Record{Key: binary.LittleEndian.Uint64(r), Value: r[12 : 12+binary.LittleEndian.Uint32(r[8:])]})
		}
		end += at + 4
	}
	return end, nil
}
