//go:build !race

package faster

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/hlog"
)

// The guards below pin the buffer-ownership rules of the operation path (see
// DESIGN "Buffer ownership on the operation path"): op records, key/input
// copies, the scratch an RMW works on and a read's value is served from, and
// the cold-read buffers are all reused, so no operation allocates — a read,
// hot or cold, included. Like every AllocFree guard they run without the race
// detector.

// opAllocs runs op once per key and returns the heap allocations per call,
// counted process-wide (so the I/O pool's workers are included) as a fraction:
// testing.AllocsPerRun rounds down to a whole number, which would let 0.9
// allocations per op pass as 0. slack allows for the few a run makes that are
// not per-op (a page frame's first use, a flush buffer).
func opAllocs(t *testing.T, keys uint64, op func(k []byte)) float64 {
	t.Helper()
	var kb [8]byte
	var before, after runtime.MemStats
	for next := uint64(0); next < keys; next++ {
		if next == 1 { // the first call warms up
			runtime.ReadMemStats(&before)
		}
		binary.LittleEndian.PutUint64(kb[:], next)
		op(kb[:])
	}
	runtime.ReadMemStats(&after)
	t.Logf("%d allocations in %d calls", after.Mallocs-before.Mallocs, keys-1)
	return float64(after.Mallocs-before.Mallocs) / float64(keys-1)
}

const slack = 0.05

func TestSessionOpsAllocFree(t *testing.T) {
	const keys = 400
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	one := u64(1)
	for k := uint64(0); k < keys; k++ {
		sess.Upsert(key(k), u64(0))
	}
	sess.Read(key(0), nil)
	sess.RMW(key(0), one)

	check := func(region string) {
		t.Helper()
		if a := opAllocs(t, keys, func(k []byte) {
			if st := sess.RMW(k, one); st != Ok {
				t.Fatalf("rmw: %v", st)
			}
		}); a > slack {
			t.Errorf("%s: RMW allocates %.2f times per op, want 0", region, a)
		}
		if a := opAllocs(t, keys, func(k []byte) {
			if _, st := sess.Read(k, nil); st != Ok {
				t.Fatalf("read: %v", st)
			}
		}); a > slack {
			t.Errorf("%s: Read allocates %.2f times per op, want 0", region, a)
		}
	}
	upserts := func(region string) {
		t.Helper()
		if a := opAllocs(t, keys, func(k []byte) {
			if st := sess.Upsert(k, one); st != Ok {
				t.Fatalf("upsert: %v", st)
			}
		}); a > slack {
			t.Errorf("%s: Upsert allocates %.2f times per op, want 0", region, a)
		}
	}

	check("mutable region")
	upserts("mutable region")

	// After a fold-over commit every record is read-only: the first update of
	// each key goes through read-copy-update (current value into the session's
	// scratch, RMWOps.Update on it, a new record at the tail).
	driveCommit(t, s, []*Session{sess}, CommitOptions{})
	tail := s.Log().Tail()
	check("read-copy-update")
	if grew := s.Log().Tail() - tail; grew < keys*uint64(hlog.RecordSize(8, 8)) {
		t.Fatalf("log grew by %d bytes: the RMWs after the commit did not copy", grew)
	}
	driveCommit(t, s, []*Session{sess}, CommitOptions{})
	upserts("read-copy-update")
}

// TestColdReadAllocFree: a read of an evicted record over a file device — one
// device read into the op record's own buffer, handed to the pool from the
// session's reused queue, completion through the session's double-buffered
// list, the value served from the session's scratch — allocates nothing.
func TestColdReadAllocFree(t *testing.T) {
	const keys = 20000
	s, sess := coldStore(t, keys)
	var got, sum uint64
	cb := func(v []byte, st Status) {
		if st == Ok {
			got++
			sum += binary.LittleEndian.Uint64(v)
		}
	}
	sess.Read(key(0), cb)
	sess.CompletePending(true)
	ioBefore, devBefore := s.metrics.ioReads.Value(), s.Metrics().Snapshot().Counters["storage_io_reads_total"]
	const runs = 500
	a := opAllocs(t, runs+1, func(k []byte) {
		if _, st := sess.Read(k, cb); st != Pending {
			t.Fatalf("read of an evicted key: %v, want pending", st)
		}
		sess.CompletePending(true)
	})
	if a > slack {
		t.Errorf("cold Read + CompletePending allocates %.2f times per op, want 0", a)
	}
	if got != runs+2 || sum != runs*(runs+1)/2 {
		t.Fatalf("%d cold reads delivered, values sum to %d", got, sum)
	}
	io := s.metrics.ioReads.Value() - ioBefore
	dev := s.Metrics().Snapshot().Counters["storage_io_reads_total"] - devBefore
	if io != runs+1 || dev != io {
		t.Fatalf("%d cold fetches took %d device reads, want one each", io, dev)
	}
}
