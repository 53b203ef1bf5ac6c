//go:build !race

// Allocation guards for the v3 serving path. testing.AllocsPerRun is
// meaningless under the race detector's instrumented allocator, so this file
// is excluded there (mirroring internal/obs's race-gated guards).

package kvserver

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/obs"
)

// nopConn satisfies net.Conn for driving the dispatch path without a socket.
type nopConn struct{}

func (nopConn) Read(p []byte) (int, error)         { return 0, io.EOF }
func (nopConn) Write(p []byte) (int, error)        { return len(p), nil }
func (nopConn) Close() error                       { return nil }
func (nopConn) LocalAddr() net.Addr                { return nil }
func (nopConn) RemoteAddr() net.Addr               { return nil }
func (nopConn) SetDeadline(time.Time) error        { return nil }
func (nopConn) SetReadDeadline(t time.Time) error  { return nil }
func (nopConn) SetWriteDeadline(t time.Time) error { return nil }

// TestBatchEncodeAllocFree: building a batch request over a reused buffer
// allocates nothing once the buffer is warm.
func TestBatchEncodeAllocFree(t *testing.T) {
	key := []byte("alloc-key")
	val := []byte("alloc-val")
	var payload []byte
	allocs := testing.AllocsPerRun(200, func() {
		payload = appendU32(payload[:0], 2)
		payload = appendBatchOp(payload, OpSet, 1, key, val)
		payload = appendBatchOp(payload, OpGet, 2, key, nil)
	})
	if allocs != 0 {
		t.Fatalf("batch encode: %.1f allocs/run, want 0", allocs)
	}
}

// TestFrameDecodeAllocFree: readFrameBuf plus the arena-style batch decode
// allocate nothing once the caller-owned frame buffer is warm.
func TestFrameDecodeAllocFree(t *testing.T) {
	payload := appendU32(nil, 2)
	payload = appendBatchOp(payload, OpSet, 1, []byte("k1"), []byte("v1"))
	payload = appendBatchOp(payload, OpGet, 2, []byte("k2"), nil)
	var fb bytes.Buffer
	if err := writeFrame(&fb, OpBatch, payload); err != nil {
		t.Fatal(err)
	}
	raw := fb.Bytes()
	rd := bytes.NewReader(raw)
	br := bufio.NewReader(rd)
	var frame []byte
	bad := false
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(raw)
		br.Reset(rd)
		op, _, body, err := readFrameBuf(br, &frame)
		if err != nil || op != OpBatch {
			bad = true
			return
		}
		r, err := newBatchReader(body)
		if err != nil {
			bad = true
			return
		}
		for i := 0; i < r.count; i++ {
			if _, _, _, _, err := r.next(); err != nil {
				bad = true
				return
			}
		}
	})
	if bad {
		t.Fatal("decode failed inside guard loop")
	}
	if allocs != 0 {
		t.Fatalf("frame decode: %.1f allocs/run, want 0", allocs)
	}
}

// TestServingLoopAllocFree drives the real read -> dispatch -> respond path —
// readFrameBuf into the pooled frame buffer, execBatch scattering GETs
// through the session, replies gathered into the reused reply buffer behind
// the coalescing writer — and requires zero allocations per batch in steady
// state.
func TestServingLoopAllocFree(t *testing.T) {
	cfg := faster.Config{IndexBuckets: 1 << 10, PageBits: 16, MemPages: 8}
	store, err := faster.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := NewServer(store)
	sess := store.StartSession()
	defer sess.StopSession()

	const depth = 64
	keys := make([][]byte, depth)
	for i := range keys {
		keys[i] = u64(uint64(i) * 0x9e3779b97f4a7c15)
		if st := sess.Upsert(keys[i], u64(uint64(i))); st != faster.Ok {
			t.Fatalf("preload %d: %v", i, st)
		}
	}

	// One GET-only BATCH frame, re-served from the same bytes each run.
	payload := appendU32(nil, depth)
	for i, k := range keys {
		payload = appendBatchOp(payload, OpGet, uint64(i+1), k, nil)
	}
	var fb bytes.Buffer
	if err := writeFrame(&fb, OpBatch, payload); err != nil {
		t.Fatal(err)
	}
	raw := fb.Bytes()

	rd := bytes.NewReader(raw)
	cs := &connState{conn: nopConn{}, bw: bufio.NewWriterSize(io.Discard, srv.coalesceBytes())}
	cs.br = bufio.NewReaderSize(rd, 32<<10)
	cs.readCB = func(v []byte, st faster.Status) {
		cs.pendVal = append(cs.pendVal[:0], v...)
		cs.pendSt = st
		cs.pendDone = true
	}
	var at obs.ActiveTrace
	var tc obs.TraceContext
	bad := false
	allocs := testing.AllocsPerRun(300, func() {
		rd.Reset(raw)
		cs.br.Reset(rd)
		op, _, body, err := readFrameBuf(cs.br, &cs.frame)
		if err != nil || op != OpBatch {
			bad = true
			return
		}
		if err := srv.dispatch(cs, sess, op, tc, body, &at); err != nil {
			bad = true
		}
	})
	if bad {
		t.Fatal("serving loop failed inside guard loop")
	}
	if allocs != 0 {
		t.Fatalf("steady-state serving loop: %.2f allocs/batch of %d GETs, want 0", allocs, depth)
	}
}

// BenchmarkExecBatch64 is the server side of net-batch64 without the socket:
// one BATCH frame of 64 ops (32 GETs, 32 SETs, 8-byte keys and values) read
// from a buffer, dispatched through execBatch on an in-memory store, the
// gathered reply written to a discarding connection. One op is one batch;
// ns/batched-op is per op in it. The per-op clock reads are in the number.
func BenchmarkExecBatch64(b *testing.B) {
	store, err := faster.Open(faster.Config{IndexBuckets: 1 << 10, PageBits: 16, MemPages: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	srv := NewServer(store)
	sess := store.StartSession()
	defer sess.StopSession()

	const depth = 64
	payload := appendU32(nil, depth)
	for i := 0; i < depth; i++ {
		k := u64(uint64(i/2) * 0x9e3779b97f4a7c15)
		if i%2 == 0 {
			sess.Upsert(k, u64(uint64(i)))
			payload = appendBatchOp(payload, OpSet, uint64(i+1), k, u64(uint64(i)))
		} else {
			payload = appendBatchOp(payload, OpGet, uint64(i+1), k, nil)
		}
	}
	var fb bytes.Buffer
	if err := writeFrame(&fb, OpBatch, payload); err != nil {
		b.Fatal(err)
	}
	raw := fb.Bytes()
	rd := bytes.NewReader(raw)
	cs := &connState{conn: nopConn{}, bw: bufio.NewWriterSize(io.Discard, srv.coalesceBytes())}
	cs.br = bufio.NewReaderSize(rd, 32<<10)
	var at obs.ActiveTrace
	var tc obs.TraceContext
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(raw)
		cs.br.Reset(rd)
		op, _, body, err := readFrameBuf(cs.br, &cs.frame)
		if err != nil || op != OpBatch {
			b.Fatalf("frame: op %d, %v", op, err)
		}
		if err := srv.dispatch(cs, sess, op, tc, body, &at); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*depth), "ns/batched-op")
}
