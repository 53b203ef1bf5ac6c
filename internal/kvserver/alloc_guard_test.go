//go:build !race

// Allocation guards for the v3 serving path. testing.AllocsPerRun is
// meaningless under the race detector's instrumented allocator, so this file
// is excluded there (mirroring internal/obs's race-gated guards).

package kvserver

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"

	"repro/internal/faster"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestBatchEncodeAllocFree: building a batch request over a reused buffer
// allocates nothing once the buffer is warm.
func TestBatchEncodeAllocFree(t *testing.T) {
	key := []byte("alloc-key")
	val := []byte("alloc-val")
	var payload []byte
	allocs := testing.AllocsPerRun(200, func() {
		payload = wire.AppendU32(payload[:0], 2)
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
	payload := wire.AppendU32(nil, 2)
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

// guardServingLoop requires zero allocations per pass over the frames in raw
// in steady state.
func guardServingLoop(t *testing.T, srv *Server, sess *faster.Session, raw []byte, frames int) {
	t.Helper()
	r := newReplayConn(srv, sess, raw, frames)
	var bad error
	allocs := testing.AllocsPerRun(300, func() {
		if err := r.pass(); err != nil {
			bad = err
		}
	})
	if bad != nil {
		t.Fatalf("serving loop failed inside guard loop: %v", bad)
	}
	if allocs != 0 {
		t.Fatalf("steady-state serving loop: %.2f allocs per %d frame(s), want 0", allocs, frames)
	}
}

// TestServingLoopAllocFree: one GET-only BATCH frame of 64, re-served from
// the same bytes each run.
func TestServingLoopAllocFree(t *testing.T) {
	srv, sess, keys := servedStore(t, 64, nil)
	payload := wire.AppendU32(nil, uint32(len(keys)))
	for i, k := range keys {
		payload = appendBatchOp(payload, OpGet, uint64(i+1), k, nil)
	}
	var fb bytes.Buffer
	if err := writeFrame(&fb, OpBatch, payload); err != nil {
		t.Fatal(err)
	}
	guardServingLoop(t, srv, sess, fb.Bytes(), 1)
}

// TestSingleOpServingLoopAllocFree: the single-op arms — one traced GET frame
// and one plain SET frame per pass, each answered in its own reply frame.
func TestSingleOpServingLoopAllocFree(t *testing.T) {
	srv, sess, keys := servedStore(t, 1, nil)
	var fb bytes.Buffer
	tc := obs.TraceContext{TraceID: 9, ParentSpan: 1, IssuedUnixNanos: 1}
	if err := writeFrameTr(&fb, OpGet, tc, wire.AppendString(nil, keys[0])); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&fb, OpSet, wire.AppendValue(wire.AppendString(nil, keys[0]), u64(1))); err != nil {
		t.Fatal(err)
	}
	guardServingLoop(t, srv, sess, fb.Bytes(), 2)
}

// wireFixture serves an in-memory store on loopback and dials one client to
// it, with 64 keys preloaded through that client.
func wireFixture(tb testing.TB) (*Client, [][]byte) {
	tb.Helper()
	_, addr, _ := startServer(tb, faster.Config{IndexBuckets: 1 << 10, PageBits: 16, MemPages: 8})
	c, err := Dial(addr, "")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = u64(uint64(i) * 0x9e3779b97f4a7c15)
		if _, err := c.Set(keys[i], u64(uint64(i))); err != nil {
			tb.Fatal(err)
		}
	}
	return c, keys
}

// The three round trips of the wire path, shared by the allocation guard and
// the layer benchmarks: one GET, one SET, one Pipeline of 64 (32 GETs, 32
// SETs, 8-byte keys and values — the shape of the benchmark's net-batch64).
func getRTT(c *Client, keys [][]byte) func(i int) error {
	return func(i int) error {
		if _, found, err := c.Get(keys[i%len(keys)]); err != nil || !found {
			return fmt.Errorf("get: found=%v err=%v", found, err)
		}
		return nil
	}
}

func setRTT(c *Client, keys [][]byte) func(i int) error {
	val := u64(42)
	return func(i int) error {
		_, err := c.Set(keys[i%len(keys)], val)
		return err
	}
}

func flush64(c *Client, keys [][]byte) func(i int) error {
	p, val := c.Pipeline(), u64(42)
	return func(int) error {
		for i, k := range keys {
			if i%2 == 0 {
				p.Get(k)
			} else {
				p.Set(k, val)
			}
		}
		res, err := p.Flush()
		if err == nil && len(res) != len(keys) {
			err = fmt.Errorf("flush: %d results for %d ops", len(res), len(keys))
		}
		return err
	}
}

// TestClientRoundTripAllocFree: a Get, a Set and a 64-op Pipeline.Flush
// against an in-process server over loopback allocate nothing in steady state.
// AllocsPerRun counts process-wide, so the guard covers the client and the
// server's connection handler together.
func TestClientRoundTripAllocFree(t *testing.T) {
	c, keys := wireFixture(t)
	for _, rt := range []struct {
		name string
		f    func(int) error
	}{{"Get", getRTT(c, keys)}, {"Set", setRTT(c, keys)}, {"Flush64", flush64(c, keys)}} {
		var bad error
		i := 0
		allocs := testing.AllocsPerRun(300, func() {
			if err := rt.f(i); err != nil {
				bad = err
			}
			i++
		})
		if bad != nil {
			t.Fatalf("%s failed inside guard loop: %v", rt.name, bad)
		}
		if allocs != 0 {
			t.Fatalf("%s: %.2f allocs per round trip, want 0", rt.name, allocs)
		}
	}
}

func benchRTT(b *testing.B, mk func(*Client, [][]byte) func(int) error) {
	c, keys := wireFixture(b)
	f := mk(c, keys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f(i); err != nil {
			b.Fatal(err)
		}
	}
}

// Layer benchmarks of the wire path over loopback: one op is one round trip
// (for Flush64, one batch of 64), client and server in this process.
func BenchmarkClientGetRTT(b *testing.B)    { benchRTT(b, getRTT) }
func BenchmarkClientSetRTT(b *testing.B)    { benchRTT(b, setRTT) }
func BenchmarkPipelineFlush64(b *testing.B) { benchRTT(b, flush64) }

// BenchmarkExecBatch64 is the server side of net-batch64 without the socket:
// one BATCH frame of 64 ops (32 GETs, 32 SETs, 8-byte keys and values) read
// from a buffer, dispatched through execBatch on an in-memory store, the
// gathered reply written to a discarding connection. One op is one batch;
// ns/batched-op is per op in it.
func BenchmarkExecBatch64(b *testing.B) {
	srv, sess, keys := servedStore(b, 32, nil)
	r := newReplayConn(srv, sess, batch64(b, keys, obs.TraceContext{}), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.pass(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/batched-op")
}
