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
	"repro/internal/storage"
	"repro/internal/wire"
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

// replayConn is a connection whose peer sends the same frames over and over:
// each pass rewinds the reader onto raw and drives the real read -> dispatch ->
// respond path — readFrameBuf into the connection's frame buffer, the ops
// through the session, replies built in place in the reply buffer behind the
// coalescing writer, which discards them.
type replayConn struct {
	srv    *Server
	sess   *faster.Session
	cs     *connState
	rd     *bytes.Reader
	raw    []byte
	frames int
	at     obs.ActiveTrace
}

func newReplayConn(srv *Server, sess *faster.Session, raw []byte, frames int) *replayConn {
	rd := bytes.NewReader(raw)
	cs := &connState{conn: nopConn{}, bw: bufio.NewWriterSize(io.Discard, srv.replyBytes)}
	cs.br = bufio.NewReaderSize(rd, 32<<10)
	cs.store, cs.om, _ = srv.backend() // what a Hello binds
	cs.readCB = func(v []byte, st faster.Status) {
		cs.pendVal = append(cs.pendVal[:0], v...)
		cs.pendSt = st
		cs.pendDone = true
	}
	return &replayConn{srv: srv, sess: sess, cs: cs, rd: rd, raw: raw, frames: frames}
}

func (r *replayConn) pass() error {
	r.rd.Reset(r.raw)
	r.cs.br.Reset(r.rd)
	for i := 0; i < r.frames; i++ {
		op, tc, body, err := readFrameBuf(r.cs.br, &r.cs.frame)
		if err == nil {
			err = r.srv.dispatch(r.cs, r.sess, op, tc, body, &r.at)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// servedStore opens an in-memory store with depth preloaded keys, and rt as
// its request tracer, behind a server that is not listening, plus a session
// to dispatch on.
func servedStore(t testing.TB, depth int, rt *obs.RequestTracer) (*Server, *faster.Session, [][]byte) {
	t.Helper()
	store, err := faster.Open(faster.Config{IndexBuckets: 1 << 10, PageBits: 16, MemPages: 8, ReqTrace: rt})
	if err != nil {
		t.Fatal(err)
	}
	sess := store.StartSession()
	t.Cleanup(func() { sess.StopSession(); store.Close() })
	keys := make([][]byte, depth)
	for i := range keys {
		keys[i] = u64(uint64(i) * 0x9e3779b97f4a7c15)
		if st := sess.Upsert(keys[i], u64(uint64(i))); st != faster.Ok {
			t.Fatalf("preload %d: %v", i, st)
		}
	}
	return NewServer(store), sess, keys
}

// batch64 is one BATCH frame of 64 ops, a SET and a GET of each of 32 keys —
// the shape of the benchmark's net-batch64 — carrying trace field tc.
func batch64(tb testing.TB, keys [][]byte, tc obs.TraceContext) []byte {
	payload := wire.AppendU32(nil, 64)
	for i := 0; i < 64; i++ {
		if k := keys[i/2]; i%2 == 0 {
			payload = appendBatchOp(payload, OpSet, uint64(i+1), k, u64(uint64(i)))
		} else {
			payload = appendBatchOp(payload, OpGet, uint64(i+1), k, nil)
		}
	}
	var fb bytes.Buffer
	if err := writeFrameTr(&fb, OpBatch, tc, payload); err != nil {
		tb.Fatal(err)
	}
	return fb.Bytes()
}

// TestBatchExecClock: a BATCH reads the clock before its ops and after them,
// and faster_op_exec_ns takes the batch's 64 ops at their mean in one update —
// the count still counts ops; a traced BATCH reads it per op only for exec
// spans, and only while its trace has room for them.
func TestBatchExecClock(t *testing.T) {
	execNs := func(srv *Server) obs.HistogramSnapshot {
		return srv.store.Metrics().Snapshot().Histograms["faster_op_exec_ns"]
	}
	t.Run("untraced", func(t *testing.T) {
		srv, sess, keys := servedStore(t, 32, nil)
		if err := newReplayConn(srv, sess, batch64(t, keys, obs.TraceContext{}), 1).pass(); err != nil {
			t.Fatal(err)
		}
		h := execNs(srv)
		if h.Count != 64 {
			t.Fatalf("faster_op_exec_ns counts %d ops after one BATCH of 64", h.Count)
		}
		buckets := 0
		for _, n := range h.Buckets {
			if n != 0 {
				buckets++
			}
		}
		if h.SumNanos != 64*h.MaxNanos || buckets != 1 {
			t.Fatalf("sum %d, max %d, %d buckets: want the 64 ops recorded at one value", h.SumNanos, h.MaxNanos, buckets)
		}
	})
	t.Run("traced", func(t *testing.T) {
		rt := obs.NewRequestTracer(16) // retains every request until its first threshold
		srv, sess, keys := servedStore(t, 32, rt)
		tc := obs.TraceContext{TraceID: 7, ParentSpan: 1}
		if err := newReplayConn(srv, sess, batch64(t, keys, tc), 1).pass(); err != nil {
			t.Fatal(err)
		}
		if h := execNs(srv); h.Count != 64 {
			t.Fatalf("faster_op_exec_ns counts %d ops after one BATCH of 64", h.Count)
		}
		traces := rt.Slowest(0)
		if len(traces) != 1 {
			t.Fatalf("%d traces retained, want the BATCH's", len(traces))
		}
		var exec []obs.Span
		var batch *obs.Span
		for i, sp := range traces[0].Spans {
			switch sp.Kind {
			case obs.SpanExec:
				exec = append(exec, sp)
			case obs.SpanBatch:
				batch = &traces[0].Spans[i]
			}
		}
		if batch == nil || batch.Arg1 != 64 {
			t.Fatalf("no batch span over the 64 ops: %+v", traces[0].Spans)
		}
		if len(exec) == 0 || len(exec) >= 64 {
			t.Fatalf("%d exec spans: want one per op while the trace has room, then none", len(exec))
		}
		from := batch.StartUnixNanos
		for i, sp := range exec {
			if sp.StartUnixNanos != from || sp.EndUnixNanos < from || sp.EndUnixNanos > batch.EndUnixNanos {
				t.Fatalf("exec span %d [%d, %d] does not follow the previous one (ends %d) inside the batch [%d, %d]",
					i, sp.StartUnixNanos, sp.EndUnixNanos, from, batch.StartUnixNanos, batch.EndUnixNanos)
			}
			from = sp.EndUnixNanos
		}
	})
}

// TestFailedParkedWriteRepliesError: a write that parks on a cold record and
// fails there — the device refuses the read — is answered StatusError, to a
// Client's RMW and to one queued on a Pipeline, and the record is untouched.
func TestFailedParkedWriteRepliesError(t *testing.T) {
	inj := storage.NewInjector(storage.FaultConfig{Seed: 1})
	cfg := smallCfg()
	cfg.Device = storage.NewFaultDevice(storage.NewMemDevice(), inj)
	_, addr, store := startServer(t, cfg)
	sess := store.StartSession()
	n := uint64(20000) // several times what the frames hold
	for k := uint64(0); k < n; k++ {
		if st := sess.Upsert(u64(k), u64(k)); st == faster.Pending {
			sess.CompletePending(true)
		}
	}
	sess.StopSession()
	log := store.Log()
	log.WaitDurable(log.SafeReadOnly()) // no flush in flight when the device dies
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	inj.FailPermanently()
	if _, err := c.RMW(u64(3), u64(1)); err == nil {
		t.Error("RMW of a cold record the device cannot read replied OK")
	}
	p := c.Pipeline()
	p.RMW(u64(4), u64(1))
	res, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != StatusError {
		t.Errorf("batched RMW of a cold record the device cannot read: status %d, want %d", res[0].Status, StatusError)
	}
	inj.Heal()
	for k := uint64(3); k <= 4; k++ {
		if v, found, err := c.Get(u64(k)); err != nil || !found || !bytes.Equal(v, u64(k)) {
			t.Errorf("key %d after the failed RMW: %x, found %v, %v", k, v, found, err)
		}
	}
}
