package kvserver

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/wire"
)

// startServerTuned mirrors startServer but lets the test tune the server
// (e.g. coalescing caps) before it listens.
func startServerTuned(t *testing.T, cfg faster.Config, tune func(*Server)) (*Server, string, *faster.Store) {
	t.Helper()
	store, err := faster.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	if tune != nil {
		tune(srv)
	}
	if _, err := serveAsync(srv, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() { srv.Close(); store.Close() })
	return srv, srv.Addr().String(), store
}

// TestBatchRoundTrip pipelines a mixed batch and checks per-op statuses,
// values, and serials come back matched in issue order.
func TestBatchRoundTrip(t *testing.T) {
	_, addr, store := startServer(t, smallCfg())
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	p := c.Pipeline()
	seqSet := p.Set([]byte("bk1"), []byte("bv1"))
	p.RMW([]byte("bk2"), u64(5))
	p.Get([]byte("bk1"))
	p.Get([]byte("absent"))
	p.Delete([]byte("bk1"))
	p.Get([]byte("bk1"))
	res, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("got %d results, want 6", len(res))
	}
	if res[0].Seq != seqSet || res[0].Status != StatusOK || res[0].Serial == 0 {
		t.Fatalf("set result: %+v", res[0])
	}
	if res[1].Status != StatusOK || res[1].Serial <= res[0].Serial {
		t.Fatalf("rmw result: %+v (serials must advance in issue order)", res[1])
	}
	if res[2].Status != StatusOK || string(res[2].Value) != "bv1" {
		t.Fatalf("get result: %+v", res[2])
	}
	if res[3].Status != StatusNotFound {
		t.Fatalf("absent get result: %+v", res[3])
	}
	if res[4].Status != StatusOK {
		t.Fatalf("delete result: %+v", res[4])
	}
	if res[5].Status != StatusNotFound {
		t.Fatalf("get-after-delete result: %+v", res[5])
	}

	// Batch effects are visible to Get, a batch of one, on the same session.
	if _, found, err := c.Get([]byte("bk2")); err != nil || !found {
		t.Fatalf("bk2 after batch: found=%v err=%v", found, err)
	}

	// The pipeline is reusable after Flush.
	p.Set([]byte("bk3"), []byte("bv3"))
	if res, err = p.Flush(); err != nil || len(res) != 1 || res[0].Status != StatusOK {
		t.Fatalf("reflush: %v %+v", err, res)
	}

	// The server observed the batch in its pipelining metrics.
	snap := store.Metrics().Snapshot()
	if snap.Counters["faster_net_batches_total"] < 2 {
		t.Fatalf("faster_net_batches_total = %d, want >= 2", snap.Counters["faster_net_batches_total"])
	}
	if h, ok := snap.Histograms["faster_batch_depth"]; !ok || h.Count < 2 {
		t.Fatalf("faster_batch_depth missing or empty: %+v", h)
	}
	if snap.Counters["faster_net_coalesced_flushes_total"] == 0 {
		t.Fatal("no coalesced flushes recorded")
	}
}

// TestBatchReplySplit forces the server to split one batch's replies across
// several BATCH frames (tiny coalescing byte cap); the client must reassemble
// them transparently and in order.
func TestBatchReplySplit(t *testing.T) {
	_, addr, _ := startServerTuned(t, smallCfg(), func(s *Server) {
		s.replyBytes = 64 // a few reply entries per frame
	})
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 50
	p := c.Pipeline()
	for i := 0; i < n; i++ {
		p.Set(u64(uint64(i)), u64(uint64(i*7)))
	}
	res, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != n {
		t.Fatalf("got %d results, want %d", len(res), n)
	}
	var last uint64
	for i, r := range res {
		if r.Status != StatusOK || r.Serial <= last {
			t.Fatalf("result %d: %+v (after serial %d)", i, r, last)
		}
		last = r.Serial
	}
	// And read them all back through one split-reply GET batch.
	for i := 0; i < n; i++ {
		p.Get(u64(uint64(i)))
	}
	if res, err = p.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Status != StatusOK || string(r.Value) != string(u64(uint64(i*7))) {
			t.Fatalf("get %d: %+v", i, r)
		}
	}
}

// TestBatchMalformedFailsConnection: mid-batch corruption leaves no way to
// resync, so the server must drop the connection, not guess.
func TestBatchMalformedFailsConnection(t *testing.T) {
	_, addr, _ := startServer(t, smallCfg())
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Hand-roll a batch frame whose single op has a non-batchable opcode.
	payload := wire.AppendU32(nil, 1)
	payload = appendBatchOp(payload, OpCommit, 1, []byte("k"), nil)
	if err := writeFrame(c.conn, OpBatch, payload); err != nil {
		t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, _, err := readFrame(c.conn); err == nil {
		t.Fatal("server answered a malformed batch")
	}
}

// TestFrameErrorsTyped: what this package adds to a frame fails with typed
// sentinels too (the frame's own are tested in internal/wire), so callers can
// distinguish them with errors.Is.
func TestFrameErrorsTyped(t *testing.T) {
	short := append(lenPrefix(2), OpGet|frameFlagTrace, 7)
	if _, _, _, err := readFrameTr(bytes.NewReader(short)); !errors.Is(err, wire.ErrBadFrame) {
		t.Fatalf("short traced frame: err=%v, want ErrBadFrame", err)
	}
	if _, err := newBatchReader([]byte{1}); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("truncated batch header: err=%v, want ErrBadBatch", err)
	}
}

// TestGracefulCloseDrainsWaitDurable: Close while a WAITDUR is blocked must
// deliver a complete, well-formed error frame (the client sees the server's
// timed-out response), never a torn or missing reply.
func TestGracefulCloseDrainsWaitDurable(t *testing.T) {
	srv, addr, _ := startServer(t, smallCfg())
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Set([]byte("gk"), []byte("gv")); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		// No committer is running, so this blocks until the server shuts down.
		_, _, err := c.WaitDurable()
		errCh <- err
	}()
	time.Sleep(150 * time.Millisecond)
	srv.Close()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "wait-durable timed out") {
			t.Fatalf("wait-durable during close: %v, want the server's own timed-out reply", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("wait-durable reply never arrived after Close")
	}
}

// TestBatchRedirectOnReplica: a replica serves read-only batches — a Get's
// one-op batch among them — from its installed prefix and redirects any batch
// containing a write, whole, so a Set gets a RedirectError.
func TestBatchRedirectOnReplica(t *testing.T) {
	store, err := faster.Open(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rb := &fakeReplica{store: store, data: map[string]string{"rk": "rv"}}
	srv := NewReplicaServer(rb)
	if _, err := serveAsync(srv, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(srv.Addr().String(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	p := c.Pipeline()
	p.Get([]byte("rk"))
	p.Get([]byte("absent"))
	res, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != StatusOK || string(res[0].Value) != "rv" || res[1].Status != StatusNotFound {
		t.Fatalf("replica read-only batch: %+v", res)
	}
	if v, found, err := c.Get([]byte("rk")); err != nil || !found || string(v) != "rv" {
		t.Fatalf("replica Get: %q found=%v err=%v", v, found, err)
	}
	var re *RedirectError
	if _, err := c.Set([]byte("rk"), []byte("nope")); !errors.As(err, &re) || re.Addr != "primary.example:9" {
		t.Fatalf("Set on replica: %v, want RedirectError to the primary", err)
	}

	p.Get([]byte("rk"))
	p.Set([]byte("rk"), []byte("nope"))
	_, err = p.Flush()
	if !errors.As(err, &re) || re.Addr != "primary.example:9" {
		t.Fatalf("mixed batch on replica: %v, want RedirectError to the primary", err)
	}
}

type fakeReplica struct {
	store *faster.Store
	data  map[string]string
}

func (f *fakeReplica) Read(key []byte) ([]byte, bool, error) {
	v, ok := f.data[string(key)]
	return []byte(v), ok, nil
}
func (f *fakeReplica) RecoveredPoint(string) uint64 { return 0 }
func (f *fakeReplica) Upstream() string             { return "primary.example:9" }
func (f *fakeReplica) Store() *faster.Store         { return f.store }
func (f *fakeReplica) ReplStats() *ReplStats        { return &ReplStats{} }
