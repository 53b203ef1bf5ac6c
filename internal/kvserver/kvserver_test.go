package kvserver

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/storage"
)

func startServer(t testing.TB, cfg faster.Config) (*Server, string, *faster.Store) {
	t.Helper()
	store, err := faster.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	ready := make(chan struct{})
	go func() {
		ln, err := serveAsync(srv, "127.0.0.1:0")
		if err != nil {
			t.Error(err)
		}
		_ = ln
		close(ready)
	}()
	<-ready
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() { srv.Close(); store.Close() })
	return srv, srv.Addr().String(), store
}

// serveAsync starts Serve in a goroutine and waits for the listener.
func serveAsync(srv *Server, addr string) (struct{}, error) {
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(addr) }()
	for srv.Addr() == nil {
		select {
		case err := <-errCh:
			return struct{}{}, err
		default:
			time.Sleep(time.Millisecond)
		}
	}
	return struct{}{}, nil
}

// smallCfg is the store the server suite runs against.
func smallCfg() faster.Config {
	return faster.Config{IndexBuckets: 1 << 8, PageBits: 14, MemPages: 8}
}

func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func TestSetGetDelete(t *testing.T) {
	_, addr, _ := startServer(t, smallCfg())
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	serial, err := c.Set([]byte("name"), []byte("faster"))
	if err != nil || serial != 1 {
		t.Fatalf("set: serial=%d err=%v", serial, err)
	}
	val, found, err := c.Get([]byte("name"))
	if err != nil || !found || string(val) != "faster" {
		t.Fatalf("get: %q %v %v", val, found, err)
	}
	if _, found, _ = c.Get([]byte("missing")); found {
		t.Fatal("missing key found")
	}
	if _, err := c.Delete([]byte("name")); err != nil {
		t.Fatal(err)
	}
	if _, found, _ = c.Get([]byte("name")); found {
		t.Fatal("deleted key still found")
	}
}

// TestEmptyKeyIsAnErrorReply: the wire takes a zero-length key, and the store
// cannot hold one. A SET or RMW of it gets StatusError and the connection
// stays up; before, the store panicked inside the handler and took the server
// process down.
func TestEmptyKeyIsAnErrorReply(t *testing.T) {
	_, addr, _ := startServer(t, smallCfg())
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Set(nil, []byte("v")); err == nil {
		t.Fatal("SET of an empty key succeeded")
	}
	if _, err := c.RMW([]byte{}, u64(1)); err == nil {
		t.Fatal("RMW of an empty key succeeded")
	}
	if _, err := c.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("SET after the refused ones: %v", err)
	}
	if val, found, err := c.Get([]byte("k")); err != nil || !found || string(val) != "v" {
		t.Fatalf("GET after the refused ones: %q %v %v", val, found, err)
	}
}

func TestRMWOverNetwork(t *testing.T) {
	_, addr, _ := startServer(t, smallCfg())
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		if _, err := c.RMW([]byte("ctr"), u64(3)); err != nil {
			t.Fatal(err)
		}
	}
	val, found, err := c.Get([]byte("ctr"))
	if err != nil || !found {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(val); got != 30 {
		t.Fatalf("counter = %d, want 30", got)
	}
}

func TestCommitReturnsCPRPoint(t *testing.T) {
	_, addr, _ := startServer(t, smallCfg())
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 25; i++ {
		if _, err := c.Set(u64(uint64(i)), u64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	point, err := c.Commit(true)
	if err != nil {
		t.Fatal(err)
	}
	if point != 25 {
		t.Fatalf("CPR point = %d, want 25", point)
	}
}

// waitPhase polls until the store's machine is in phase p.
func waitPhase(t *testing.T, store *faster.Store, p faster.Phase) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); store.Phase() != p; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("store stuck in phase %v, waiting for %v", store.Phase(), p)
		}
	}
}

// TestCommitJoiningUncoveringCommit: a COMMIT that joins a commit in flight in
// which its session already demarcated — at serial 1, before its ops 2 and 3 —
// is not covered by that commit. Its reply never names a point above the
// session's committed serial, nor above the point recovery hands the session
// back: a client trims its replay buffer at that point.
func TestCommitJoiningUncoveringCommit(t *testing.T) {
	cfg := smallCfg()
	cfg.Device, cfg.Checkpoints = storage.NewMemDevice(), storage.NewMemCheckpointStore()
	srv, addr, store := startServer(t, cfg)
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Set([]byte("k1"), u64(1)); err != nil {
		t.Fatal(err)
	}
	// A session of the test's own holds the commit open between its refreshes.
	blocker := store.StartSession()
	if _, err := store.Commit(faster.CommitOptions{}); err != nil {
		t.Fatal(err)
	}
	blocker.Refresh()
	waitPhase(t, store, faster.InProgress) // the connection's idle poll acknowledged prepare too
	// A BATCH refreshes its session before its ops: the connection's session
	// demarcates at serial 1, then issues ops 2 and 3.
	p := c.Pipeline()
	p.Set([]byte("k2"), u64(1))
	p.Set([]byte("k3"), u64(1))
	if res, err := p.Flush(); err != nil || res[1].Serial != 3 {
		t.Fatalf("flush: %+v, %v", res, err)
	}
	type reply struct {
		point uint64
		err   error
	}
	// Every frame a Client sends is traced, so the server records each
	// request's queue time as it takes the request up.
	taken := func() uint64 { return store.Metrics().Snapshot().Histograms["faster_op_queue_ns"].Count }
	before := taken()
	replied := make(chan reply, 1)
	go func() {
		point, err := c.Commit(false)
		replied <- reply{point, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); taken() == before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the server never took the COMMIT up")
		}
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				blocker.StopSession()
				return
			default:
				blocker.Refresh()
				blocker.CompletePending(false)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	var r reply
	select {
	case r = <-replied:
	case <-time.After(20 * time.Second):
		t.Fatal("no COMMIT reply")
	}
	close(stop)
	<-stopped
	if r.err != nil {
		t.Fatal(r.err)
	}
	var committed uint64
	for _, l := range store.SessionLags() {
		if l.ID == c.ID() {
			committed = l.CommittedSerial
		}
	}
	if r.point > committed {
		t.Fatalf("COMMIT replied point %d, above the session's committed serial %d", r.point, committed)
	}
	waitPhase(t, store, faster.Rest)
	c.Close()
	srv.Close()
	store.Close()
	store2, err := faster.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	sess, recovered := store2.ContinueSession(c.ID())
	defer sess.StopSession()
	if r.point > recovered {
		t.Fatalf("COMMIT replied point %d, above the %d recovery hands the session back", r.point, recovered)
	}
}

// TestServeAfterClose: Serve on a closed server returns net.ErrClosed at once
// instead of binding a port and accepting on it.
func TestServeAfterClose(t *testing.T) {
	store, err := faster.Open(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := NewServer(store)
	srv.Close()
	served := make(chan error, 1)
	go func() { served <- srv.Serve("127.0.0.1:0") }()
	select {
	case err := <-served:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve after Close: %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve after Close still accepting after 2 s")
	}
}

// TestCloseEndsCommitWait: Close returns promptly while a COMMIT waits on a
// commit that a session which never refreshes holds in prepare, and the
// COMMIT gets a whole error reply.
func TestCloseEndsCommitWait(t *testing.T) {
	srv, addr, store := startServer(t, smallCfg())
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Set([]byte("k"), u64(1)); err != nil {
		t.Fatal(err)
	}
	blocker := store.StartSession() // a participant of every commit from here on
	replied := make(chan error, 1)
	go func() {
		_, err := c.Commit(false)
		replied <- err
	}()
	waitPhase(t, store, faster.Prepare) // the COMMIT started its commit
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		blocker.StopSession() // let the commit through, so that Close can return
		<-closed
		t.Fatal("Close did not return within 2 s while a COMMIT waited on a held commit")
	}
	blocker.StopSession()
	select {
	case err := <-replied:
		if err == nil {
			t.Fatal("COMMIT replied OK for a commit that never finished")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no COMMIT reply")
	}
	waitPhase(t, store, faster.Rest)
}

func TestConcurrentClients(t *testing.T) {
	_, addr, _ := startServer(t, smallCfg())
	const clients = 4
	const ops = 200
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, "")
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for n := 0; n < ops; n++ {
				key := u64(uint64(i)<<32 | uint64(n))
				if _, err := c.Set(key, u64(uint64(n))); err != nil {
					t.Error(err)
					return
				}
			}
			// Verify own writes.
			for n := 0; n < ops; n += 17 {
				key := u64(uint64(i)<<32 | uint64(n))
				val, found, err := c.Get(key)
				if err != nil || !found || binary.LittleEndian.Uint64(val) != uint64(n) {
					t.Errorf("client %d key %d: %v %v %v", i, n, val, found, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestServerRestartResumeSession(t *testing.T) {
	cfg := smallCfg()
	cfg.Device, cfg.Checkpoints = storage.NewMemDevice(), storage.NewMemCheckpointStore()

	srv, addr, store := startServer(t, cfg)
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	id := c.ID()
	for i := 0; i < 50; i++ {
		if _, err := c.Set(u64(uint64(i)), u64(uint64(i)+7)); err != nil {
			t.Fatal(err)
		}
	}
	point, err := c.Commit(true)
	if err != nil || point != 50 {
		t.Fatalf("commit: point=%d err=%v", point, err)
	}
	// Uncommitted operations, then crash the server.
	for i := 0; i < 10; i++ {
		c.Set(u64(uint64(i)), u64(9999)) //nolint:errcheck
	}
	c.Close()
	srv.Close()
	store.Close()

	// Restart: recover the store, serve again, reconnect with the same ID.
	store2, err := faster.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(store2)
	if _, err := serveAsync(srv2, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() { srv2.Close(); store2.Close() }()

	c2, err := Dial(srv2.Addr().String(), id)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.CPRPoint() != 50 {
		t.Fatalf("recovered CPR point = %d, want 50", c2.CPRPoint())
	}
	val, found, err := c2.Get(u64(3))
	if err != nil || !found {
		t.Fatalf("get after restart: %v %v", found, err)
	}
	if got := binary.LittleEndian.Uint64(val); got != 10 {
		t.Fatalf("key 3 = %d, want 10 (uncommitted 9999 must be gone)", got)
	}
}

func TestAutoCommit(t *testing.T) {
	store, err := faster.Open(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	srv.AutoCommit = 30 * time.Millisecond
	if _, err := serveAsync(srv, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); store.Close() }()

	c, err := Dial(srv.Addr().String(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Set([]byte("k"), []byte("v")) //nolint:errcheck
	// The idle-connection refresh must let auto-commits finish: version
	// should advance within a few intervals.
	deadline := time.Now().Add(3 * time.Second)
	for store.Version() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("auto-commit stalled at version %d", store.Version())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStats(t *testing.T) {
	_, addr, store := startServer(t, smallCfg())
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.V != StatsVersion {
		t.Fatalf("schema version = %d, want %d", stats.V, StatsVersion)
	}
	if stats.Version != 1 || stats.Phase != "rest" {
		t.Fatalf("version=%d phase=%q, want 1/rest", stats.Version, stats.Phase)
	}
	if stats.Sessions != 1 {
		t.Fatalf("sessions = %d, want 1", stats.Sessions)
	}
	if got := stats.Metrics.Counters["faster_upserts_total"]; got != 1 {
		t.Fatalf("faster_upserts_total = %d, want 1", got)
	}
	// The log's offsets, in region order.
	ls, lg := stats.Log, store.Log()
	if ls.Tail != lg.Tail() || ls.Head != lg.Head() || ls.Begin != lg.Begin() {
		t.Fatalf("log offsets %+v, want tail %d head %d begin %d", ls, lg.Tail(), lg.Head(), lg.Begin())
	}
	if !(ls.Begin <= ls.Head && ls.Head <= ls.SafeReadOnly && ls.SafeReadOnly <= ls.ReadOnly && ls.ReadOnly <= ls.Tail) {
		t.Fatalf("log offsets out of region order: %+v", ls)
	}
	if ls.Tail == ls.Begin {
		t.Fatal("the log does not hold the write")
	}
}
