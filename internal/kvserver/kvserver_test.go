package kvserver

import (
	"encoding/binary"
	"os"
	"strconv"
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

// smallCfg honors FASTER_TEST_SHARDS (CI's sharded job) so the whole server
// suite also runs against a partitioned store.
func smallCfg() faster.Config {
	cfg := faster.Config{IndexBuckets: 1 << 8, PageBits: 14, MemPages: 8}
	if v := os.Getenv("FASTER_TEST_SHARDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 1 {
			cfg.Shards = n
			cfg.MemPages = 8 * n
		}
	}
	return cfg
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
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	devs := make([]*storage.MemDevice, shards)
	for i := range devs {
		devs[i] = storage.NewMemDevice()
	}
	if cfg.Shards > 1 {
		cfg.DeviceFactory = func(i int) (storage.Device, error) { return devs[i], nil }
	} else {
		cfg.Device = devs[0]
	}
	cfg.Checkpoints = storage.NewMemCheckpointStore()

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
	store2, err := faster.Recover(cfg)
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
	// One entry per shard at every shard count, each the offsets of its log
	// in region order.
	if len(stats.Shards) != store.NumShards() {
		t.Fatalf("snapshot has %d shard entries, want %d", len(stats.Shards), store.NumShards())
	}
	var tails uint64
	for i, ss := range stats.Shards {
		lg := store.ShardLog(i)
		if ss.Tail != lg.Tail() || ss.Head != lg.Head() || ss.Begin != lg.Begin() {
			t.Fatalf("shard %d: %+v, want tail %d head %d begin %d", i, ss, lg.Tail(), lg.Head(), lg.Begin())
		}
		if !(ss.Begin <= ss.Head && ss.Head <= ss.SafeReadOnly && ss.SafeReadOnly <= ss.ReadOnly && ss.ReadOnly <= ss.Tail) {
			t.Fatalf("shard %d offsets out of region order: %+v", i, ss)
		}
		tails += ss.Tail - ss.Begin
	}
	if tails == 0 {
		t.Fatal("no shard's log holds the write")
	}
}
