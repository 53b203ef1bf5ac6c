package repl

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wire"
)

// testConfig is a store of eight 16 KiB pages, two of them read-only.
func testConfig() faster.Config {
	return faster.Config{
		IndexBuckets: 1 << 10,
		PageBits:     14,
		MemPages:     8,
		Device:       storage.NewMemDevice(),
		Checkpoints:  storage.NewMemCheckpointStore(),
	}
}

func key(i uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, i)
	return b
}

func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// startServer serves a repl.Server on a loopback port of the system's choosing
// and returns its address.
func startServer(t *testing.T, srv *Server) string {
	t.Helper()
	served := make(chan error, 1)
	go func() { served <- srv.Serve("127.0.0.1:0") }()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == nil {
		select {
		case err := <-served:
			t.Fatalf("repl server did not start: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("repl server did not start")
		}
		time.Sleep(time.Millisecond)
	}
	return srv.Addr().String()
}

// TestServeAfterClose: Serve on a closed server returns net.ErrClosed at once
// instead of binding a port and accepting on it.
func TestServeAfterClose(t *testing.T) {
	primary, err := faster.Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv := NewServer(primary)
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

// commitWait runs a commit to completion, driving phases via sess.
func commitWait(t *testing.T, s *faster.Store, sess *faster.Session) faster.CommitResult {
	t.Helper()
	return commitWith(t, s, sess, faster.CommitOptions{})
}

// commitWith runs a commit with opts to completion, driving phases via sess.
func commitWith(t *testing.T, s *faster.Store, sess *faster.Session, opts faster.CommitOptions) faster.CommitResult {
	t.Helper()
	token, err := s.Commit(opts)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if res, ok := s.TryResult(token); ok {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			return res
		}
		if time.Now().After(deadline) {
			t.Fatalf("commit %s did not finish", token)
		}
		sess.Refresh()
		time.Sleep(time.Millisecond)
	}
}

// waitApplied blocks until the replica has installed version v.
func waitApplied(t *testing.T, r *Replica, v uint32) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for r.ReplStats().AppliedVersion < v {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at version %d, want %d", r.ReplStats().AppliedVersion, v)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicationBasic: committed writes become readable on the replica;
// uncommitted writes never do.
func TestReplicationBasic(t *testing.T) {
	primary, err := faster.Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv := NewServer(primary)
	addr := startServer(t, srv)
	defer srv.Close()

	rep, err := NewReplica(Config{Upstream: addr, StoreConfig: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	defer rep.Store().Close()

	sess := primary.StartSession()
	defer sess.StopSession()
	const n = 500
	for i := uint64(0); i < n; i++ {
		if st := sess.Upsert(key(i), u64(i*3)); st != faster.Ok {
			t.Fatalf("upsert %d: %v", i, st)
		}
	}
	res := commitWait(t, primary, sess)
	waitApplied(t, rep, uint32(res.Version))

	for i := uint64(0); i < n; i++ {
		val, found, err := rep.Read(key(i))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !found {
			t.Fatalf("key %d missing on replica", i)
		}
		if got := binary.LittleEndian.Uint64(val); got != i*3 {
			t.Fatalf("key %d = %d, want %d", i, got, i*3)
		}
	}

	// Uncommitted writes must stay invisible, no matter how long we wait.
	sess.Upsert(key(n+1), u64(1))
	time.Sleep(300 * time.Millisecond)
	if _, found, _ := rep.Read(key(n + 1)); found {
		t.Fatal("uncommitted key visible on replica")
	}
	// Deletes replicate too.
	sess.Delete(key(0))
	res = commitWait(t, primary, sess)
	waitApplied(t, rep, uint32(res.Version))
	if _, found, _ := rep.Read(key(0)); found {
		t.Fatal("deleted key still visible on replica")
	}
	if _, found, _ := rep.Read(key(n + 1)); !found {
		t.Fatal("committed key missing on replica")
	}
}

// TestReplicaPrefixConsistency is the cross-machine CPR contract: sessions
// hammer per-session RMW counters on the primary while commits run; at every
// instant, each counter the replica serves equals that session's recovered
// CPR point — i.e. the replica's state is exactly a committed prefix of each
// session's operation sequence, never a torn middle.
func TestReplicaPrefixConsistency(t *testing.T) {
	primary, err := faster.Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv := NewServer(primary)
	addr := startServer(t, srv)
	defer srv.Close()

	rep, err := NewReplica(Config{Upstream: addr, StoreConfig: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	defer rep.Store().Close()

	const writers = 4
	stopWrites := make(chan struct{})
	exit := make(chan struct{})
	var wg sync.WaitGroup
	ids := make([]string, writers)
	var ready sync.WaitGroup
	ready.Add(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := primary.StartSession()
			defer sess.StopSession()
			ids[w] = sess.ID()
			ready.Done()
			// Each op adds 1 to this session's counter, so after op k the
			// counter is exactly k — and serial is exactly k. A committed
			// prefix of length p therefore shows counter == p == CPR point.
			k := key(uint64(1000 + w))
			for {
				select {
				case <-stopWrites:
					// Stay live (a stopped session has no point in later
					// commits) so the settle commit demarcates our final
					// serial, but issue no more writes. Keep draining
					// pending ops: the commit waits for them.
					for {
						select {
						case <-exit:
							return
						default:
						}
						sess.CompletePending(false)
						sess.Refresh()
						time.Sleep(time.Millisecond)
					}
				default:
				}
				if st := sess.RMW(k, u64(1)); st != faster.Ok && st != faster.Pending {
					t.Errorf("writer %d: rmw status %v", w, st)
					return
				}
				sess.Refresh()
			}
		}(w)
	}
	ready.Wait()

	// Check the invariant continuously while writes, commits and installs
	// all race each other.
	checkStop := make(chan struct{})
	checkDone := make(chan struct{})
	var checked atomic.Int64
	go func() {
		defer close(checkDone)
		for {
			select {
			case <-checkStop:
				return
			default:
			}
			for w := 0; w < writers; w++ {
				p1 := rep.RecoveredPoint(ids[w])
				val, found, err := rep.Read(key(uint64(1000 + w)))
				if err != nil {
					t.Errorf("replica read: %v", err)
					return
				}
				p2 := rep.RecoveredPoint(ids[w])
				if p1 != p2 {
					continue // an install landed mid-check; retry
				}
				var got uint64
				if found {
					got = binary.LittleEndian.Uint64(val)
				}
				if got != p1 {
					t.Errorf("writer %d: replica counter %d but recovered CPR point %d — not a committed prefix", w, got, p1)
					return
				}
				checked.Add(1)
			}
		}
	}()

	committer := primary.StartSession()
	defer committer.StopSession()
	for round := 0; round < 5; round++ {
		time.Sleep(20 * time.Millisecond)
		commitWait(t, primary, committer)
	}
	close(stopWrites)
	close(checkStop)
	<-checkDone
	if t.Failed() {
		t.FailNow()
	}
	if checked.Load() == 0 {
		t.Fatal("no prefix checks landed")
	}

	// Settle: a final commit after writes stop must converge exactly (the
	// writers' sessions are still live, so they demarcate their final
	// serials).
	res := commitWait(t, primary, committer)
	waitApplied(t, rep, uint32(res.Version))
	for w := 0; w < writers; w++ {
		val, found, err := rep.Read(key(uint64(1000 + w)))
		if err != nil || !found {
			t.Fatalf("writer %d counter missing: %v", w, err)
		}
		got := binary.LittleEndian.Uint64(val)
		want := rep.RecoveredPoint(ids[w])
		if got != want {
			t.Fatalf("writer %d: settled counter %d, CPR point %d", w, got, want)
		}
	}
	close(exit)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

// TestReplicaPrimaryDiesMidShip kills the primary's replication server while
// a commit's artifacts are mid-flight. The replica must stay at the last
// fully-shipped commit — a half-received commit never becomes visible.
func TestReplicaPrimaryDiesMidShip(t *testing.T) {
	cfg := testConfig()
	slow := storage.NewMemDevice()
	cfg.Device = slow
	primary, err := faster.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv := NewServer(primary)
	addr := startServer(t, srv)

	rep, err := NewReplica(Config{Upstream: addr, StoreConfig: testConfig(), ReconnectEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	defer rep.Store().Close()

	sess := primary.StartSession()
	defer sess.StopSession()
	for i := uint64(0); i < 100; i++ {
		sess.Upsert(key(i), u64(1))
	}
	res := commitWait(t, primary, sess)
	firstVersion := uint32(res.Version)
	waitApplied(t, rep, firstVersion)

	// Second batch: overwrite everything, then kill the replication server
	// the moment the commit completes — before the replica can have received
	// the full announcement for most runs (and regardless, the invariant
	// below holds either way).
	for i := uint64(0); i < 100; i++ {
		sess.Upsert(key(i), u64(2))
	}
	token, err := primary.Commit(faster.CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close() // primary "dies" mid-ship
	for {
		if _, ok := primary.TryResult(token); ok {
			break
		}
		sess.Refresh()
		time.Sleep(time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)

	// The replica either fully installed the second commit (it squeaked
	// through) or still serves exactly the first one — never a mix.
	applied := rep.ReplStats().AppliedVersion
	var want uint64
	switch {
	case applied == firstVersion:
		want = 1
	case applied > firstVersion:
		want = 2
	default:
		t.Fatalf("replica regressed to version %d", applied)
	}
	for i := uint64(0); i < 100; i++ {
		val, found, err := rep.Read(key(i))
		if err != nil || !found {
			t.Fatalf("key %d missing: %v", i, err)
		}
		if got := binary.LittleEndian.Uint64(val); got != want {
			t.Fatalf("key %d = %d, want %d (applied version %d): torn commit visible", i, got, want, applied)
		}
	}
}

// TestReplicaRestartResumes restarts a replica from its persisted device and
// checkpoint store: it recovers its installed prefix locally, reconnects,
// and catches up.
func TestReplicaRestartResumes(t *testing.T) {
	primary, err := faster.Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv := NewServer(primary)
	addr := startServer(t, srv)
	defer srv.Close()

	// The replica's device and checkpoint store survive the "restart".
	repCfg := testConfig()
	dev := storage.NewMemDevice()
	cps := storage.NewMemCheckpointStore()
	repCfg.Device = dev
	repCfg.Checkpoints = cps

	rep, err := NewReplica(Config{Upstream: addr, StoreConfig: repCfg})
	if err != nil {
		t.Fatal(err)
	}
	sess := primary.StartSession()
	defer sess.StopSession()
	for i := uint64(0); i < 50; i++ {
		sess.Upsert(key(i), u64(i))
	}
	res := commitWait(t, primary, sess)
	waitApplied(t, rep, uint32(res.Version))
	rep.Close()
	rep.Store().Close()

	// More committed writes while the replica is down.
	for i := uint64(50); i < 100; i++ {
		sess.Upsert(key(i), u64(i))
	}
	res = commitWait(t, primary, sess)

	rep2, err := NewReplica(Config{Upstream: addr, StoreConfig: repCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()
	defer rep2.Store().Close()
	if got := rep2.ReplStats().AppliedVersion; got == 0 {
		t.Fatal("restarted replica lost its installed prefix")
	}
	waitApplied(t, rep2, uint32(res.Version))
	for i := uint64(0); i < 100; i++ {
		val, found, err := rep2.Read(key(i))
		if err != nil || !found {
			t.Fatalf("key %d missing after restart: %v", i, err)
		}
		if got := binary.LittleEndian.Uint64(val); got != i {
			t.Fatalf("key %d = %d, want %d", i, got, i)
		}
	}
}

// TestReplicaPromote promotes a replica and verifies it is writable with the
// committed prefix intact, including session CPR points.
func TestReplicaPromote(t *testing.T) {
	primary, err := faster.Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv := NewServer(primary)
	addr := startServer(t, srv)
	defer srv.Close()

	rep, err := NewReplica(Config{Upstream: addr, StoreConfig: testConfig()})
	if err != nil {
		t.Fatal(err)
	}

	sess := primary.StartSession()
	for i := uint64(0); i < 20; i++ {
		sess.RMW(key(7), u64(1))
	}
	res := commitWait(t, primary, sess)
	committedPoint := sess.Serial()
	// A few more ops that will NOT be committed before the "failure".
	for i := uint64(0); i < 5; i++ {
		sess.RMW(key(7), u64(1))
	}
	id := sess.ID()
	sess.StopSession()
	waitApplied(t, rep, uint32(res.Version))

	promoted, err := rep.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	if rep.ReplStats().Role != "primary" {
		t.Fatalf("role = %q after promote", rep.ReplStats().Role)
	}

	// The resumed session learns the committed prefix as its CPR point.
	psess, point := promoted.ContinueSession(id)
	if point != committedPoint {
		t.Fatalf("promoted CPR point %d, want committed prefix %d", point, committedPoint)
	}
	val, st := psess.Read(key(7), nil)
	if st != faster.Ok {
		t.Fatalf("read after promote: %v", st)
	}
	got := binary.LittleEndian.Uint64(val)
	if got != committedPoint {
		t.Fatalf("counter %d after promote, want %d (uncommitted ops leaked)", got, committedPoint)
	}

	// The promoted store is writable and committable.
	for i := uint64(0); i < 3; i++ {
		if st := psess.RMW(key(7), u64(1)); st != faster.Ok && st != faster.Pending {
			t.Fatalf("write after promote: %v", st)
		}
	}
	res = commitWait(t, promoted, psess)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	psess.StopSession()
}

// TestReplicaLagObservable: bytes/versions-behind move while a replica
// trails a throttled primary.
func TestReplicaLagObservable(t *testing.T) {
	primary, err := faster.Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv := NewServer(primary)
	addr := startServer(t, srv)
	defer srv.Close()

	rep, err := NewReplica(Config{Upstream: addr, StoreConfig: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	defer rep.Store().Close()

	sess := primary.StartSession()
	defer sess.StopSession()
	payload := make([]byte, 512)
	for i := uint64(0); i < 2000; i++ {
		sess.Upsert(key(i), payload)
	}
	res := commitWait(t, primary, sess)
	waitApplied(t, rep, uint32(res.Version))
	st := rep.ReplStats()
	if st.Role != "replica" {
		t.Fatalf("role = %q", st.Role)
	}
	if st.AppliedVersion != uint32(res.Version) {
		t.Fatalf("applied %d, want %d", st.AppliedVersion, res.Version)
	}
	if st.VersionsBehind != 0 {
		t.Fatalf("versions behind = %d after catch-up", st.VersionsBehind)
	}
	if got := rep.Store().Metrics().Snapshot().Counters["repl_received_log_bytes_total"]; got == 0 {
		t.Fatal("repl_received_log_bytes_total never moved")
	}
}

// TestServerShardMismatch: a replica of the partitioned store — its hello
// carries a shard count — is rejected cleanly instead of receiving garbage.
func TestServerShardMismatch(t *testing.T) {
	primary, err := faster.Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv := NewServer(primary)
	addr := startServer(t, srv)
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := wire.AppendU32(wire.Open(nil, opHello), 0)
	hello = wire.AppendU32(hello, 1) // a shard count
	hello = wire.AppendU64(hello, 64)
	if _, err := conn.Write(wire.Seal(hello)); err != nil {
		t.Fatal(err)
	}
	var rbuf []byte
	op, payload, err := wire.Read(conn, &rbuf)
	if err != nil {
		t.Fatal(err)
	}
	if op != opError {
		t.Fatalf("opcode %d, want opError", op)
	}
	msg, _, _ := wire.TakeString(payload)
	if len(msg) == 0 {
		t.Fatal("empty error message")
	}
}

// TestReplShipGlobalSpans: every shipped commit leaves repl-ship and
// commit-announced events in the primary's flight recorder, which a trace dump
// shows as repl-ship and repl-announce global spans keyed by the commit token;
// and the replwait decomposition histogram fills in.
func TestReplShipGlobalSpans(t *testing.T) {
	cfg := testConfig()
	cfg.ReqTrace = obs.NewRequestTracer(16)
	cfg.Flight = obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	primary, err := faster.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv := NewServer(primary)
	addr := startServer(t, srv)
	defer srv.Close()

	rep, err := NewReplica(Config{Upstream: addr, StoreConfig: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	defer rep.Store().Close()

	sess := primary.StartSession()
	defer sess.StopSession()
	for i := uint64(0); i < 64; i++ {
		sess.Upsert(key(i), u64(i))
	}
	res := commitWait(t, primary, sess)
	waitApplied(t, rep, uint32(res.Version))

	deadline := time.Now().Add(10 * time.Second)
	for {
		spans := primary.RequestTracer().Dump(0, primary.Flight()).Global
		var ship, ann bool
		for _, sp := range spans {
			if sp.Token != res.Token {
				continue
			}
			switch sp.Kind {
			case obs.SpanReplShip:
				ship = true
			case obs.SpanReplAnnounce:
				ann = true
			}
			if sp.EndUnixNanos < sp.StartUnixNanos || sp.StartUnixNanos < primary.Flight().WallStart() {
				t.Fatalf("span %+v inverted, or from before the recorder started", sp)
			}
		}
		if ship && ann {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no ship+announce spans for token %s (have %d global spans)", res.Token, len(spans))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if primary.Metrics().Histogram("faster_op_replwait_ns").Count() == 0 {
		t.Fatal("replwait histogram never observed")
	}
}
