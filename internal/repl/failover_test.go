package repl

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/kvserver"
)

// startKV serves srv on a port the system picks and returns its address once
// bound, so no other listener on the host can take the port in between.
func startKV(t *testing.T, srv *kvserver.Server) string {
	t.Helper()
	served := make(chan error, 1)
	go func() { served <- srv.Serve("127.0.0.1:0") }()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == nil {
		select {
		case err := <-served:
			t.Fatalf("kv server did not start: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("kv server did not start")
		}
		time.Sleep(time.Millisecond)
	}
	return srv.Addr().String()
}

// TestFailoverEndToEnd is the full story over the network: a client writes
// through the primary's kvserver, the replica trails via repl, the primary
// dies, the replica is promoted, and the client reconnects with its session
// ID — learning a prefix-consistent CPR point and resuming writes.
func TestFailoverEndToEnd(t *testing.T) {
	primary, err := faster.Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	kvPrimary := kvserver.NewServer(primary)
	kvAddr := startKV(t, kvPrimary)
	rsrv := NewServer(primary)
	rsrv.ClientAddr = kvAddr
	replAddr := startServer(t, rsrv)

	rep, err := NewReplica(Config{Upstream: replAddr, StoreConfig: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	kvReplica := kvserver.NewReplicaServer(rep)
	kvReplicaAddr := startKV(t, kvReplica)
	defer kvReplica.Close()

	client, err := kvserver.Dial(kvAddr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := uint64(0); i < 30; i++ {
		if _, err := client.RMW([]byte("counter"), u64(1)); err != nil {
			t.Fatal(err)
		}
	}
	committedPoint, err := client.Commit(false)
	if err != nil {
		t.Fatal(err)
	}
	// Ops the primary will lose: never committed.
	for i := uint64(0); i < 7; i++ {
		if _, err := client.RMW([]byte("counter"), u64(1)); err != nil {
			t.Fatal(err)
		}
	}

	// Replica-side serving while trailing: reads come from the committed
	// prefix; writes bounce with the primary's address.
	installDeadline := time.Now().Add(30 * time.Second)
	for {
		val, found, err := rep.Read([]byte("counter"))
		if err != nil {
			t.Fatal(err)
		}
		if found && binary.LittleEndian.Uint64(val) == committedPoint {
			break
		}
		if time.Now().After(installDeadline) {
			t.Fatalf("replica never installed the commit (found=%v)", found)
		}
		time.Sleep(time.Millisecond)
	}
	roClient, err := kvserver.Dial(kvReplicaAddr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer roClient.Close()
	val, found, err := roClient.Get([]byte("counter"))
	if err != nil || !found {
		t.Fatalf("replica get: found=%v err=%v", found, err)
	}
	if got := binary.LittleEndian.Uint64(val); got != committedPoint {
		t.Fatalf("replica serves counter %d, committed prefix is %d", got, committedPoint)
	}
	if _, err := roClient.Set([]byte("x"), []byte("y")); err == nil {
		t.Fatal("replica accepted a write")
	} else {
		var redir *kvserver.RedirectError
		if !errors.As(err, &redir) {
			t.Fatalf("write rejected with %v, want RedirectError", err)
		}
		if redir.Addr != kvAddr {
			t.Fatalf("redirect to %q, want primary %q", redir.Addr, kvAddr)
		}
	}
	snap, err := roClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Repl == nil || snap.Repl.Role != "replica" {
		t.Fatalf("replica stats repl block: %+v", snap.Repl)
	}

	// Primary dies with 7 uncommitted ops in flight.
	kvPrimary.Close()
	rsrv.Close()
	primary.Close()

	promoted, err := rep.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	kvReplica.Promote(promoted)

	// The client reconnects to the promoted replica with its session ID and
	// must learn exactly the committed prefix — the 7 uncommitted ops are
	// gone, which is precisely what CPR promises (replay from the point).
	if err := client.Reconnect(kvReplicaAddr); err != nil {
		t.Fatal(err)
	}
	if got := client.CPRPoint(); got != committedPoint {
		t.Fatalf("recovered CPR point %d, want %d", got, committedPoint)
	}
	val, found, err = client.Get([]byte("counter"))
	if err != nil || !found {
		t.Fatalf("get after failover: found=%v err=%v", found, err)
	}
	if got := binary.LittleEndian.Uint64(val); got != committedPoint {
		t.Fatalf("counter %d after failover, want committed %d", got, committedPoint)
	}

	// Replay the lost suffix and carry on: the promoted store commits.
	// (Reads consume serials too, so track the server-assigned serial rather
	// than predicting it.)
	var lastSerial uint64
	for i := uint64(0); i < 7; i++ {
		if lastSerial, err = client.RMW([]byte("counter"), u64(1)); err != nil {
			t.Fatal(err)
		}
	}
	point, err := client.Commit(false)
	if err != nil {
		t.Fatal(err)
	}
	if point != lastSerial {
		t.Fatalf("post-failover commit point %d, want %d", point, lastSerial)
	}
	val, found, err = client.Get([]byte("counter"))
	if err != nil || !found {
		t.Fatal("get after replay")
	}
	if got := binary.LittleEndian.Uint64(val); got != committedPoint+7 {
		t.Fatalf("counter %d after replay, want %d", got, committedPoint+7)
	}

	// The promoted server reports its new role.
	if err := roClient.Reconnect(""); err != nil {
		t.Fatal(err)
	}
	snap, err = roClient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Repl == nil || snap.Repl.Role != "primary" {
		t.Fatalf("promoted stats repl block: %+v", snap.Repl)
	}
}
