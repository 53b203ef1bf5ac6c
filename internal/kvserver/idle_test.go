package kvserver

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"repro/internal/faster"
)

// TestIdleSessionReaped covers Server.IdleTimeout: a connection that goes
// quiet past the cap is closed server-side with its FASTER session released,
// the reap is counted, and the client can resume the same logical session by
// reconnecting with its session ID.
func TestIdleSessionReaped(t *testing.T) {
	store, err := faster.Open(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	srv.IdleTimeout = 60 * time.Millisecond
	if _, err := serveAsync(srv, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); store.Close() }()
	addr := srv.Addr().String()

	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Set([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(false); err != nil {
		t.Fatal(err)
	}
	id := c.ID()

	// Go quiet past the idle cap; the server must reap the connection.
	reaps := store.Metrics().Counter("kvserver_idle_reaps_total")
	deadline := time.Now().Add(5 * time.Second)
	for reaps.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle connection never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The client's next call fails against the closed socket...
	var errSeen error
	for i := 0; i < 50 && errSeen == nil; i++ {
		if _, _, err := c.Get([]byte("k")); err != nil {
			errSeen = err
		}
		time.Sleep(5 * time.Millisecond)
	}
	if errSeen == nil {
		t.Fatal("client calls kept succeeding after the server reaped the connection")
	}
	// ...but the logical session survives: reconnecting with the ID resumes it.
	c2, err := Dial(addr, id)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.ID() != id {
		t.Fatalf("resumed session id %q, want %q", c2.ID(), id)
	}
	if val, found, err := c2.Get([]byte("k")); err != nil || !found || !bytes.Equal(val, []byte("v1")) {
		t.Fatalf("resumed session read: %q %v %v", val, found, err)
	}
}

// TestIdleConnectionDoesNotStallWrites: an idle connection's session refreshes
// only every idlePoll, so for most of that time after a snapshot commit its
// view is still of the commit. Another connection's updates of the commit's
// records must not wait for it: right after each commit, an RMW of a hot key
// answers well inside idlePoll, and every increment is kept.
func TestIdleConnectionDoesNotStallWrites(t *testing.T) {
	cfg := smallCfg()
	cfg.Kind = faster.Snapshot
	_, addr, _ := startServer(t, cfg)
	idle, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := idle.Set([]byte("idle"), u64(1)); err != nil { // its session, then quiet
		t.Fatal(err)
	}
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hot := []byte("hot")
	const commits = 9
	var after []time.Duration
	for range commits {
		if _, err := c.RMW(hot, u64(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Commit(false); err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		if _, err := c.RMW(hot, u64(1)); err != nil {
			t.Fatal(err)
		}
		after = append(after, time.Since(t0))
	}
	slices.Sort(after)
	if med := after[commits/2]; med > idlePoll/4 {
		t.Errorf("median RMW right after a commit took %v (idle poll %v): it waited for the idle connection", med, idlePoll)
	}
	val, found, err := c.Get(hot)
	if err != nil || !found {
		t.Fatalf("get: found=%v err=%v", found, err)
	}
	if got := binary.LittleEndian.Uint64(val); got != 2*commits {
		t.Fatalf("counter = %d, want %d", got, 2*commits)
	}
}
