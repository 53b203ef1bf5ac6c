package kvserver

import (
	"bytes"
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
