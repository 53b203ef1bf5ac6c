//go:build !race

// testing.AllocsPerRun is meaningless under the race detector's instrumented
// allocator, so this file is excluded there (like kvserver's guards).

package repl

import (
	"testing"

	"repro/internal/faster"
)

// TestShipApplyAllocFree: shipping a megabyte of durable log as opChunk frames
// and applying them on a replica, over an in-memory connection, allocates
// nothing once both sides' buffers are warm. The primary used to allocate
// twice the chunk per frame (a read buffer, then the payload copied from it)
// and the replica a buffer per frame.
func TestShipApplyAllocFree(t *testing.T) {
	primary, err := faster.Open(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	sess := primary.StartSession()
	val := make([]byte, 96)
	for i := uint64(0); primary.ShardLog(0).Tail() < 64+4*chunkSize; i++ {
		if st := sess.Upsert(key(i), val); st != faster.Ok {
			t.Fatalf("upsert %d: %v", i, st)
		}
	}
	commitWait(t, primary, sess)
	sess.StopSession()
	durable := primary.ShardLog(0).Durable()
	chunks := int((durable - 64 + chunkSize - 1) / chunkSize)
	if chunks < 4 {
		t.Fatalf("only %d bytes durable: %d chunks", durable, chunks)
	}

	srv := NewServer(primary)
	rep, _ := idleReplica(t)
	conn := &shipConn{Conn: &pipeConn{}}
	var rbuf []byte
	sent := make([]uint64, 1)
	var bad error
	allocs := testing.AllocsPerRun(10, func() {
		sent[0] = 64
		if _, err := srv.shipTail(conn, sent, 0); err != nil {
			bad = err
		}
		for i := 0; i < chunks; i++ {
			if err := rep.applyNext(conn, &rbuf, nil); err != nil {
				bad = err
			}
		}
	})
	if bad != nil {
		t.Fatalf("ship/apply failed inside guard loop: %v", bad)
	}
	if sent[0] != durable || rep.have[0] != durable {
		t.Fatalf("shipped to %d, staged to %d, durable %d", sent[0], rep.have[0], durable)
	}
	if allocs != 0 {
		t.Fatalf("ship + apply of %d chunks: %.1f allocs, want 0 per chunk", chunks, allocs)
	}
}
