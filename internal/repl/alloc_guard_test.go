//go:build !race

// testing.AllocsPerRun is meaningless under the race detector's instrumented
// allocator, so this file is excluded there (like kvserver's guards).

package repl

import (
	"testing"

	"repro/internal/faster"
	"repro/internal/storage"
)

// TestShipApplyAllocFree: shipping a megabyte of durable log as opChunk frames
// and applying them on a replica, over an in-memory connection, allocates
// nothing once both sides' buffers are warm. The primary used to allocate
// twice the chunk per frame (a read buffer, then the payload copied from it)
// and the replica a buffer per frame.
func TestShipApplyAllocFree(t *testing.T) {
	primary, err := faster.Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	sess := primary.StartSession()
	val := make([]byte, 96)
	for i := uint64(0); primary.Log().Tail() < 64+4*chunkSize; i++ {
		if st := sess.Upsert(key(i), val); st != faster.Ok {
			t.Fatalf("upsert %d: %v", i, st)
		}
	}
	commitWait(t, primary, sess)
	sess.StopSession()
	durable := primary.Log().Durable()
	chunks := int((durable - 64 + chunkSize - 1) / chunkSize)
	if chunks < 4 {
		t.Fatalf("only %d bytes durable: %d chunks", durable, chunks)
	}

	srv := NewServer(primary)
	rep := idleReplica(t, storage.NewMemCheckpointStore())
	conn := &shipConn{Conn: &pipeConn{}}
	var rbuf []byte
	var sent uint64
	var bad error
	allocs := testing.AllocsPerRun(10, func() {
		sent = 64
		if err := srv.shipTail(conn, &sent); err != nil {
			bad = err
		}
		for i := 0; i < chunks; i++ {
			if err := rep.applyNext(conn, &rbuf); err != nil {
				bad = err
			}
		}
	})
	if bad != nil {
		t.Fatalf("ship/apply failed inside guard loop: %v", bad)
	}
	if sent != durable || rep.have != durable {
		t.Fatalf("shipped to %d, staged to %d, durable %d", sent, rep.have, durable)
	}
	if allocs != 0 {
		t.Fatalf("ship + apply of %d chunks: %.1f allocs, want 0 per chunk", chunks, allocs)
	}
}
