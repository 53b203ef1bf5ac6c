//go:build !race

package faster

import (
	"bytes"
	"testing"
)

// TestRestoreWarmHotPathAllocFree guards the instant-restore operation gate:
// once a bucket is warm, the per-op cost of an active restore must be a single
// atomic bitmap load — zero allocations. The restore state is installed by
// hand (analysis done, buckets cold) so the warm/cold transition is
// deterministic; the first read warms the bucket on demand, the steady-state
// reads after it must not allocate. CI runs this with the other AllocFree
// guards (no race detector — it instruments allocations).
func TestRestoreWarmHotPathAllocFree(t *testing.T) {
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	kb := key(7)
	if st := sess.Upsert(kb, u64(77)); st != Ok {
		t.Fatalf("seed upsert: %v", st)
	}

	sh := s.shards[0]
	rs := newRestoreState(sh, "tok", 1, 0, 0)
	rs.analyzed = true // analysis done, every bucket still cold
	sh.restore.Store(rs)
	defer sh.restore.Store(nil)

	// First touch warms the bucket (allocates the one-time bookkeeping).
	if _, st := sess.Read(kb, func(v []byte, st Status) {
		if st != Ok || !bytes.Equal(v, u64(77)) {
			t.Errorf("warming read: %v %x", st, v)
		}
	}); st != Ok {
		t.Fatalf("warming read status: %v", st)
	}
	if rs.ondemandWarms.Load() != 1 {
		t.Fatalf("bucket not warmed on demand: %d", rs.ondemandWarms.Load())
	}

	allocs := testing.AllocsPerRun(300, func() {
		if _, st := sess.Read(kb, nil); st != Ok {
			t.Fatalf("hot read status: %v", st)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm-bucket read allocates %.1f times per op, want 0", allocs)
	}
	if got := rs.blockedOps.Load(); got != 1 {
		t.Fatalf("steady-state reads hit the slow path: %d blocked ops", got)
	}
}
