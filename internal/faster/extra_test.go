package faster

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// TestTombstoneSurvivesRecovery: deletes committed before the crash must
// still read as NotFound after recovery (tombstone records recover too).
func TestTombstoneSurvivesRecovery(t *testing.T) {
	dev := storage.NewMemDevice()
	ckpts := storage.NewMemCheckpointStore()
	cfg := smallConfig()
	cfg.Device = dev
	cfg.Checkpoints = ckpts
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	id := sess.ID()
	for i := uint64(0); i < 100; i++ {
		sess.Upsert(key(i), u64(i))
	}
	driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
	// Delete evens, then commit again.
	for i := uint64(0); i < 100; i += 2 {
		sess.Delete(key(i))
	}
	driveCommit(t, s, []*Session{sess}, CommitOptions{})
	sess.StopSession()
	s.Close()

	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs, _ := r.ContinueSession(id)
	defer rs.StopSession()
	for i := uint64(0); i < 100; i++ {
		v, st := rs.Read(key(i), func(v []byte, s2 Status) {
			if i%2 == 0 && s2 != NotFound {
				t.Errorf("deleted key %d resurrected: %v", i, s2)
			}
			if i%2 == 1 && (s2 != Ok || binary.LittleEndian.Uint64(v) != i) {
				t.Errorf("key %d lost: %v", i, s2)
			}
		})
		switch st {
		case Pending:
			rs.CompletePending(true)
		case Ok:
			if i%2 == 0 {
				t.Fatalf("deleted key %d returned value %v", i, v)
			}
		case NotFound:
			if i%2 == 1 {
				t.Fatalf("live key %d missing", i)
			}
		}
	}
}

// TestStartSessionDuringCommit: a session starting while a commit is in
// flight waits out the commit (the participant set stays fixed) and then
// operates normally.
func TestStartSessionDuringCommit(t *testing.T) {
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	sess.Upsert(key(1), u64(1))
	token, err := s.Commit(CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var late *Session
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		late = s.StartSession() // must block until the commit finishes
	}()
	awaitCommit(t, s, token, sess)
	wg.Wait()
	if late == nil {
		t.Fatal("late session never started")
	}
	if s.Version() != 2 {
		t.Fatalf("version = %d", s.Version())
	}
	if st := late.Upsert(key(2), u64(2)); st != Ok {
		t.Fatalf("late session upsert: %v", st)
	}
	late.StopSession()
	sess.StopSession()
}

// TestPendingReadAcrossCommit: a read that goes pending (cold record) while
// a commit is running holds its shared latch and completes as a version-v
// request; the commit must not finish before it does.
func TestPendingReadAcrossCommit(t *testing.T) {
	cfg := Config{IndexBuckets: 1 << 8, PageBits: 12, MemPages: 4}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()

	// Fill enough to push early keys to storage.
	for i := uint64(0); i < 3000; i++ {
		sess.Upsert(key(i), u64(i+1))
	}
	sess.CompletePending(true)
	if s.log.InMemory(64) {
		t.Skip("data unexpectedly fits in memory")
	}
	// Issue a cold read, then immediately a commit.
	delivered := false
	_, st := sess.Read(key(0), func(v []byte, s2 Status) {
		delivered = true
		if s2 != Ok || binary.LittleEndian.Uint64(v) != 1 {
			t.Errorf("cold read: %v %v", v, s2)
		}
	})
	if st != Pending {
		t.Skipf("read completed synchronously (%v)", st)
	}
	res := driveCommit(t, s, []*Session{sess}, CommitOptions{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	sess.CompletePending(true)
	if !delivered {
		t.Fatal("pending read never completed")
	}
}

// TestUpsertGrowingValues: an in-place update that no longer fits the
// record's capacity must fall back to read-copy-update transparently.
func TestUpsertGrowingValues(t *testing.T) {
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()

	k := key(9)
	for size := 1; size <= 256; size *= 2 {
		val := make([]byte, size)
		for i := range val {
			val[i] = byte(size)
		}
		if st := sess.Upsert(k, val); st != Ok {
			t.Fatalf("upsert size %d: %v", size, st)
		}
		got, st := sess.Read(k, nil)
		if st != Ok || len(got) != size || got[0] != byte(size) {
			t.Fatalf("read size %d: len=%d st=%v", size, len(got), st)
		}
	}
}

// TestCommitWithNoSessions: a commit on an idle store (no sessions) must
// complete on its own.
func TestCommitWithNoSessions(t *testing.T) {
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	sess.Upsert(key(1), u64(1))
	sess.StopSession()

	token, err := s.Commit(CommitOptions{WithIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	res := s.WaitForCommit(token)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if s.Version() != 2 {
		t.Fatalf("version = %d", s.Version())
	}
}

// TestStopSessionMidCommitUnblocksStateMachine: if a participant stops
// during prepare, the commit must still complete.
func TestStopSessionMidCommitUnblocksStateMachine(t *testing.T) {
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	active := s.StartSession()
	idle := s.StartSession() // never refreshes; will stop mid-commit
	active.Upsert(key(1), u64(1))
	idle.Upsert(key(2), u64(2))

	token, err := s.Commit(CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idle.StopSession() // drops out of the participant set
	// Bounded by wall time, not by a pass count: each pass yields, so the
	// goroutine Machine.Flush starts and the I/O workers it waits on run even
	// on one processor.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if res, ok := s.TryResult(token); ok {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			break
		}
		active.Refresh()
		if time.Now().After(deadline) {
			t.Fatalf("commit stuck in %v after participant left", s.Phase())
		}
		runtime.Gosched()
	}
	active.StopSession()
}
