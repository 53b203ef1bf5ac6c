package faster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func key(k uint64) []byte { return u64(k) }

// onePartition runs f as the subtest "shards=1". Tests that ran once per
// partition count when the store was partitioned keep the name of the run
// that is left: a store is one index and one log.
func onePartition(t *testing.T, f func(*testing.T)) { t.Run("shards=1", f) }

func smallConfig() Config {
	return Config{
		IndexBuckets: 1 << 10,
		PageBits:     14,
		MemPages:     8,
	}
}

// driveCommit runs a commit to completion while keeping every session in
// sessions refreshing (the paper's model: threads continuously process).
func driveCommit(t *testing.T, s *Store, sessions []*Session, opts CommitOptions) CommitResult {
	t.Helper()
	token, err := s.Commit(opts)
	if err != nil {
		t.Fatal(err)
	}
	return awaitCommit(t, s, token, sessions...)
}

// awaitCommit waits for the commit token to complete while every session in
// sessions refreshes and completes its parked operations, and fails the test
// if it completed with an error. Bounded by wall time, not by a pass count:
// each pass yields, so the goroutine Machine.Flush starts and the I/O workers
// it waits on run even on one processor.
func awaitCommit(t *testing.T, s *Store, token string, sessions ...*Session) CommitResult {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if res, ok := s.TryResult(token); ok {
			if res.Err != nil {
				t.Fatalf("commit failed: %v", res.Err)
			}
			return res
		}
		for _, sess := range sessions {
			sess.Refresh()
			sess.CompletePending(false)
		}
		if time.Now().After(deadline) {
			t.Fatalf("commit %s stuck in phase %v", token, s.Phase())
		}
		runtime.Gosched()
	}
}

// awaitRest refreshes sess until the store is back at rest, bounded like
// awaitCommit.
func awaitRest(t *testing.T, s *Store, sess *Session) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); s.Phase() != Rest; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("store stuck in phase %v", s.Phase())
		}
		sess.Refresh()
	}
}

// readVal drives one read to completion and reports (value, found).
func readVal(t *testing.T, sess *Session, k uint64) ([]byte, bool) {
	t.Helper()
	var got []byte
	var found, done bool
	_, st := sess.Read(key(k), func(v []byte, s2 Status) {
		done = true
		if s2 == Ok {
			got, found = append([]byte(nil), v...), true
		} else if s2 != NotFound {
			t.Fatalf("read key %d: status %v", k, s2)
		}
	})
	if st == Pending {
		sess.CompletePending(true)
	}
	if !done {
		t.Fatalf("read key %d never completed", k)
	}
	return got, found
}

// checkImage asserts the store serves exactly the expected post-recovery
// values: every live key its newest committed value, every tombstoned key
// absent.
func checkImage(t *testing.T, label string, s *Store, want map[uint64]uint64, gone map[uint64]bool) {
	t.Helper()
	sess := s.StartSession()
	defer sess.StopSession()
	for k, v := range want {
		got, found := readVal(t, sess, k)
		if !found || !bytes.Equal(got, u64(v)) {
			t.Fatalf("%s: key %d: got (%x,%v), want %d", label, k, got, found, v)
		}
	}
	for k := range gone {
		if got, found := readVal(t, sess, k); found {
			t.Fatalf("%s: tombstoned key %d resurrected with %x", label, k, got)
		}
	}
}

func TestUpsertReadSingleSession(t *testing.T) {
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()

	if st := sess.Upsert(key(1), u64(100)); st != Ok {
		t.Fatalf("upsert: %v", st)
	}
	val, st := sess.Read(key(1), nil)
	if st != Ok || binary.LittleEndian.Uint64(val) != 100 {
		t.Fatalf("read: %v %v", val, st)
	}
	if _, st := sess.Read(key(2), nil); st != NotFound {
		t.Fatalf("missing key status: %v", st)
	}
}

func TestRMWCreatesAndUpdates(t *testing.T) {
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()

	for i := 0; i < 10; i++ {
		if st := sess.RMW(key(7), u64(3)); st != Ok {
			t.Fatalf("rmw %d: %v", i, st)
		}
	}
	val, st := sess.Read(key(7), nil)
	if st != Ok || binary.LittleEndian.Uint64(val) != 30 {
		t.Fatalf("rmw sum = %v (%v), want 30", val, st)
	}
}

func TestDeleteAndTombstone(t *testing.T) {
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()

	sess.Upsert(key(5), u64(55))
	if st := sess.Delete(key(5)); st != Ok {
		t.Fatalf("delete: %v", st)
	}
	if _, st := sess.Read(key(5), nil); st != NotFound {
		t.Fatalf("read after delete: %v", st)
	}
	// Re-insert after delete.
	if st := sess.Upsert(key(5), u64(56)); st != Ok {
		t.Fatalf("re-upsert: %v", st)
	}
	val, st := sess.Read(key(5), nil)
	if st != Ok || binary.LittleEndian.Uint64(val) != 56 {
		t.Fatalf("read after re-upsert: %v %v", val, st)
	}
}

func TestManyKeysChains(t *testing.T) {
	cfg := smallConfig()
	cfg.IndexBuckets = 1 << 4 // force long chains and tag sharing
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()

	const n = 5000
	for i := uint64(0); i < n; i++ {
		if st := sess.Upsert(key(i), u64(i*2)); st != Ok {
			t.Fatalf("upsert %d: %v", i, st)
		}
	}
	sess.CompletePending(true)
	for i := uint64(0); i < n; i++ {
		want := i * 2
		got := uint64(0)
		found := false
		val, st := sess.Read(key(i), func(v []byte, s2 Status) {
			if s2 == Ok {
				got, found = binary.LittleEndian.Uint64(v), true
			}
		})
		if st == Ok {
			got, found = binary.LittleEndian.Uint64(val), true
		} else if st == Pending {
			sess.CompletePending(true)
		}
		if !found || got != want {
			t.Fatalf("read %d = %d found=%v (%v), want %d", i, got, found, st, want)
		}
	}
}

func TestLargerThanMemoryReads(t *testing.T) {
	cfg := smallConfig()
	cfg.PageBits = 12
	cfg.MemPages = 4
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()

	const n = 3000 // 3000*32B = 96 KB >> 16 KB memory
	for i := uint64(0); i < n; i++ {
		if st := sess.Upsert(key(i), u64(i+1)); st != Ok {
			t.Fatalf("upsert %d: %v", i, st)
		}
	}
	// Early keys must now be on storage; reads go pending and complete.
	okCount := 0
	for i := uint64(0); i < 50; i++ {
		want := i + 1
		_, st := sess.Read(key(i), func(v []byte, s2 Status) {
			if s2 == Ok && binary.LittleEndian.Uint64(v) == want {
				okCount++
			} else {
				t.Errorf("key %d: cb %v %v", i, v, s2)
			}
		})
		if st == Ok {
			okCount++
		} else if st != Pending {
			t.Fatalf("read %d: %v", i, st)
		}
	}
	sess.CompletePending(true)
	if okCount < 50 {
		t.Fatalf("completed %d of 50 cold reads", okCount)
	}
}

func TestRMWOnColdRecord(t *testing.T) {
	cfg := smallConfig()
	cfg.PageBits = 12
	cfg.MemPages = 4
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()

	sess.RMW(key(1), u64(10))
	// Push key 1 out of memory.
	for i := uint64(100); i < 3100; i++ {
		sess.Upsert(key(i), u64(i))
	}
	if s.log.InMemory(64) {
		t.Skip("first record unexpectedly still in memory")
	}
	st := sess.RMW(key(1), u64(5))
	if st == Pending {
		sess.CompletePending(true)
	} else if st != Ok {
		t.Fatalf("cold rmw: %v", st)
	}
	var got uint64
	_, rst := sess.Read(key(1), func(v []byte, s2 Status) {
		if s2 == Ok {
			got = binary.LittleEndian.Uint64(v)
		}
	})
	if rst == Ok {
		// value delivered synchronously via callback too
	} else {
		sess.CompletePending(true)
	}
	if got != 15 {
		// The read may have completed synchronously; re-read.
		v, rst2 := sess.Read(key(1), nil)
		if rst2 == Ok {
			got = binary.LittleEndian.Uint64(v)
		} else {
			sess.CompletePending(true)
		}
	}
	if got != 15 {
		t.Fatalf("cold rmw sum = %d, want 15", got)
	}
}

func TestCommitAndRecoverFoldOver(t *testing.T) { testCommitAndRecover(t, FoldOver, FineGrained) }
func TestCommitAndRecoverSnapshot(t *testing.T) { testCommitAndRecover(t, Snapshot, FineGrained) }
func TestCommitAndRecoverCoarse(t *testing.T)   { testCommitAndRecover(t, FoldOver, CoarseGrained) }

func testCommitAndRecover(t *testing.T, kind CommitKind, transfer VersionTransfer) {
	dev := storage.NewMemDevice()
	ckpts := storage.NewMemCheckpointStore()
	cfg := smallConfig()
	cfg.Device = dev
	cfg.Checkpoints = ckpts
	cfg.Kind = kind
	cfg.Transfer = transfer
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	id := sess.ID()

	const n = 1000
	for i := uint64(0); i < n; i++ {
		if st := sess.Upsert(key(i), u64(i+7)); st != Ok {
			t.Fatalf("upsert %d: %v", i, st)
		}
	}
	res := driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
	if res.Serials[id] != n {
		t.Fatalf("CPR point = %d, want %d", res.Serials[id], n)
	}
	// Post-commit operations are NOT in the commit.
	for i := uint64(0); i < 100; i++ {
		sess.Upsert(key(i), u64(999999))
	}
	sess.StopSession()
	s.Close()

	// "Crash": recover from the same device + checkpoint store.
	cfg2 := smallConfig()
	cfg2.Device = dev
	cfg2.Checkpoints = ckpts
	cfg2.Kind = kind
	cfg2.Transfer = transfer
	r, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs, serial := r.ContinueSession(id)
	defer rs.StopSession()
	if serial != n {
		t.Fatalf("recovered CPR point = %d, want %d", serial, n)
	}
	for i := uint64(0); i < n; i++ {
		want := i + 7
		v, st := rs.Read(key(i), func(v []byte, s2 Status) {
			if s2 != Ok || binary.LittleEndian.Uint64(v) != want {
				t.Errorf("key %d: recovered %v (%v), want %d", i, v, s2, want)
			}
		})
		switch st {
		case Ok:
			if binary.LittleEndian.Uint64(v) != want {
				t.Fatalf("key %d: recovered %d, want %d (post-commit leak?)", i, binary.LittleEndian.Uint64(v), want)
			}
		case Pending:
			rs.CompletePending(true)
		default:
			t.Fatalf("key %d: %v", i, st)
		}
	}
}

func TestRecoveryDropsUncommittedSuffix(t *testing.T) {
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

	sess.Upsert(key(1), u64(10))
	driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
	// v2 operations, never committed.
	sess.Upsert(key(1), u64(20))
	sess.Upsert(key(2), u64(30))
	// Force the uncommitted records onto the device via a log flush (as if
	// pages were evicted before the crash).
	s.log.ShiftReadOnlyTo(s.log.Tail())
	sess.Refresh()
	s.log.WaitDurable(s.log.Tail())
	sess.StopSession()
	s.Close()

	cfg2 := smallConfig()
	cfg2.Device = dev
	cfg2.Checkpoints = ckpts
	r, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs, serial := r.ContinueSession(id)
	defer rs.StopSession()
	if serial != 1 {
		t.Fatalf("CPR point = %d, want 1", serial)
	}
	v, st := rs.Read(key(1), nil)
	if st != Ok || binary.LittleEndian.Uint64(v) != 10 {
		t.Fatalf("key 1 = %v (%v), want 10 (uncommitted 20 must be gone)", v, st)
	}
	if _, st := rs.Read(key(2), nil); st != NotFound {
		t.Fatalf("key 2 should not have been recovered: %v", st)
	}
}

func TestConcurrentSessionsCPRPrefix(t *testing.T) {
	for _, transfer := range []VersionTransfer{FineGrained, CoarseGrained} {
		transfer := transfer
		t.Run(transfer.String(), func(t *testing.T) {
			dev := storage.NewMemDevice()
			ckpts := storage.NewMemCheckpointStore()
			cfg := Config{IndexBuckets: 1 << 12, PageBits: 16, MemPages: 16,
				Device: dev, Checkpoints: ckpts, Transfer: transfer}
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}

			const sessions = 4
			const opsEach = 5000
			ids := make([]string, sessions)
			var wg sync.WaitGroup
			var commitWG sync.WaitGroup
			tokenCh := make(chan string, 1)
			for si := 0; si < sessions; si++ {
				si := si
				sess := s.StartSession()
				ids[si] = sess.ID()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := uint64(1); i <= opsEach; i++ {
						// Key encodes (session, serial); value is the serial.
						k := key(uint64(si)<<32 | i)
						for sess.Upsert(k, u64(i)) == Pending {
							sess.CompletePending(true)
						}
					}
					sess.CompletePending(true)
					// Keep refreshing until the commit completes so the
					// state machine can advance past our session.
					tok := <-tokenCh
					tokenCh <- tok
					// A pass yields, so the flush runs on one processor; t.Fatal
					// cannot end the test from this goroutine, so the test
					// binary's timeout bounds the wait.
					for {
						if _, ok := s.TryResult(tok); ok {
							break
						}
						sess.Refresh()
						sess.CompletePending(false)
						runtime.Gosched()
					}
					sess.StopSession()
				}()
			}
			commitWG.Add(1)
			var res CommitResult
			go func() {
				defer commitWG.Done()
				token, err := s.Commit(CommitOptions{WithIndex: true})
				if err != nil {
					t.Error(err)
					return
				}
				tokenCh <- token
				res = s.WaitForCommit(token)
			}()
			wg.Wait()
			commitWG.Wait()
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			s.Close()

			// Recover and check exact prefix semantics per session.
			r, err := Open(Config{IndexBuckets: 1 << 12, PageBits: 16, MemPages: 16,
				Device: dev, Checkpoints: ckpts, Transfer: transfer})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for si := 0; si < sessions; si++ {
				rs, cpr := r.ContinueSession(ids[si])
				if got := res.Serials[ids[si]]; got != cpr {
					t.Fatalf("session %d: recovered point %d != commit point %d", si, cpr, got)
				}
				// Every op with serial <= cpr must be present...
				for i := uint64(1); i <= cpr; i++ {
					k := key(uint64(si)<<32 | i)
					v, st := rs.Read(k, func(v []byte, s2 Status) {
						if s2 != Ok || binary.LittleEndian.Uint64(v) != i {
							t.Errorf("session %d op %d missing from commit (st=%v)", si, i, s2)
						}
					})
					if st == Ok && binary.LittleEndian.Uint64(v) != i {
						t.Fatalf("session %d op %d value %d", si, i, binary.LittleEndian.Uint64(v))
					}
					if st == Pending {
						rs.CompletePending(true)
					} else if st != Ok {
						t.Fatalf("session %d op %d: st=%v, want present", si, i, st)
					}
				}
				// ...and every op after it absent.
				for i := cpr + 1; i <= opsEach; i++ {
					k := key(uint64(si)<<32 | i)
					_, st := rs.Read(k, func(_ []byte, s2 Status) {
						if s2 != NotFound {
							t.Errorf("session %d op %d beyond CPR point leaked in", si, i)
						}
					})
					if st == Pending {
						rs.CompletePending(true)
					} else if st != NotFound {
						t.Fatalf("session %d op %d beyond CPR point present (st=%v)", si, i, st)
					}
				}
				rs.StopSession()
			}
		})
	}
}

func TestLogOnlyCommitRecovery(t *testing.T) {
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

	sess.Upsert(key(1), u64(1))
	driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
	sess.Upsert(key(2), u64(2))
	driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: false})
	sess.Upsert(key(3), u64(3))
	driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: false})
	sess.StopSession()
	s.Close()

	cfg2 := smallConfig()
	cfg2.Device = dev
	cfg2.Checkpoints = ckpts
	r, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs, serial := r.ContinueSession(id)
	defer rs.StopSession()
	if serial != 3 {
		t.Fatalf("CPR point = %d, want 3", serial)
	}
	for i := uint64(1); i <= 3; i++ {
		v, st := rs.Read(key(i), nil)
		if st == Pending {
			rs.CompletePending(true)
			continue
		}
		if st != Ok || binary.LittleEndian.Uint64(v) != i {
			t.Fatalf("key %d = %v (%v)", i, v, st)
		}
	}
}

func TestMultipleSequentialCommits(t *testing.T) {
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()

	for c := 0; c < 5; c++ {
		for i := uint64(0); i < 200; i++ {
			sess.RMW(key(i), u64(1))
		}
		res := driveCommit(t, s, []*Session{sess}, CommitOptions{})
		if res.Version != uint32(c+1) {
			t.Fatalf("commit %d at version %d", c, res.Version)
		}
	}
	if s.Version() != 6 {
		t.Fatalf("final version = %d, want 6", s.Version())
	}
	// Values must reflect all 5 rounds of RMW+1.
	v, st := sess.Read(key(0), nil)
	if st == Pending {
		sess.CompletePending(true)
	} else if st != Ok || binary.LittleEndian.Uint64(v) != 5 {
		t.Fatalf("key 0 = %v (%v), want 5", v, st)
	}
}

func TestCommitWhileCommitInProgress(t *testing.T) {
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	sess.Upsert(key(1), u64(1))
	token, err := s.Commit(CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(CommitOptions{}); err != ErrCommitInProgress {
		t.Fatalf("second commit err = %v, want ErrCommitInProgress", err)
	}
	awaitCommit(t, s, token, sess)
}

func TestIndexFindOrCreateConcurrent(t *testing.T) {
	idx, err := newIndex(1 << 4)
	if err != nil {
		t.Fatal(err)
	}
	const threads = 8
	const keys = 2000
	slots := make([][]*uint64, threads)
	var wg sync.WaitGroup
	for ti := 0; ti < threads; ti++ {
		ti := ti
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				h := uint64(i)*2654435761 + 12345
				s, _ := idx.probe(h, tagOf(h)|uint64(64+8*i))
				if s == nil {
					t.Errorf("nil slot for %d", i)
					return
				}
				_ = ti
			}
			slots[ti] = nil
		}()
	}
	wg.Wait()
	// Every hash must resolve to exactly one slot now.
	for i := 0; i < keys; i++ {
		h := uint64(i)*2654435761 + 12345
		if _, e := idx.probe(h, 0); e == 0 {
			t.Fatalf("hash %d has no slot after concurrent inserts", i)
		}
	}
}

func TestBucketLatches(t *testing.T) {
	idx, err := newIndex(1 << 4)
	if err != nil {
		t.Fatal(err)
	}
	h := uint64(42)
	if !idx.trySharedLatch(h) {
		t.Fatal("shared latch failed on idle bucket")
	}
	if !idx.trySharedLatch(h) {
		t.Fatal("second shared latch failed")
	}
	if idx.sharedCount(h) != 2 {
		t.Fatalf("shared count = %d", idx.sharedCount(h))
	}
	if idx.tryExclusiveLatch(h) {
		t.Fatal("exclusive latch acquired while shared held")
	}
	idx.releaseSharedLatch(h)
	idx.releaseSharedLatch(h)
	if !idx.tryExclusiveLatch(h) {
		t.Fatal("exclusive latch failed on idle bucket")
	}
	if idx.trySharedLatch(h) {
		t.Fatal("shared latch acquired while exclusive held")
	}
	idx.releaseExclusiveLatch(h)
	if !idx.trySharedLatch(h) {
		t.Fatal("shared latch failed after exclusive release")
	}
	idx.releaseSharedLatch(h)
}

func TestIndexCheckpointRoundTrip(t *testing.T) {
	idx, err := newIndex(1 << 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		h := uint64(i) * 0x9E3779B97F4A7C15
		idx.probe(h, tagOf(h)|uint64(64+i*32))
	}
	store := storage.NewMemCheckpointStore()
	if _, err := storage.WriteArtifactStream(store, "idx", idx.writeImage, nil, 0); err != nil {
		t.Fatal(err)
	}
	var idx2 *index
	if err := storage.ReadArtifactStream(store, "idx", func(r io.Reader, n int64) (err error) {
		idx2, err = decodeIndex(r, n)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		h := uint64(i) * 0x9E3779B97F4A7C15
		_, e1 := idx.probe(h, 0)
		_, e2 := idx2.probe(h, 0)
		if e1 == 0 || e2 == 0 {
			t.Fatalf("key %d missing after round trip", i)
		}
		if entryAddr(e1) != entryAddr(e2) {
			t.Fatalf("key %d addr %d != %d", i, entryAddr(e1), entryAddr(e2))
		}
	}
}

func TestPhaseStrings(t *testing.T) {
	want := map[Phase]string{Rest: "rest", Prepare: "prepare", InProgress: "in-progress",
		WaitPending: "wait-pending", WaitFlush: "wait-flush"}
	for p, w := range want {
		if p.String() != w {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), w)
		}
	}
	if FoldOver.String() != "fold-over" || Snapshot.String() != "snapshot" {
		t.Error("CommitKind strings wrong")
	}
	if FineGrained.String() != "fine" || CoarseGrained.String() != "coarse" {
		t.Error("VersionTransfer strings wrong")
	}
}

func TestVersionHelpers(t *testing.T) {
	sh := new(Store)
	sh.futureFrom[1].Store(4096) // commit 1's log_start
	sh.futureFrom[0].Store(8192) // commit 8192's
	for _, c := range []struct {
		recVer uint16
		addr   uint64
		v      uint32
		want   bool
	}{
		{recVersion(2), 4096, 1, true},
		{recVersion(1), 4096, 1, false},
		{recVersion(2), 4088, 1, false},      // below log_start: 8192·k commits older
		{recVersion(8192), 8192, 8191, true}, // 8191+1 wraps to 0 in 13 bits (bound: slot 1)
		{recVersion(8193), 8192, 8192, true}, // 8192+1 to 1 (bound: slot 0)
		{recVersion(1), 8184, 8192, false},   // a version-1 record below commit 8192's log_start
	} {
		if got := sh.isFuture(c.recVer, c.addr, c.v); got != c.want {
			t.Errorf("isFuture(version %d at %d, commit %d) = %v, want %v", c.recVer, c.addr, c.v, got, c.want)
		}
	}
}

func TestStateMachinePhasesObserved(t *testing.T) {
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	sess.Upsert(key(1), u64(1))

	if s.Phase() != Rest {
		t.Fatalf("initial phase %v", s.Phase())
	}
	token, err := s.Commit(CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Phase() != Prepare {
		t.Fatalf("phase after Commit = %v, want prepare", s.Phase())
	}
	seen := map[Phase]bool{}
	for deadline := time.Now().Add(30 * time.Second); ; runtime.Gosched() { // bounded like awaitCommit
		seen[s.Phase()] = true
		if _, ok := s.TryResult(token); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("commit %s stuck in phase %v", token, s.Phase())
		}
		sess.Refresh()
	}
	if !seen[Prepare] {
		t.Error("never observed prepare")
	}
	if s.Phase() != Rest || s.Version() != 2 {
		t.Fatalf("final state %v v%d", s.Phase(), s.Version())
	}
}

func TestFmtAppease(t *testing.T) { _ = fmt.Sprintf } // keep fmt import used if tests shrink
