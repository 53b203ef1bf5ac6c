package faster

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The two tests in this file pin the install contract: a record reaches the
// index only by a compare-and-swap against the slot word the decision to write
// it was made on. Both failed before that held — a session (or the compactor)
// re-loaded the slot after allocating and so linked its record behind one it
// had never seen.

// TestSharedKeyRMWUnderCommits: two sessions increment the same 64 counters
// while commits run. Every commit makes each counter's next update a
// read-copy-update (fold-over moves the read-only offset to the tail; every
// commit hands version-v records off to v+1), so the two sessions keep meeting
// in the window between reading a counter and publishing its successor. No
// crash is involved: the live store must hold exactly the acknowledged sum.
func TestSharedKeyRMWUnderCommits(t *testing.T) {
	for _, transfer := range []VersionTransfer{FineGrained, CoarseGrained} {
		for _, kind := range []CommitKind{FoldOver, Snapshot} {
			t.Run(fmt.Sprintf("%v/%v", transfer, kind), func(t *testing.T) {
				sharedKeyRMWUnderCommits(t, transfer, kind)
			})
		}
	}
}

func sharedKeyRMWUnderCommits(t *testing.T, transfer VersionTransfer, kind CommitKind) {
	const (
		keys     = 64
		sessions = 2
		runFor   = 600 * time.Millisecond
	)
	s, err := Open(Config{Shards: testShardCount(1), Transfer: transfer, Kind: kind})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var stopWorkers atomic.Bool
	var acked atomic.Uint64
	var workers sync.WaitGroup
	for w := 0; w < sessions; w++ {
		sess := s.StartSession()
		workers.Add(1)
		go func() {
			defer workers.Done()
			defer sess.StopSession()
			one := u64(1)
			n := uint64(0)
			for k := uint64(0); !stopWorkers.Load(); k++ {
				if st := sess.RMW(key(k%keys), one); st == Error {
					t.Errorf("RMW(%d): %v", k%keys, st)
					return
				}
				if n++; n%64 == 0 {
					sess.CompletePending(true)
				}
			}
			sess.CompletePending(true)
			acked.Add(n)
		}()
	}

	// The committer stops first: a commit only advances while sessions refresh.
	stopCommits := make(chan struct{})
	committed := make(chan int)
	go func() {
		n := 0
		defer func() { committed <- n }()
		for {
			select {
			case <-stopCommits:
				return
			case <-time.After(5 * time.Millisecond):
			}
			token, err := s.Commit(CommitOptions{})
			if err != nil {
				t.Errorf("commit: %v", err)
				return
			}
			if res := s.WaitForCommit(token); res.Err != nil {
				t.Errorf("commit %s: %v", token, res.Err)
				return
			}
			n++
		}
	}()
	time.Sleep(runFor)
	close(stopCommits)
	commits := <-committed
	stopWorkers.Store(true)
	workers.Wait()

	reader := s.StartSession()
	defer reader.StopSession()
	var sum uint64
	for k := uint64(0); k < keys; k++ {
		if v, ok := readVal(t, reader, k); ok {
			sum += binary.LittleEndian.Uint64(v)
		}
	}
	if want := acked.Load(); sum != want {
		t.Fatalf("counters sum to %d after %d acknowledged increments over %d commits: %d lost",
			sum, want, commits, int64(want)-int64(sum))
	}
}

// TestCompactLogRacesWriter: one session overwrites 4 096 keys round after
// round, each with a larger value than before, while another compacts the
// read-only prefix in a loop. Compaction copies a record it found live to the
// tail; if the writer installs a newer value in between, the copy must lose —
// not land ahead of it and bring the overwritten value back. On several shards
// (FASTER_TEST_SHARDS) the two sessions also turn pages on all of them at once,
// which deadlocked while every shard had its own epoch table: a session waiting
// in hlog.ensureFrame on one shard refreshed only its entry there. A store has
// one table now and a waiting session refreshes the only entry it holds, so
// the class is gone by construction; the test keeps it that way.
func TestCompactLogRacesWriter(t *testing.T) {
	const (
		keys   = 4096
		runFor = 1500 * time.Millisecond
	)
	n := testShardCount(1)
	s, err := Open(Config{Shards: n, IndexBuckets: 1 << 8, PageBits: 12, MemPages: 6 * n})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var stop atomic.Bool
	var done sync.WaitGroup
	last := make([]uint64, keys) // written by the writer only, read after it stops
	writer := s.StartSession()
	done.Add(1)
	go func() {
		defer done.Done()
		defer writer.StopSession()
		for round := uint64(1); !stop.Load(); round++ {
			for k := uint64(0); k < keys; k++ {
				if st := writer.Upsert(key(k), u64(round)); st == Error {
					t.Errorf("upsert %d: %v", k, st)
					return
				}
				last[k] = round
			}
			writer.CompletePending(true)
		}
	}()
	compactor := s.StartSession()
	done.Add(1)
	compactions := 0
	go func() {
		defer done.Done()
		defer compactor.StopSession()
		for !stop.Load() {
			compactor.Refresh()
			if err := compactor.CompactLog(s.Log().SafeReadOnly()); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
			compactions++
		}
	}()
	time.Sleep(runFor)
	stop.Store(true)
	done.Wait()

	reader := s.StartSession()
	defer reader.StopSession()
	stale := 0
	for k := uint64(0); k < keys; k++ {
		if v, ok := readVal(t, reader, k); !ok || binary.LittleEndian.Uint64(v) != last[k] {
			if stale++; stale <= 5 {
				t.Errorf("key %d reads %x (found %v), last written %d", k, v, ok, last[k])
			}
		}
	}
	if stale > 0 {
		t.Fatalf("%d of %d keys read an overwritten value after %d compactions", stale, keys, compactions)
	}
}
