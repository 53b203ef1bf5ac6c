package faster

import (
	"encoding/binary"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
)

// coldStore opens a single-shard store over a file device whose log is much
// larger than its 128 KiB of page frames, keys 0..n-1 holding u64(k).
func coldStore(t testing.TB, n uint64) (*Store, *Session) {
	t.Helper()
	dev, err := storage.OpenFileDevice(filepath.Join(t.TempDir(), "log.dat"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.IndexBuckets = 1 << 14
	cfg.Device = dev
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	for k := uint64(0); k < n; k++ {
		if st := sess.Upsert(key(k), u64(k)); st == Pending {
			sess.CompletePending(true)
		}
	}
	t.Cleanup(func() { sess.StopSession(); s.Close(); dev.Close() })
	return s, sess
}

// TestReadValueIsCallerOwned: outside batch mode the value a read returns, or
// hands to its callback, belongs to the caller — the session's next 100
// operations (which reuse the op record and the session's buffers) leave it
// alone. Checked for a hot read and for a cold one completed later.
func TestReadValueIsCallerOwned(t *testing.T) {
	_, sess := coldStore(t, 20000)
	var kept [][]byte
	var want []uint64
	keep := func(k uint64) func([]byte, Status) {
		return func(v []byte, st Status) {
			if st != Ok {
				t.Errorf("read %d: %v", k, st)
			}
			kept, want = append(kept, v), append(want, k)
		}
	}
	if _, st := sess.Read(key(3), keep(3)); st != Pending { // cold: callback only
		t.Fatalf("read of an evicted key: %v, want pending", st)
	}
	sess.CompletePending(true)
	v, st := sess.Read(key(19999), keep(19999)) // hot: callback and return value
	if st != Ok {
		t.Fatalf("hot read: %v", st)
	}
	kept, want = append(kept, v), append(want, 19999)
	if len(kept) != 3 {
		t.Fatalf("%d values delivered, want 3", len(kept))
	}
	for i := uint64(0); i < 100; i++ {
		k := 100 + 50*i // hot and cold keys
		switch i % 3 {
		case 0:
			sess.Read(key(k), nil)
		case 1:
			sess.RMW(key(k), u64(7))
		case 2:
			sess.Upsert(key(k), u64(1<<40+i))
		}
		sess.CompletePending(true)
	}
	for i, v := range kept {
		if len(v) != 8 || binary.LittleEndian.Uint64(v) != want[i] {
			t.Fatalf("retained value %d overwritten: %x, want %d", i, v, want[i])
		}
	}
}

// TestBatchColdReadsInOneCompletePending: in batch mode a read's value aliases
// the session's scratch buffer, also for cold reads that a single
// CompletePending completes back to back. Each callback must be handed its own
// key's value while it runs — kvserver and inlog copy it there.
func TestBatchColdReadsInOneCompletePending(t *testing.T) {
	_, sess := coldStore(t, 20000)
	sess.BeginBatch()
	defer sess.EndBatch()
	const reads = 8
	got := map[uint64]uint64{}
	for k := uint64(1); k <= reads; k++ {
		_, st := sess.Read(key(k), func(v []byte, st Status) {
			if st != Ok || len(v) != 8 {
				t.Errorf("read %d: %v, %d bytes", k, st, len(v))
				return
			}
			got[k] = binary.LittleEndian.Uint64(append([]byte(nil), v...))
		})
		if st != Pending {
			t.Fatalf("read of evicted key %d: %v, want pending", k, st)
		}
	}
	sess.CompletePending(true)
	for k := uint64(1); k <= reads; k++ {
		if v, ok := got[k]; !ok || v != k {
			t.Errorf("callback for key %d: ran %v, value %d", k, ok, v)
		}
	}
}

// TestWatermarkNeverBehindVisibleResult is the regression test for publishing
// a commit's result before advancing the session watermarks: whoever sees
// TryResult report a commit done must also see CommittedSerial and
// CommittedToken cover it. One goroutine owns the session and runs
// back-to-back commits; the other hammers TryResult.
func TestWatermarkNeverBehindVisibleResult(t *testing.T) {
	for _, shards := range []int{1, testShardCount(2)} {
		s, err := Open(Config{Shards: shards, IndexBuckets: 1 << 10, PageBits: 14, MemPages: 8 * shards,
			Metrics: obs.NewNop()})
		if err != nil {
			t.Fatal(err)
		}
		sess := s.StartSession()
		check := func(who string, res CommitResult) {
			if res.Err != nil {
				t.Errorf("commit %s: %v", res.Token, res.Err)
				return
			}
			if got, want := sess.CommittedSerial(), res.Serials[sess.ID()]; got < want {
				t.Errorf("%s sees %s done at serial %d, but CommittedSerial is still %d", who, res.Token, want, got)
			}
			if got := sess.CommittedToken(); got < res.Token { // tokens sort by commit order
				t.Errorf("%s sees %s done, but CommittedToken is still %q", who, res.Token, got)
			}
		}
		var current atomic.Pointer[string]
		stop := make(chan struct{})
		var poller sync.WaitGroup
		poller.Add(1)
		go func() {
			defer poller.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if tok := current.Load(); tok != nil {
					if res, ok := s.TryResult(*tok); ok {
						check("poller", res)
					}
				}
			}
		}()
		for i := uint64(0); i < 100 && !t.Failed(); i++ {
			for k := uint64(0); k < 8; k++ {
				sess.Upsert(key(i*8+k), u64(i))
			}
			token, err := s.Commit(CommitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			current.Store(&token)
			for {
				if res, ok := s.TryResult(token); ok {
					check("owner", res)
					break
				}
				sess.Refresh()
				sess.CompletePending(false)
			}
		}
		close(stop)
		poller.Wait()
		sess.StopSession()
		s.Close()
	}
}

// TestHookRegistrationRacesCommits registers commit hooks and attachments
// while commits complete; under -race it fails if the checkpoint goroutine
// reads hook state without the lock registration writes it under.
func TestHookRegistrationRacesCommits(t *testing.T) {
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	var fired atomic.Int64
	var reg sync.WaitGroup
	reg.Add(1)
	go func() {
		defer reg.Done()
		for i := 0; i < 50; i++ {
			s.OnCommit(func(CommitResult) { fired.Add(1) })
			s.OnCommitArtifact(func(CommitResult) (string, []byte, error) { return "", nil, nil })
		}
	}()
	for i := uint64(0); i < 20; i++ {
		sess.Upsert(key(i), u64(i))
		driveCommit(t, s, []*Session{sess}, CommitOptions{})
	}
	reg.Wait()
	last := make(chan struct{}, 1)
	s.OnCommit(func(CommitResult) { last <- struct{}{} }) // hooks fire in registration order
	sess.Upsert(key(99), u64(99))
	driveCommit(t, s, []*Session{sess}, CommitOptions{})
	<-last
	if fired.Load() < 50 {
		t.Fatalf("50 hooks registered, %d calls after a commit that followed all of them", fired.Load())
	}
}
