package faster

import (
	"encoding/binary"
	"path/filepath"
	"runtime"
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

// TestReadValueValidUntilNextOp pins the one value-lifetime rule: the value a
// read returns, or hands to its callback, is the session's own buffer — right
// when handed over and untouched until that session's next call (for a
// callback: until it returns), whatever other sessions and the I/O workers do
// meanwhile. Hot, read-only and cold records; a second session reads the same
// keys throughout, so under -race a buffer shared across sessions or still
// written by a worker is a reported race.
func TestReadValueValidUntilNextOp(t *testing.T) { onePartition(t, readValueValidUntilNextOp) }

func readValueValidUntilNextOp(t *testing.T) {
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	n := uint64(20000) // 128 KiB of frames hold 4096 of these
	for k := uint64(0); k < n; k++ {
		if st := sess.Upsert(key(k), u64(k)); st == Pending {
			sess.CompletePending(true)
		}
	}
	driveCommit(t, s, []*Session{sess}, CommitOptions{}) // fold-over: what is in memory is read-only
	hot := n
	sess.Upsert(key(hot), u64(hot))

	stop := make(chan struct{})
	var other sync.WaitGroup
	other.Add(1)
	go func() {
		defer other.Done()
		o := s.StartSession()
		defer o.StopSession()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			o.Read(key(hot-i%8), nil)
			o.Read(key(i%512), nil)
			if i%16 == 15 {
				o.CompletePending(true)
			}
		}
	}()
	defer other.Wait()
	defer close(stop)

	check := func(what string, k uint64, v []byte) {
		t.Helper()
		if len(v) != 8 || binary.LittleEndian.Uint64(v) != k {
			t.Errorf("%s, key %d: value %x", what, k, v)
		}
	}
	for round := uint64(0); round < 200 && !t.Failed(); round++ {
		for _, c := range []struct {
			region string
			k      uint64
			cold   bool
		}{{"hot", hot, false}, {"read-only", n - 1 - round, false}, {"cold", 3 + round, true}} {
			delivered := 0
			v, st := sess.Read(key(c.k), func(v []byte, st Status) {
				delivered++
				if st != Ok {
					t.Errorf("%s read of key %d: callback status %v", c.region, c.k, st)
				}
				check(c.region+" callback value", c.k, v)
				runtime.Gosched() // let the other session and the workers run
				check(c.region+" callback value before returning", c.k, v)
			})
			if c.cold {
				if st != Pending {
					t.Fatalf("read of evicted key %d: %v, want pending", c.k, st)
				}
				sess.CompletePending(true)
			} else {
				if st != Ok {
					t.Fatalf("%s read of key %d: %v", c.region, c.k, st)
				}
				check(c.region+" returned value", c.k, v)
				runtime.Gosched()
				check(c.region+" returned value before the next call", c.k, v)
			}
			if delivered != 1 {
				t.Fatalf("%s read of key %d: callback ran %d times", c.region, c.k, delivered)
			}
		}
	}
}

// TestColdReadsInOneCompletePending: a read's value aliases the session's
// scratch buffer, also for cold reads that a single CompletePending completes
// back to back (and that went to the I/O pool as one run). Each callback must
// be handed its own key's value while it runs — kvserver and inlog copy it
// there.
func TestColdReadsInOneCompletePending(t *testing.T) {
	_, sess := coldStore(t, 20000)
	const reads = 40 // two full runs of storage.RunLen and a partial one
	got := map[uint64]uint64{}
	for k := uint64(1); k <= reads; k++ {
		_, st := sess.Read(key(k), func(v []byte, st Status) {
			if st != Ok || len(v) != 8 {
				t.Errorf("read %d: %v, %d bytes", k, st, len(v))
				return
			}
			got[k] = binary.LittleEndian.Uint64(v)
		})
		if st != Pending {
			t.Fatalf("read of evicted key %d: %v, want pending", k, st)
		}
	}
	if q := len(sess.ioQueue); q != reads%storage.RunLen {
		t.Fatalf("%d cold reads still queued after %d issued, want %d (the rest went in runs of %d)", q, reads, reads%storage.RunLen, storage.RunLen)
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
	cfg := smallConfig()
	cfg.Metrics = obs.NewNop()
	s, err := Open(cfg)
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
