package faster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hashfn"
	"repro/internal/storage"
)

// gatedDevice is a device whose writes the test holds up or fails: while gate
// is set a WriteAt reports on blocked and waits for the gate to close; with
// dead set it fails for good.
type gatedDevice struct {
	storage.Device
	gate    atomic.Pointer[chan struct{}]
	blocked chan struct{}
	dead    atomic.Bool
}

var errPlatter = errors.New("gatedDevice: write failed for good")

func (d *gatedDevice) WriteAt(p []byte, off int64) (int, error) {
	if d.dead.Load() {
		return 0, errPlatter
	}
	if gate := d.gate.Load(); gate != nil {
		d.blocked <- struct{}{}
		<-*gate
	}
	return d.Device.WriteAt(p, off)
}

// gatedStore is commitPathStore over a gated device.
func gatedStore(t *testing.T) (*Store, *Session, *gatedDevice) {
	t.Helper()
	// One page write per commit here; the buffer is slack.
	dev := &gatedDevice{Device: storage.NewMemDevice(), blocked: make(chan struct{}, 16)}
	cfg := smallConfig()
	cfg.Device = dev
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	for k := uint64(1); k <= 100; k++ {
		if st := sess.Upsert(key(k), u64(k)); st == Pending {
			sess.CompletePending(true)
		}
	}
	return s, sess, dev
}

// TestCommitLegWakesOnDurable: what ends a fold-over commit's wait-flush is the
// device write that makes its capture durable — nothing polls for it and no
// session has to refresh for it. The page write is held at the device: the
// commit is not done; the session has refreshed for the last time; the writes
// are let go: the commit completes. And a write that fails for good wakes the
// leg just the same, the commit aborts with the flush error, and the store goes
// on serving.
func TestCommitLegWakesOnDurable(t *testing.T) {
	t.Run("held", func(t *testing.T) {
		s, sess, dev := gatedStore(t)
		defer s.Close()
		defer sess.StopSession()
		gate := make(chan struct{})
		dev.gate.Store(&gate)
		token, err := s.Commit(CommitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for held := false; !held; { // refresh until the flush is at the device
			select {
			case <-dev.blocked:
				held = true
			default:
				sess.Refresh()
			}
		}
		time.Sleep(20 * time.Millisecond)
		if res, ok := s.TryResult(token); ok {
			t.Fatalf("commit done (%+v) while its page writes are held at the device", res)
		}
		close(gate) // from here on nothing refreshes
		done := make(chan CommitResult, 1)
		go func() { done <- s.WaitForCommit(token) }()
		select {
		case res := <-done:
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if got := res.Serials[sess.ID()]; got != 100 {
				t.Fatalf("commit point %d, want 100", got)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("commit still in %v after its writes completed: the leg waits for something else", s.Phase())
		}
	})
	t.Run("failed", func(t *testing.T) {
		s, sess, dev := gatedStore(t)
		defer s.Close()
		defer sess.StopSession()
		dev.dead.Store(true)
		token, err := s.Commit(CommitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var res CommitResult
		for ok := false; !ok; res, ok = s.TryResult(token) {
			sess.Refresh()
		}
		if !errors.Is(res.Err, errPlatter) || !strings.Contains(res.Err.Error(), "flush") {
			t.Fatalf("commit over a dead device: err = %v, want the flush failure", res.Err)
		}
		if got, _ := s.LatestCommitToken(); got == token {
			t.Fatalf("failed commit %s is the store's latest", token)
		}
		awaitRest(t, s, sess) // the failed commit's flush returns to rest
		if st := sess.Upsert(key(1), u64(2)); st != Ok {
			t.Fatalf("upsert after the aborted commit: %v", st)
		}
		if v, ok := readVal(t, sess, 1); !ok || binary.LittleEndian.Uint64(v) != 2 {
			t.Fatalf("key 1 reads %x (found %v) after the aborted commit", v, ok)
		}
	})
}

// imageGateStore is a checkpoint store whose index images wait at their first
// Write until durable() reaches target, for at most five seconds, and note
// where it stood when they went on.
type imageGateStore struct {
	storage.CheckpointStore
	durable func() uint64
	target  uint64
	seen    atomic.Uint64
}

func (c *imageGateStore) Create(name string) (io.WriteCloser, error) {
	w, err := c.CheckpointStore.Create(name)
	if err != nil || !strings.HasPrefix(name, "index-") {
		return w, err
	}
	return &gatedImage{WriteCloser: w, store: c}, nil
}

type gatedImage struct {
	io.WriteCloser
	store  *imageGateStore
	waited bool
}

func (w *gatedImage) Write(p []byte) (int, error) {
	if !w.waited {
		w.waited = true
		c := w.store
		for deadline := time.Now().Add(5 * time.Second); c.durable() < c.target && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		c.seen.Store(c.durable())
	}
	return w.WriteCloser.Write(p)
}

// TestIndexImageOverlapsLogFlush: a fold-over commit with the index flushes the
// log below Lis while it writes the image, not after. The image's first write
// waits until the log is durable to the tail read before the commit; a capture
// that starts the flush only after the image never gets there, and the wait
// gives up after five seconds.
func TestIndexImageOverlapsLogFlush(t *testing.T) {
	cs := &imageGateStore{CheckpointStore: storage.NewMemCheckpointStore()}
	cfg := smallConfig()
	cfg.Checkpoints = cs
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	for k := uint64(1); k <= 100; k++ {
		if st := sess.Upsert(key(k), u64(k)); st != Ok {
			t.Fatalf("upsert %d: %v", k, st)
		}
	}
	tail := s.Log().Tail()
	if d := s.Log().Durable(); d >= tail {
		t.Fatalf("durable %d already at the tail %d: nothing for the commit to flush", d, tail)
	}
	cs.durable, cs.target = s.Log().Durable, tail
	res := driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
	if seen := cs.seen.Load(); seen < tail {
		t.Fatalf("the index image began with the log durable to %d of %d: the flush waited for the image", seen, tail)
	}
	if got := res.Serials[sess.ID()]; got != 100 {
		t.Fatalf("commit point %d, want 100", got)
	}
}

// longValue is a 40-byte value whose five words are all its generation: a copy
// torn between two updates shows two of them.
func longValue(gen uint64) []byte {
	return bytes.Repeat(u64(gen), 5)
}

// TestLongValueReadsWhilePagesFlush: reading a value longer than a word takes
// the record's latch where the record may be updated in place, and the latch
// is a store to the record's header — which must not happen to a page on its
// way to the device, because the flush hands the device the frame itself and
// checksums the frame afterwards. Sessions read and overwrite 40-byte values
// on 4 KiB pages (a page turns read-only every hundred updates, a frame is
// flushed and evicted soon after) while fold-over commits make the whole tail
// read-only every few milliseconds, so reads keep finding records in every
// region, the fuzzy one included. Every read must see one whole value; under
// -race a latch taken below the safe-read-only offset shows as a race with the
// device's read of the frame; and afterwards the store recovers from its last
// commit, which verifies every flushed page against its checksum.
func TestLongValueReadsWhilePagesFlush(t *testing.T) {
	const (
		keys     = 256
		sessions = 3
		runFor   = 500 * time.Millisecond
	)
	cfg := Config{IndexBuckets: 1 << 8, PageBits: 12, MemPages: 8,
		Checkpoints: storage.NewMemCheckpointStore(), Device: storage.NewMemDevice()}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < sessions; w++ {
		sess := s.StartSession()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer sess.StopSession()
			check := func(v []byte, st Status) {
				if st == Ok && !bytes.Equal(v, longValue(binary.LittleEndian.Uint64(v))) {
					t.Errorf("read a torn value: %x", v)
					stop.Store(true)
				}
			}
			for i := uint64(0); !stop.Load(); i++ {
				k := key((i*7 + uint64(w)) % keys)
				if i%3 == 0 {
					sess.Upsert(k, longValue(i))
				} else if v, st := sess.Read(k, check); st != Pending {
					check(v, st)
				}
				if i%64 == 0 {
					sess.CompletePending(false)
				}
			}
			sess.CompletePending(true)
		}(w)
	}
	commits := 0
	for deadline := time.Now().Add(runFor); time.Now().Before(deadline) && !stop.Load(); commits++ {
		token, err := s.Commit(CommitOptions{WithIndex: commits == 0})
		if err != nil {
			t.Fatal(err)
		}
		if res := s.WaitForCommit(token); res.Err != nil {
			t.Fatal(res.Err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	s.Close()
	if t.Failed() {
		return
	}
	r, err := Recover(cfg)
	if err != nil {
		t.Fatalf("recovery after %d commits: %v", commits, err)
	}
	defer r.Close()
	if rep := r.RecoveryReport(); len(rep.Skipped) != 0 {
		t.Fatalf("recovery fell back past a commit: %+v", rep)
	}
}

// TestReadByRegion: how a read takes its value, by the region the record is in
// and by whether the value fits a word. Only a multi-word value in the fuzzy
// region cannot be read where it stands (latching it could store into a page
// already on its way to the device): the read parks like an update there — Read
// returns Pending at once, whatever the other sessions do — and completes once
// the session holding the shift back has refreshed.
func TestReadByRegion(t *testing.T) {
	for _, region := range []int{regionMutable, regionFuzzy, regionSafeRO} {
		for _, val := range [][]byte{u64(40), longValue(40)} {
			t.Run(fmt.Sprintf("%s/%dB", updateRegionNames[region], len(val)), func(t *testing.T) {
				s, err := Open(smallConfig())
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				a, hold := s.StartSession(), s.StartSession()
				defer a.StopSession()
				defer hold.StopSession()
				k := key(7)
				if st := a.Upsert(k, val); st != Ok {
					t.Fatalf("seed upsert: %v", st)
				}
				if region != regionMutable {
					s.Log().ShiftReadOnlyTo(s.Log().Tail())
					a.Refresh()
					if region == regionSafeRO {
						hold.Refresh()
					}
				}
				op := &pendingOp{kind: opRead, key: k, hash: hashfn.Hash64(k)}
				op.serial, op.version = a.serial.Add(1), a.view.Version
				if r := a.find(op, false); int(r.reg) != region {
					t.Fatalf("record found in region %d, want %d", r.reg, region)
				}
				want := Ok
				if region == regionFuzzy && len(val) > 8 {
					want = Pending
				}
				if st := a.dispatch(op); st != want || want == Ok && !bytes.Equal(op.val, val) {
					t.Fatalf("dispatch: %v with value %x, want %v", st, op.val, want)
				}
				var got []byte
				v, st := a.Read(k, func(v []byte, st Status) { got = append(got, v...) })
				if st != want {
					t.Fatalf("read: %v, want %v", st, want)
				}
				if st == Pending {
					if a.CompletePending(false); got != nil {
						t.Fatalf("read %x while its record was in the fuzzy region", got)
					}
					hold.Refresh()
					a.CompletePending(true)
					v = got
				}
				if !bytes.Equal(v, val) {
					t.Fatalf("read %x, want %x", v, val)
				}
			})
		}
	}
}

// TestEnterPrepareRefreshesWhileLatched: a session entering prepare takes a
// shared latch on the bucket of each of its parked operations, and a bucket can
// still be latched exclusively — by a session whose view is a commit behind: it
// took the latch in in-progress and is inside the log waiting for a page, that
// is, for every guard to refresh, this session's included. So the wait for the
// latch must keep the epoch moving. Reads that park in the fuzzy region made
// the meeting common: TestLongValueReadsWhilePagesFlush hung one run in seven.
func TestEnterPrepareRefreshesWhileLatched(t *testing.T) {
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, hold := s.StartSession(), s.StartSession()
	defer a.StopSession()
	defer hold.StopSession()
	k := key(7)
	if st := a.Upsert(k, longValue(1)); st != Ok {
		t.Fatalf("seed upsert: %v", st)
	}
	s.Log().ShiftReadOnlyTo(s.Log().Tail())
	a.Refresh() // hold has not refreshed: the record is in the fuzzy region
	if st := a.Upsert(k, longValue(2)); st != Pending {
		t.Fatalf("upsert of a record in the fuzzy region: %v, want Pending", st)
	}
	sh, h := s, hashfn.Hash64(k)
	if !sh.index.tryExclusiveLatch(h) { // the lagging session's latch
		t.Fatal("bucket already latched")
	}
	token, err := s.Commit(CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	go func() {
		a.Refresh()
		close(entered)
	}()
	// The lagging session's wait: an action that runs once every guard has refreshed.
	drained := make(chan struct{})
	s.epochs.BumpEpoch(func() { close(drained) })
	for deadline := time.Now().Add(2 * time.Second); ; runtime.Gosched() {
		hold.Refresh()
		select {
		case <-drained:
		default:
			if time.Now().Before(deadline) {
				continue
			}
			sh.index.releaseExclusiveLatch(h)
			<-entered
			t.Fatal("a session waiting for a bucket latch on its way into prepare stopped refreshing its epoch")
		}
		break
	}
	select {
	case <-entered:
		t.Fatal("entered prepare past an exclusive latch")
	default:
	}
	sh.index.releaseExclusiveLatch(h)
	<-entered
	awaitCommit(t, s, token, a, hold)
}
