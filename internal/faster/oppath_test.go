package faster

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
)

// referenceIndexImage is the index encoder this repository shipped up to PR 12
// (index.writeTo: one 8-byte Write per word), kept as the reference that
// appendImage must match byte for byte.
func referenceIndexImage(idx *index, w io.Writer) {
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		w.Write(word[:])
	}
	dump := func(b *bucket) {
		for j := range b.entries {
			e := b.entries[j].Load()
			if e&entryTentative != 0 {
				e = 0
			}
			put(e)
		}
		put(b.meta.Load() & metaOverflowMask)
	}
	put(uint64(len(idx.buckets)))
	put(0)
	put(idx.overflowNext.Load())
	for i := range idx.buckets {
		dump(&idx.buckets[i])
	}
	for n := uint64(1); n < idx.overflowNext.Load(); n++ {
		dump(idx.overflowBucket(n))
	}
}

// goldenIndex is a small index with overflow chains, a tentative entry and
// latch bits set — everything the image encoder has to mask or follow.
func goldenIndex(t *testing.T) *index {
	idx, err := newIndex(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 200; i++ {
		h := i * 0x9E3779B97F4A7C15
		idx.findOrCreateSlot(h).Store(tagOf(h) | (64 + 8*i))
	}
	idx.buckets[3].entries[2].Store(idx.buckets[3].entries[2].Load() | entryTentative)
	idx.trySharedLatch(5)
	idx.tryExclusiveLatch(6)
	return idx
}

// TestIndexImageGolden: the one-buffer encoder writes what writeTo wrote. The
// checksum was taken from writeTo's output at the parent commit, before it was
// deleted.
func TestIndexImageGolden(t *testing.T) {
	idx := goldenIndex(t)
	if next := idx.overflowNext.Load(); next < 20 {
		t.Fatalf("golden index has only %d overflow buckets", next-1)
	}
	image := idx.appendImage(nil)
	var ref bytes.Buffer
	referenceIndexImage(idx, &ref)
	if !bytes.Equal(image, ref.Bytes()) {
		t.Fatalf("image differs from the reference encoder's (%d vs %d bytes)", len(image), ref.Len())
	}
	if len(image) != 2072 || crc32.ChecksumIEEE(image) != 0xbb140455 {
		t.Fatalf("image is %d bytes, crc %08x; the parent's encoder wrote 2072 bytes, crc bb140455",
			len(image), crc32.ChecksumIEEE(image))
	}
	if len(image) != idx.imageSize() {
		t.Fatalf("imageSize() = %d, image is %d bytes", idx.imageSize(), len(image))
	}

	// Round trip: every committed entry and overflow link survives; the
	// tentative entry and the latch bits do not.
	back, err := readIndex(bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	if again := back.appendImage(nil); !bytes.Equal(again, image) {
		t.Fatal("readIndex(image) does not re-encode to the same image")
	}
	if e := back.buckets[3].entries[2].Load(); e != 0 {
		t.Fatalf("tentative entry survived the round trip: %x", e)
	}
	for _, b := range []int{5, 6} {
		if m := back.buckets[b].meta.Load(); m&^metaOverflowMask != 0 {
			t.Fatalf("bucket %d latch bits survived the round trip: %x", b, m)
		}
	}
	for i := uint64(1); i <= 200; i++ {
		h := i * 0x9E3779B97F4A7C15
		if idx.findSlot(h) == nil {
			continue // the entry made tentative above
		}
		if s := back.findSlot(h); s == nil || entryAddr(s.Load()) != 64+8*i {
			t.Fatalf("key %d lost in the round trip", i)
		}
	}
}

// TestIndexArtifactBytes: the index artifact a WithIndex commit leaves on the
// checkpoint store is the reference image inside the usual envelope.
func TestIndexArtifactBytes(t *testing.T) {
	cs := storage.NewMemCheckpointStore()
	cfg := smallConfig()
	cfg.Checkpoints = cs
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	for k := uint64(0); k < 3000; k++ {
		if st := sess.Upsert(key(k), u64(k)); st == Pending {
			sess.CompletePending(true)
		}
	}
	res := driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
	sess.StopSession()
	got, err := storage.ReadArtifact(cs, "index-"+res.Token)
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	referenceIndexImage(s.shards[0].index, &ref) // quiescent: no session is running
	if !bytes.Equal(got, storage.EncodeArtifact(ref.Bytes())) {
		t.Fatalf("index artifact (%d bytes) is not the enveloped reference image of %d bytes",
			len(got), ref.Len())
	}
}

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
