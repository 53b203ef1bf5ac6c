package faster

import (
	"encoding/binary"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/storage"
)

// testShardCount returns the shard count multi-shard tests run at. The
// FASTER_TEST_SHARDS environment variable overrides the default (used by CI's
// second race-detector job to exercise the partitioned paths).
func testShardCount(def int) int {
	if v := os.Getenv("FASTER_TEST_SHARDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func shardedConfig(n int) Config {
	return Config{
		Shards:       n,
		IndexBuckets: 1 << 10,
		PageBits:     14,
		MemPages:     8 * n,
	}
}

// TestShardedRouting checks that operations land on the shard the router
// picks and that every shard receives traffic under a spread of keys.
func TestShardedRouting(t *testing.T) {
	n := testShardCount(4)
	s, err := Open(shardedConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumShards() != n {
		t.Fatalf("NumShards = %d, want %d", s.NumShards(), n)
	}
	sess := s.StartSession()
	const keys = 512
	for k := uint64(0); k < keys; k++ {
		if st := sess.Upsert(key(k), u64(k+1)); st == Pending {
			sess.CompletePending(true)
		}
	}
	for k := uint64(0); k < keys; k++ {
		var got uint64
		var ok bool
		_, st := sess.Read(key(k), func(v []byte, s2 Status) {
			if s2 == Ok {
				got, ok = binary.LittleEndian.Uint64(v), true
			}
		})
		if st == Pending {
			sess.CompletePending(true)
		}
		if !ok || got != k+1 {
			t.Fatalf("key %d: got (%d,%v), want %d", k, got, ok, k+1)
		}
	}
	if n > 1 {
		// Each shard's log should have grown past its empty state.
		for i := 0; i < n; i++ {
			l := s.ShardLog(i)
			if l.Tail() == l.Begin() {
				t.Fatalf("shard %d received no records; router is not spreading keys", i)
			}
		}
	}
	sess.StopSession()
}

// TestShardedCommitAndRecover runs a cross-shard commit to completion and
// recovers from it: one token, one version, every shard durable, and the
// session's commit point covering exactly the pre-commit prefix.
func TestShardedCommitAndRecover(t *testing.T) {
	n := testShardCount(4)
	devs := make([]*storage.MemDevice, n)
	for i := range devs {
		devs[i] = storage.NewMemDevice()
	}
	ckpts := storage.NewMemCheckpointStore()
	cfg := shardedConfig(n)
	cfg.Checkpoints = ckpts
	cfg.DeviceFactory = func(i int) (storage.Device, error) { return devs[i], nil }
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	id := sess.ID()
	const committed = 200
	for k := uint64(1); k <= committed; k++ {
		if st := sess.Upsert(key(k), u64(k)); st == Pending {
			sess.CompletePending(true)
		}
	}
	res := driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
	if res.Serials[id] != committed {
		t.Fatalf("commit point = %d, want %d", res.Serials[id], committed)
	}
	// Post-commit suffix that must NOT survive recovery.
	for k := uint64(committed + 1); k <= committed+100; k++ {
		if st := sess.Upsert(key(k), u64(k)); st == Pending {
			sess.CompletePending(true)
		}
	}
	sess.StopSession()
	s.Close()

	rcfg := shardedConfig(n)
	rcfg.Checkpoints = ckpts
	rcfg.DeviceFactory = func(i int) (storage.Device, error) { return devs[i], nil }
	r, err := Recover(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Version() != res.Version+1 {
		t.Fatalf("recovered at version %d, want %d", r.Version(), res.Version+1)
	}
	rs, point := r.ContinueSession(id)
	if point != committed {
		t.Fatalf("recovered commit point = %d, want %d", point, committed)
	}
	verifyPrefix(t, rs, committed, committed+100)
	rs.StopSession()
}

// TestShardedPartialCommitCrash is the crash-before-the-record test, at
// every shard count: the real Store.Commit "crashes" once k of N shards'
// captures are durable — their snapshot blobs written, every index blob too —
// and before its record is. Recovery must land on the last commit that has a
// record, ContinueSession must return that commit's serial, the session's
// watermark and LatestCommitToken must never have covered the crashed commit,
// and the recovered store must not hand the crashed commit's token out again.
func TestShardedPartialCommitCrash(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { partialCommitCrash(t, n) })
	}
}

func partialCommitCrash(t *testing.T, n int) {
	k := (n + 1) / 2 // shards whose capture of the second commit is durable at the crash

	devs := make([]*storage.MemDevice, n)
	for i := range devs {
		devs[i] = storage.NewMemDevice()
	}
	ckpts := storage.NewMemCheckpointStore()
	inj := storage.NewInjector(storage.FaultConfig{Seed: 1})
	cfg := shardedConfig(n)
	cfg.Checkpoints = storage.NewFaultCheckpointStore(ckpts, inj)
	cfg.DeviceFactory = func(i int) (storage.Device, error) { return devs[i], nil }
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	id := sess.ID()

	const commit1 = 150
	for kk := uint64(1); kk <= commit1; kk++ {
		if st := sess.Upsert(key(kk), u64(kk)); st == Pending {
			sess.CompletePending(true)
		}
	}
	res1 := driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
	if res1.Serials[id] != commit1 {
		t.Fatalf("commit 1 point = %d, want %d", res1.Serials[id], commit1)
	}

	const total = 300
	for kk := uint64(commit1 + 1); kk <= total; kk++ {
		if st := sess.Upsert(key(kk), u64(kk)); st == Pending {
			sess.CompletePending(true)
		}
	}

	// The second commit is a snapshot commit with the index: its captures are
	// one blob per shard, written one after another, so the crash point is
	// the write of shard k's blob — or of the record, when k is every shard.
	// The crash image is the checkpoint store first, then the devices
	// (matching write ordering — metadata follows its data).
	token2 := fmt.Sprintf("ckpt-%06d", s.commitSeq.Load()+1)
	point := "before:" + blobName("snapshot", token2, k)
	if k == n {
		point = "before:" + storage.RecordName(token2)
	}
	var snapCkpts *storage.MemCheckpointStore
	snapDevs := make([]*storage.MemDevice, n)
	var crashSerial uint64
	var crashToken string
	var crashDone bool
	inj.Arm(point, func() {
		snapCkpts = ckpts.Clone()
		for i := range devs {
			snapDevs[i] = devs[i].Clone()
		}
		crashSerial = sess.CommittedSerial()
		crashToken, _ = s.LatestCommitToken()
		_, crashDone = s.TryResult(token2)
	})
	snapshot := Snapshot
	if res2 := driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true, Kind: &snapshot}); res2.Token != token2 {
		t.Fatalf("second commit took token %s, want %s", res2.Token, token2)
	}
	if snapCkpts == nil {
		t.Fatalf("crash point %s never fired", point)
	}
	if crashSerial != commit1 || crashToken != res1.Token || crashDone {
		t.Fatalf("at the crash: CommittedSerial %d, LatestCommitToken %q, %s done %v; want %d, %s and not done",
			crashSerial, crashToken, token2, crashDone, commit1, res1.Token)
	}
	sess.StopSession()
	s.Close()

	rcfg := shardedConfig(n)
	rcfg.Checkpoints = snapCkpts
	rcfg.DeviceFactory = func(i int) (storage.Device, error) { return snapDevs[i], nil }
	r, report, err := RecoverWithReport(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// The record for the partial commit was never written, so it is not a
	// commit at all — not even a skipped one — and recovery lands on commit 1,
	// past the k durable captures of the crashed one.
	if report.Token != res1.Token || len(report.Skipped) != 0 {
		t.Fatalf("recovered %s with skips %v, want %s and none", report.Token, report.Skipped, res1.Token)
	}
	if r.Version() != res1.Version+1 {
		t.Fatalf("recovered at version %d, want %d (commit 1)", r.Version(), res1.Version+1)
	}
	rs, point1 := r.ContinueSession(id)
	if point1 != commit1 {
		t.Fatalf("recovered commit point = %d, want %d", point1, commit1)
	}
	verifyPrefix(t, rs, commit1, total)
	// The orphaned blobs still carry token2; the next commit must not reuse it.
	if res := driveCommit(t, r, []*Session{rs}, CommitOptions{}); res.Token <= token2 {
		t.Fatalf("commit after recovery took token %s, colliding with the crashed commit %s", res.Token, token2)
	}
	rs.StopSession()
}

// verifyPrefix asserts keys 1..present hold their own value and keys
// present+1..absentMax are gone.
func verifyPrefix(t *testing.T, sess *Session, present, absentMax uint64) {
	t.Helper()
	for kk := uint64(1); kk <= absentMax; kk++ {
		var got uint64
		var found, done bool
		_, st := sess.Read(key(kk), func(v []byte, s2 Status) {
			done = true
			if s2 == Ok {
				got, found = binary.LittleEndian.Uint64(v), true
			}
		})
		if st == Pending {
			sess.CompletePending(true)
		}
		if !done {
			t.Fatalf("key %d: read never completed", kk)
		}
		if kk <= present {
			if !found || got != kk {
				t.Fatalf("key %d: got (%d,%v), want %d", kk, got, found, kk)
			}
		} else if found {
			t.Fatalf("key %d: phantom value %d beyond the recovered prefix", kk, got)
		}
	}
}

// TestShardedConcurrentCommits runs concurrent sessions across shards with
// repeated commits — the multi-shard analogue of the single-store stress
// tests, primarily valuable under -race.
func TestShardedConcurrentCommits(t *testing.T) {
	n := testShardCount(2)
	cfg := shardedConfig(n)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const sessions = 3
	const opsPer = 2000
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		i := i
		sess := s.StartSession()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for nn := uint64(1); nn <= opsPer; nn++ {
				if st := sess.Upsert(key(uint64(i)<<32|nn%64), u64(nn)); st == Pending {
					sess.CompletePending(true)
				}
			}
			sess.CompletePending(true)
			for s.Phase() != Rest {
				sess.Refresh()
				sess.CompletePending(false)
			}
			sess.StopSession()
		}()
	}
	pump := s.StartSession()
	for c := 0; c < 3; c++ {
		token, err := s.Commit(CommitOptions{})
		if err == ErrCommitInProgress {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for {
			if res, ok := s.TryResult(token); ok {
				if res.Err != nil {
					t.Fatalf("commit %d failed: %v", c, res.Err)
				}
				break
			}
			pump.Refresh()
			pump.CompletePending(false)
		}
	}
	pump.StopSession()
	wg.Wait()
}
