package faster

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/storage"
)

// TestShardedCommitAndRecover: a store configured as the benchmark module
// still configures its network workloads — the deprecated Shards and
// DeviceFactory — is one index and one log. It opens DeviceFactory(0) only,
// commits and recovers from it, and ShardLog and ResyncFrom count that one log
// once over the shard numbers the benchmark sums over.
func TestShardedCommitAndRecover(t *testing.T) {
	devs := []*storage.MemDevice{storage.NewMemDevice(), storage.NewMemDevice()}
	ckpts := storage.NewMemCheckpointStore()
	cfg := smallConfig()
	cfg.Shards, cfg.Checkpoints = 2, ckpts
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
	if n := devs[1].Size(); n != 0 {
		t.Fatalf("the second device holds %d bytes; the store opens DeviceFactory(0) only", n)
	}

	r, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Version() != res.Version+1 {
		t.Fatalf("recovered at version %d, want %d", r.Version(), res.Version+1)
	}
	var counted uint64
	for i := 0; i < 2; i++ {
		counted += r.ShardLog(i).Tail() - r.ResyncFrom(i)
	}
	if want := r.Log().Tail() - r.RewrittenFrom(); counted != want {
		t.Fatalf("ShardLog(i).Tail()-ResyncFrom(i) sums to %d over two shard numbers, want the one log's %d", counted, want)
	}
	rs, point := r.ContinueSession(id)
	if point != committed {
		t.Fatalf("recovered commit point = %d, want %d", point, committed)
	}
	verifyPrefix(t, rs, committed, committed+100)
	rs.StopSession()
}

// TestShardedPartialCommitCrash is the crash-before-the-record test (named for
// the partitioned store, where k of N captures were durable): the real
// Store.Commit "crashes" once its capture is durable — its snapshot and index
// blobs written — and before its record is. Recovery must land on the last
// commit that has a record, ContinueSession must return that commit's serial,
// the session's watermark and LatestCommitToken must never have covered the
// crashed commit, and the recovered store must not hand the crashed commit's
// token out again.
func TestShardedPartialCommitCrash(t *testing.T) { onePartition(t, crashBeforeRecord) }

func crashBeforeRecord(t *testing.T) {
	dev, ckpts := storage.NewMemDevice(), storage.NewMemCheckpointStore()
	inj := storage.NewInjector(storage.FaultConfig{Seed: 1})
	cfg := smallConfig()
	cfg.Checkpoints = storage.NewFaultCheckpointStore(ckpts, inj)
	cfg.Device = dev
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

	// The second commit is a snapshot commit with the index, and the crash
	// point the write of its record. The crash image is the checkpoint store
	// first, then the device (matching write ordering — metadata follows its
	// data).
	token2 := fmt.Sprintf("ckpt-%06d", s.machine.Seq.Load()+1)
	point := "before:" + storage.RecordName(token2)
	var snapCkpts *storage.MemCheckpointStore
	var snapDev *storage.MemDevice
	var crashSerial uint64
	var crashToken string
	var crashDone bool
	inj.Arm(point, func() {
		snapCkpts, snapDev = ckpts.Clone(), dev.Clone()
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

	rcfg := smallConfig()
	rcfg.Checkpoints, rcfg.Device = snapCkpts, snapDev
	r, report, err := RecoverWithReport(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// The record for the partial commit was never written, so it is not a
	// commit at all — not even a skipped one — and recovery lands on commit 1,
	// past the durable capture of the crashed one.
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
