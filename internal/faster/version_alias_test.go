package faster

import (
	"bytes"
	"testing"

	"repro/internal/storage"
)

// A record carries 13 bits of its version, so a record written 8192·k commits
// before commit v says v+1 too. What tells the two apart is where the record
// lies: a v+1 record is written after commit v began, at or above its
// log_start (shard.isFuture).

// skipVersions moves a store with no commit running n versions on, as n
// commits that capture nothing would, without running them.
func skipVersions(s *Store, n uint32) {
	s.machine.Reset(s.Version() + n)
}

// TestVersionAliasPendingRead: during commit 8192 a read and an RMW of cold keys
// last written at version 1 go pending in prepare and complete past it, where
// the walk skips v+1 records. They must find the version-1 records: the read
// its value, not NotFound, and the RMW the counter, not a fresh one.
func TestVersionAliasPendingRead(t *testing.T) {
	s, err := Open(configOver(storage.NewMemDevice(), storage.NewMemCheckpointStore()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	for k := uint64(0); k < 4000; k++ { // 96 KiB of records, 32 KiB of frames
		if st := sess.Upsert(key(k), u64(k+1)); st == Pending {
			sess.CompletePending(true)
		}
	}
	skipVersions(s, 8191)
	sess.Refresh()
	token, err := s.Commit(CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sess.Refresh() // into prepare of commit 8192
	var read []byte
	readSt := Pending
	if _, st := sess.Read(key(0), func(v []byte, st Status) { read, readSt = bytes.Clone(v), st }); st != Pending {
		t.Fatalf("read of a cold key during prepare: %v, want pending", st)
	}
	if st := sess.RMW(key(1), u64(10)); st != Pending {
		t.Fatalf("RMW of a cold key during prepare: %v, want pending", st)
	}
	awaitCommit(t, s, token, sess)
	sess.CompletePending(true)
	if readSt != Ok || !bytes.Equal(read, u64(1)) {
		t.Fatalf("pending read of a version-1 record during commit 8192: %v %x, want Ok %x", readSt, read, u64(1))
	}
	if got, _ := readVal(t, sess, 1); !bytes.Equal(got, u64(12)) {
		t.Fatalf("RMW +10 of 2 during commit 8192 left %x, want %x", got, u64(12))
	}
}

// TestVersionAliasRecovery: commit 8193 is log-only and carries commit 1's
// index image forward, so its replay starts below every record of version 2 —
// the version its v+1 aliases. Recovery must take those records as
// committed, not unwind them.
func TestVersionAliasRecovery(t *testing.T) {
	dev, ckpts := storage.NewMemDevice(), storage.NewMemCheckpointStore()
	s, err := Open(configOver(dev, ckpts))
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	want := map[uint64]uint64{}
	put := func(k, v uint64) {
		if st := sess.Upsert(key(k), u64(v)); st == Pending {
			sess.CompletePending(true)
		}
		want[k] = v
	}
	for k := uint64(0); k < 100; k++ {
		put(k, k)
	}
	driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true}) // commit 1: the image
	for k := uint64(0); k < 200; k++ {
		put(k, 1000+k) // version 2: updates, and keys the image never saw
	}
	skipVersions(s, 8191)
	sess.Refresh()
	if res := driveCommit(t, s, []*Session{sess}, CommitOptions{}); res.Version != 8193 {
		t.Fatalf("commit at version %d, want 8193", res.Version)
	}
	sess.StopSession()
	s.Close()
	r, err := Recover(configOver(dev, ckpts))
	if err != nil {
		t.Fatal(err)
	}
	checkImage(t, "recovered commit 8193", r, want, nil)
	r.Close()
}
