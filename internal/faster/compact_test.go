package faster

import (
	"encoding/binary"
	"testing"

	"repro/internal/storage"
)

func TestCompactLogReclaimsDeadVersions(t *testing.T) {
	cfg := Config{IndexBuckets: 1 << 8, PageBits: 12, MemPages: 6}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()

	const keys = 2000
	// Several overwrite rounds build up dead versions on the log (updates
	// to records that migrated into the read-only region force RCU copies).
	for round := uint64(1); round <= 5; round++ {
		for i := uint64(0); i < keys; i++ {
			sess.Upsert(key(i), u64(round*1000+i))
		}
	}
	// Delete a quarter of the keys.
	for i := uint64(0); i < keys; i += 4 {
		sess.Delete(key(i))
	}
	sess.CompletePending(true)
	// Let pending read-only-offset shifts become epoch-safe.
	for i := 0; i < 4; i++ {
		sess.Refresh()
	}
	until := s.log.SafeReadOnly()
	if until <= s.log.Begin() {
		t.Fatalf("safe read-only offset never advanced (sro=%d begin=%d tail=%d)",
			until, s.log.Begin(), s.log.Tail())
	}
	if err := sess.CompactLog(until); err != nil {
		t.Fatal(err)
	}
	if s.log.Begin() != until {
		t.Fatalf("begin = %d, want %d", s.log.Begin(), until)
	}

	// Every surviving key reads its final value; deleted keys stay dead.
	for i := uint64(0); i < keys; i++ {
		want := uint64(5000 + i)
		v, st := sess.Read(key(i), func(v []byte, s2 Status) {
			if i%4 == 0 {
				if s2 != NotFound {
					t.Errorf("deleted key %d resurrected by compaction", i)
				}
			} else if s2 != Ok || binary.LittleEndian.Uint64(v) != want {
				t.Errorf("key %d: %v %v, want %d", i, v, s2, want)
			}
		})
		switch st {
		case Pending:
			sess.CompletePending(true)
		case Ok:
			if i%4 == 0 {
				t.Fatalf("deleted key %d returned %v", i, v)
			}
			if binary.LittleEndian.Uint64(v) != want {
				t.Fatalf("key %d = %d, want %d", i, binary.LittleEndian.Uint64(v), want)
			}
		case NotFound:
			if i%4 != 0 {
				t.Fatalf("live key %d lost by compaction", i)
			}
		}
	}
}

func TestCompactLogRejectedDuringCommit(t *testing.T) {
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	sess.Upsert(key(1), u64(1))
	if _, err := s.Commit(CommitOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := sess.CompactLog(s.log.Tail()); err != ErrCommitInProgress {
		t.Fatalf("compaction during commit: err = %v, want ErrCommitInProgress", err)
	}
	awaitRest(t, s, sess)
}

func TestCompactThenCommitAndRecover(t *testing.T) {
	dev := storage.NewMemDevice()
	ckpts := storage.NewMemCheckpointStore()
	cfg := Config{IndexBuckets: 1 << 8, PageBits: 12, MemPages: 6,
		Device: dev, Checkpoints: ckpts}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	id := sess.ID()

	const keys = 150
	for round := uint64(1); round <= 4; round++ {
		for i := uint64(0); i < keys; i++ {
			sess.Upsert(key(i), u64(round*100+i))
		}
	}
	sess.CompletePending(true)
	if err := sess.CompactLog(s.log.SafeReadOnly()); err != nil {
		t.Fatal(err)
	}
	driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
	sess.StopSession()
	s.Close()

	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs, _ := r.ContinueSession(id)
	defer rs.StopSession()
	for i := uint64(0); i < keys; i++ {
		want := uint64(400 + i)
		v, st := rs.Read(key(i), func(v []byte, s2 Status) {
			if s2 != Ok || binary.LittleEndian.Uint64(v) != want {
				t.Errorf("key %d after compact+commit+recover: %v %v, want %d", i, v, s2, want)
			}
		})
		if st == Pending {
			rs.CompletePending(true)
		} else if st != Ok || binary.LittleEndian.Uint64(v) != want {
			t.Fatalf("key %d = %v (%v), want %d", i, v, st, want)
		}
	}
}
