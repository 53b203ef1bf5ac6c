package faster

import (
	"encoding/binary"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/hashfn"
	"repro/internal/storage"
)

// TestParkedOpOwnsBuffers: a synchronous operation runs on the caller's key and
// input, and one that parks keeps copies of its own — so a caller that
// overwrites both buffers the moment the call returns Pending changes nothing
// the operation does. Two ways to park: a cold record on a file device (RMW,
// and Read with a callback), and the fuzzy region of a fold-over commit
// (Upsert, RMW, Delete), held open by a session that has not refreshed since
// the commit shifted the read-only offsets.
func TestParkedOpOwnsBuffers(t *testing.T) {
	t.Run("cold", parkCold)
	t.Run("fuzzy", parkFuzzy)
}

// wantValue reads key k through sess and fails the test unless it holds want.
func wantValue(t *testing.T, sess *Session, k, want uint64) {
	t.Helper()
	if v, ok := readVal(t, sess, k); !ok || binary.LittleEndian.Uint64(v) != want {
		t.Errorf("key %d: %x (found %v), want %d", k, v, ok, want)
	}
}

func parkCold(t *testing.T) {
	dev, err := storage.OpenFileDevice(filepath.Join(t.TempDir(), "log.dat"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Device = dev
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	t.Cleanup(func() {
		sess.StopSession()
		s.Close()
		dev.Close()
	})
	n := uint64(20000) // several times what 128 KiB of frames hold
	for k := uint64(0); k < n; k++ {
		if st := sess.Upsert(key(k), u64(k)); st == Pending {
			sess.CompletePending(true)
		}
	}

	kb, ib := key(3), u64(100)
	if st := sess.RMW(kb, ib); st != Pending {
		t.Fatalf("RMW of an evicted key: %v, want pending", st)
	}
	binary.LittleEndian.PutUint64(kb, 5)
	binary.LittleEndian.PutUint64(ib, 7777)
	var read uint64
	binary.LittleEndian.PutUint64(kb, 4)
	if _, st := sess.Read(kb, func(v []byte, st Status) {
		if st == Ok {
			read = binary.LittleEndian.Uint64(v)
		}
	}); st != Pending {
		t.Fatalf("Read of an evicted key: %v, want pending", st)
	}
	binary.LittleEndian.PutUint64(kb, 5)
	if failed := sess.CompletePending(true); failed != 0 {
		t.Fatalf("%d parked operations failed", failed)
	}
	if read != 4 {
		t.Errorf("parked read of key 4 delivered %d", read)
	}
	wantValue(t, sess, 3, 103)
	wantValue(t, sess, 5, 5)
}

func parkFuzzy(t *testing.T) {
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, hold := s.StartSession(), s.StartSession()
	defer a.StopSession()
	defer hold.StopSession()
	for k := uint64(1); k <= 9; k++ {
		a.Upsert(key(k), u64(k))
	}

	// hold demarcates first and writes records of v+1 for keys 1–3; a
	// demarcates last, which takes the commit to wait-flush, whose fold-over
	// shifts the read-only offset past those records. hold's epoch predates
	// the shift and it refreshes no more until a's ops have parked, so the
	// records stay in the fuzzy region.
	token, err := s.Commit(CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a.Refresh()    // acknowledges prepare
	hold.Refresh() // acknowledges prepare, the last to: in-progress
	hold.Refresh() // demarcates
	if a.phase != Prepare || hold.phase != InProgress {
		t.Fatalf("phases %v and %v, want prepare and in-progress", a.phase, hold.phase)
	}
	for k := uint64(1); k <= 3; k++ {
		if st := hold.Upsert(key(k), u64(10*k)); st != Ok {
			t.Fatalf("v+1 upsert of key %d: %v", k, st)
		}
	}
	a.Refresh() // demarcates, the last to: wait-pending, wait-flush
	deadline := time.Now().Add(5 * time.Second)
	for k := uint64(1); k <= 3; k++ {
		h := hashfn.Hash64(key(k))
		_, entry := s.index.probe(h, 0)
		addr := entryAddr(entry)
		for s.log.ReadOnly() <= addr {
			if time.Now().After(deadline) {
				t.Fatalf("the commit never shifted the read-only offset past key %d", k)
			}
			a.Refresh()
			runtime.Gosched()
		}
		if sro := s.log.SafeReadOnly(); sro > addr {
			t.Fatalf("key %d at %d is below safe-read-only %d, not in the fuzzy region", k, addr, sro)
		}
	}

	kb, ib := key(1), u64(5)
	overwrite := func() {
		binary.LittleEndian.PutUint64(kb, 9)
		binary.LittleEndian.PutUint64(ib, 999)
	}
	if st := a.RMW(kb, ib); st != Pending {
		t.Fatalf("RMW in the fuzzy region: %v, want pending", st)
	}
	overwrite()
	binary.LittleEndian.PutUint64(kb, 2)
	binary.LittleEndian.PutUint64(ib, 222)
	if st := a.Upsert(kb, ib); st != Pending {
		t.Fatalf("Upsert in the fuzzy region: %v, want pending", st)
	}
	overwrite()
	binary.LittleEndian.PutUint64(kb, 3)
	if st := a.Delete(kb); st != Pending {
		t.Fatalf("Delete in the fuzzy region: %v, want pending", st)
	}
	overwrite()

	hold.Refresh()
	if failed := a.CompletePending(true); failed != 0 {
		t.Fatalf("%d parked operations failed", failed)
	}
	for {
		if res, ok := s.TryResult(token); ok {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("commit %s stuck in phase %v", token, s.Phase())
		}
		a.Refresh()
		hold.Refresh()
	}
	wantValue(t, a, 1, 15)
	wantValue(t, a, 2, 222)
	if _, ok := readVal(t, a, 3); ok {
		t.Error("key 3 survived its parked delete")
	}
	wantValue(t, a, 9, 9)
}

// TestParkedWriteFailureReported: a write that parks and then fails — an RMW of
// an evicted record whose read the device refuses — has no callback, so the
// CompletePending that completes it reports it, once; the record is untouched.
func TestParkedWriteFailureReported(t *testing.T) {
	inj := storage.NewInjector(storage.FaultConfig{Seed: 1})
	cfg := smallConfig()
	cfg.Device = storage.NewFaultDevice(storage.NewMemDevice(), inj)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	for k := uint64(0); k < 20000; k++ {
		if st := sess.Upsert(key(k), u64(k)); st == Pending {
			sess.CompletePending(true)
		}
	}
	s.Log().WaitDurable(s.Log().SafeReadOnly()) // no flush in flight when the device dies

	inj.FailPermanently()
	if st := sess.RMW(key(3), u64(1)); st != Pending {
		t.Fatalf("RMW of an evicted key: %v, want pending", st)
	}
	if failed := sess.CompletePending(true); failed != 1 {
		t.Fatalf("CompletePending reported %d failed operations, want 1", failed)
	}
	if n := sess.PendingCount(); n != 0 {
		t.Fatalf("%d operations still pending", n)
	}
	if failed := sess.CompletePending(true); failed != 0 {
		t.Fatalf("the failure was reported again (%d)", failed)
	}
	inj.Heal()
	wantValue(t, sess, 3, 3)
}
