package faster

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/hashfn"
	"repro/internal/obs"
	"repro/internal/storage"
)

// buildRestoreImage builds a crash image whose newest commit is log-only, so
// recovery has a real suffix to replay: an index-anchored commit over nBase
// keys, then a suffix of overwrites, brand-new keys and tombstones, committed
// without the index. Returns the "disk", the expected value of every live key,
// the set of keys that must be absent, and the workload session's ID.
func buildRestoreImage(t *testing.T, nBase, nSuffix int) (
	*storage.MemDevice, *storage.MemCheckpointStore,
	map[uint64]uint64, map[uint64]bool, string) {
	t.Helper()
	dev := storage.NewMemDevice()
	ckpts := storage.NewMemCheckpointStore()
	cfg := smallConfig()
	cfg.Device, cfg.Checkpoints = dev, ckpts
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	id := sess.ID()
	want := map[uint64]uint64{}
	gone := map[uint64]bool{}
	put := func(k, v uint64) {
		if st := sess.Upsert(key(k), u64(v)); st == Pending {
			sess.CompletePending(true)
		}
		want[k] = v
		delete(gone, k)
	}
	for i := 0; i < nBase; i++ {
		put(uint64(i), uint64(i)+1000)
		if i%64 == 0 {
			sess.Refresh()
		}
	}
	driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
	for i := 0; i < nSuffix; i++ {
		switch i % 3 {
		case 0: // overwrite a base key
			put(uint64(i%nBase), uint64(i)+5000)
		case 1: // a key that exists only in the suffix
			put(uint64(nBase+i), uint64(i)+7000)
		case 2: // tombstone a base key
			k := uint64((i * 7) % nBase)
			if st := sess.Delete(key(k)); st == Pending {
				sess.CompletePending(true)
			}
			delete(want, k)
			gone[k] = true
		}
		if i%64 == 0 {
			sess.Refresh()
		}
	}
	driveCommit(t, s, []*Session{sess}, CommitOptions{}) // log-only: suffix on the log
	sess.StopSession()
	s.Close()
	return dev, ckpts, want, gone, id
}

// readVal drives one read to completion and reports (value, found).
func readVal(t *testing.T, sess *Session, k uint64) ([]byte, bool) {
	t.Helper()
	var got []byte
	var found, done bool
	_, st := sess.Read(key(k), func(v []byte, s2 Status) {
		done = true
		if s2 == Ok {
			got, found = append([]byte(nil), v...), true
		} else if s2 != NotFound {
			t.Fatalf("read key %d: status %v", k, s2)
		}
	})
	if st == Pending {
		sess.CompletePending(true)
	}
	if !done {
		t.Fatalf("read key %d never completed", k)
	}
	return got, found
}

// checkImage asserts the store serves exactly the expected post-recovery
// values: every live key its newest committed value, every tombstoned key
// absent.
func checkImage(t *testing.T, label string, s *Store, want map[uint64]uint64, gone map[uint64]bool) {
	t.Helper()
	sess := s.StartSession()
	defer sess.StopSession()
	for k, v := range want {
		got, found := readVal(t, sess, k)
		if !found || !bytes.Equal(got, u64(v)) {
			t.Fatalf("%s: key %d: got (%x,%v), want %d", label, k, got, found, v)
		}
	}
	for k := range gone {
		if got, found := readVal(t, sess, k); found {
			t.Fatalf("%s: tombstoned key %d resurrected with %x", label, k, got)
		}
	}
}

// TestInstantRestoreFlightProvesPrefix is the instant-restore safety
// assertion run by CI: with a flight recorder attached, every read issued
// during the warm-up window must already have a warm-bucket event for its
// key's bucket (or the fully-warm sweep event) in the recorder by the time it
// returns — the recorder-visible proof that no request observed pre-prefix
// state. Values are checked against the committed image at the same time.
func TestInstantRestoreFlightProvesPrefix(t *testing.T) {
	dev, ckpts, want, gone, _ := buildRestoreImage(t, 256, 3000)

	cfg := smallConfig()
	cfg.Device, cfg.Checkpoints = dev, ckpts
	cfg.InstantRestore = true
	cfg.Flight = obs.NewFlightRecorder(1 << 14)
	r, report, err := RecoverWithReport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !report.Instant {
		t.Fatal("RecoveryReport.Instant not set for an instant restore")
	}

	sess := r.StartSession()
	defer sess.StopSession()
	mask := r.shards[0].index.mask
	warmSeen := map[uint64]bool{}
	fullyWarm := false
	refreshWarm := func() {
		evs, _ := r.Flight().Events()
		for _, ev := range evs {
			switch ev.Kind {
			case obs.FlightWarmBucket:
				warmSeen[ev.Arg1] = true
			case obs.FlightSweep:
				if ev.Arg1 == 0 {
					fullyWarm = true
				}
			}
		}
	}
	assertWarmProof := func(k uint64) {
		b := uint64(uint32(hashfn.Hash64(key(k)) & mask))
		if warmSeen[b] || fullyWarm {
			return
		}
		refreshWarm()
		if !warmSeen[b] && !fullyWarm {
			t.Fatalf("read of key %d returned but bucket %d has no warm-bucket "+
				"flight event: request may have observed pre-prefix state", k, b)
		}
	}
	for k, v := range want {
		got, found := readVal(t, sess, k)
		assertWarmProof(k)
		if !found || !bytes.Equal(got, u64(v)) {
			t.Fatalf("key %d during warm-up: got (%x,%v), want %d", k, got, found, v)
		}
	}
	for k := range gone {
		_, found := readVal(t, sess, k)
		assertWarmProof(k)
		if found {
			t.Fatalf("tombstoned key %d visible during warm-up", k)
		}
	}

	if err := r.WaitRestored(); err != nil {
		t.Fatalf("WaitRestored: %v", err)
	}
	if r.Restoring() {
		t.Fatal("Restoring() still true after WaitRestored")
	}
	st := r.RestoreStatus()
	if st == nil || st.Restoring || len(st.Shards) != 1 {
		t.Fatalf("final RestoreStatus = %+v", st)
	}
	sh := st.Shards[0]
	if sh.WarmBuckets != sh.TotalBuckets || sh.ColdBuckets != 0 {
		t.Fatalf("not fully warm: %+v", sh)
	}
	if sh.SuffixRecords == 0 || sh.ReplayedRecords != sh.SuffixRecords {
		t.Fatalf("suffix accounting off: replayed %d of %d",
			sh.ReplayedRecords, sh.SuffixRecords)
	}
	if sh.PendingRecords != 0 {
		t.Fatalf("pending records remain after full warm: %d", sh.PendingRecords)
	}
	if sh.OnDemandWarms+sh.SweepWarms == 0 {
		t.Fatal("no bucket was ever warmed by name")
	}
	if sh.TimeToWarmNanos <= 0 {
		t.Fatalf("time-to-warm not recorded: %d", sh.TimeToWarmNanos)
	}
	// Once warm the store must commit again.
	s2 := r.StartSession()
	s2.Upsert(key(9999), u64(1))
	driveCommit(t, r, []*Session{sess, s2}, CommitOptions{})
	s2.StopSession()
}

// TestInstantRestoreGatesCommitAndCompaction pins the maintenance gates
// deterministically with a hand-built restore state: Commit and CompactLog
// refuse with ErrRestoring while the shard is cold, operations warm their
// bucket and proceed, and both resume once the restore detaches.
func TestInstantRestoreGatesCommitAndCompaction(t *testing.T) {
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	if st := sess.Upsert(key(1), u64(41)); st != Ok {
		t.Fatalf("seed upsert: %v", st)
	}

	sh := s.shards[0]
	rs := newRestoreState(sh, "tok", 1, 0, 0)
	rs.analyzed = true // analysis done, buckets still cold
	sh.restore.Store(rs)

	if !s.Restoring() {
		t.Fatal("Restoring() false with an active restore")
	}
	if _, err := s.Commit(CommitOptions{}); err != ErrRestoring {
		t.Fatalf("Commit during restore: %v, want ErrRestoring", err)
	}
	if err := sess.CompactLog(^uint64(0)); err != ErrRestoring {
		t.Fatalf("CompactLog during restore: %v, want ErrRestoring", err)
	}
	st := s.RestoreStatus()
	if st == nil || !st.Restoring || st.ColdBuckets() == 0 {
		t.Fatalf("mid-restore status = %+v", st)
	}

	// Operations are never refused: they warm their bucket and proceed.
	if st := sess.Upsert(key(1), u64(42)); st != Ok {
		t.Fatalf("upsert during restore: %v", st)
	}
	if got, found := readVal(t, sess, 1); !found || !bytes.Equal(got, u64(42)) {
		t.Fatalf("read during restore: (%x,%v)", got, found)
	}
	if rs.ondemandWarms.Load() == 0 {
		t.Fatal("ops did not warm their bucket on demand")
	}

	sh.restore.Store(nil)
	driveCommit(t, s, []*Session{sess}, CommitOptions{})
}

// TestInstantRestoreStatusAfterWaitRestored is the regression test for status reads
// that inferred "restoring" from the shard's restore pointer: the pointer is
// cleared a moment after the sweep is done, which is what WaitRestored waits
// for, so a caller could be told the restore was over and then read that it was
// not. First the gap itself, held open by hand; then real restores, each asked
// for its status the instant WaitRestored returns.
func TestInstantRestoreStatusAfterWaitRestored(t *testing.T) {
	settled := func(label string, s *Store) {
		t.Helper()
		if err := s.WaitRestored(); err != nil {
			t.Fatalf("%s: WaitRestored: %v", label, err)
		}
		if st := s.RestoreStatus(); st == nil || st.Restoring {
			t.Fatalf("%s: RestoreStatus after WaitRestored = %+v", label, st)
		}
		if s.Restoring() {
			t.Fatalf("%s: Restoring() after WaitRestored", label)
		}
	}

	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	sh := s.shards[0]
	rs := newRestoreState(sh, "tok", 1, 0, 0)
	rs.analyzed, rs.sweepDone = true, true // swept; run() has not detached yet
	sh.restore.Store(rs)
	settled("sweep done, pointer still set", s)
	driveCommit(t, s, []*Session{sess}, CommitOptions{}) // not ErrRestoring
	sess.StopSession()
	s.Close()

	dev, ckpts, _, _, _ := buildRestoreImage(t, 200, 300)
	for i := 0; i < 25; i++ {
		cfg := smallConfig()
		cfg.Device, cfg.Checkpoints, cfg.InstantRestore = dev.Clone(), ckpts.Clone(), true
		r, err := Recover(cfg)
		if err != nil {
			t.Fatal(err)
		}
		settled(fmt.Sprintf("restore %d", i), r)
		r.Close()
	}
}

// TestInstantRestoreMultiShard runs the instant path on a partitioned store:
// every shard restores independently and the aggregate status covers them all.
func TestInstantRestoreMultiShard(t *testing.T) {
	ckpts := storage.NewMemCheckpointStore()
	devs := make(map[int]*storage.MemDevice)
	cfg := Config{Shards: 2, IndexBuckets: 1 << 8, PageBits: 13, MemPages: 16,
		Checkpoints: ckpts,
		DeviceFactory: func(i int) (storage.Device, error) {
			d := storage.NewMemDevice()
			devs[i] = d
			return d, nil
		}}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	want := map[uint64]uint64{}
	for i := 0; i < 512; i++ {
		k := uint64(i)
		if st := sess.Upsert(key(k), u64(k+100)); st == Pending {
			sess.CompletePending(true)
		}
		want[k] = k + 100
	}
	driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
	for i := 0; i < 512; i++ {
		k := uint64(i)
		if st := sess.Upsert(key(k), u64(k+900)); st == Pending {
			sess.CompletePending(true)
		}
		want[k] = k + 900
	}
	driveCommit(t, s, []*Session{sess}, CommitOptions{})
	sess.StopSession()
	s.Close()

	rcfg := Config{Shards: 2, IndexBuckets: 1 << 8, PageBits: 13, MemPages: 16,
		Checkpoints:    ckpts,
		DeviceFactory:  func(i int) (storage.Device, error) { return devs[i], nil },
		InstantRestore: true}
	r, report, err := RecoverWithReport(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !report.Instant {
		t.Fatal("partitioned instant restore not flagged")
	}
	checkImage(t, "multishard", r, want, nil)
	if err := r.WaitRestored(); err != nil {
		t.Fatal(err)
	}
	st := r.RestoreStatus()
	if st == nil || len(st.Shards) != 2 {
		t.Fatalf("RestoreStatus shards = %+v", st)
	}
	for _, sh := range st.Shards {
		if sh.ColdBuckets != 0 || sh.ReplayedRecords != sh.SuffixRecords {
			t.Fatalf("shard %d not cleanly warm: %+v", sh.Shard, sh)
		}
	}
}
