package faster

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/ycsb"
)

// The fault-torture harness: a concurrent YCSB-style workload runs over a
// fault-injected device and checkpoint store while commits fire; named crash
// points sweep the interesting instants of each commit's artifact sequence
// (before, mid-write and after the commit record, and mid-write and after the
// index and snapshot blobs of a commit that writes them) and snapshot the
// "disk" there. Every snapshot is then recovered and held to the CPR contract:
// for each session, exactly the operations up to its recovered CPR point are
// present. A snapshot without the newest commit's record recovers the previous
// commit and says nothing of the unfinished one; a snapshot whose newest record
// is torn must demote to the previous fully-verifiable commit — not error out —
// with the skip recorded in the RecoveryReport.
//
// The workload is the self-describing one from TestCrashAtRandomPoints:
// session i's operation n upserts key (i, n%keysPer) = n, so the expected
// value of every key is computable from the recovered point alone.

const (
	tortureSessions = 3
	tortureKeysPer  = 32
)

// tortureSnapshot is one captured crash image plus what must hold for it.
type tortureSnapshot struct {
	label string
	devs  []*storage.MemDevice
	ckpts *storage.MemCheckpointStore
	// completed is how many commits had fully completed when the image was
	// taken. When > 0 (or the image was taken after the commit's record
	// was durable), recovery MUST succeed.
	completed int
	// wantSkip: the image holds a torn newest record over >= 1 completed
	// commit, so recovery must both succeed and report a skipped commit.
	wantSkip bool
}

func tortureWorkload(t *testing.T, s *Store) (ids []string, stopFn func()) {
	t.Helper()
	ids = make([]string, tortureSessions)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < tortureSessions; i++ {
		i := i
		sess := s.StartSession()
		ids[i] = sess.ID()
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := ycsb.NewRNG(uint64(i) + 177)
			var kb, vb [8]byte
			for n := uint64(1); ; n++ {
				if n%64 == 0 && stop.Load() {
					break
				}
				binary.LittleEndian.PutUint64(kb[:], uint64(i)<<32|n%tortureKeysPer)
				binary.LittleEndian.PutUint64(vb[:], n)
				if st := sess.Upsert(kb[:], vb[:]); st == Pending {
					sess.CompletePending(true)
				}
				if rng.Intn(997) == 0 {
					sess.CompletePending(false)
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
	return ids, func() { stop.Store(true); wg.Wait() }
}

// assertPrefix checks the CPR contract on a recovered store for every
// workload session.
func assertPrefix(t *testing.T, label string, r *Store, ids []string) {
	t.Helper()
	for i := 0; i < tortureSessions; i++ {
		rs, point := r.ContinueSession(ids[i])
		for k := uint64(0); k < tortureKeysPer; k++ {
			var want uint64
			if point > 0 {
				want = point - (point+tortureKeysPer-k)%tortureKeysPer
			}
			var kb [8]byte
			binary.LittleEndian.PutUint64(kb[:], uint64(i)<<32|k)
			var got uint64
			var found, done bool
			_, st := rs.Read(kb[:], func(v []byte, s2 Status) {
				done = true
				if s2 == Ok {
					got, found = binary.LittleEndian.Uint64(v), true
				}
			})
			if st == Pending {
				rs.CompletePending(true)
			}
			if !done {
				t.Fatalf("%s session %d key %d: read never completed", label, i, k)
			}
			if want == 0 {
				if found {
					t.Fatalf("%s session %d key %d: phantom value %d past point %d",
						label, i, k, got, point)
				}
				continue
			}
			if !found || got != want {
				t.Fatalf("%s session %d key %d: got (%d,%v), want %d (point %d)",
					label, i, k, got, found, want, point)
			}
		}
		rs.StopSession()
	}
}

// TestFaultTortureSweep arms crash points at every interesting instant of a
// sequence of commits — running the workload over transiently-faulty storage
// the whole time — and verifies each crash image recovers to a valid CPR
// prefix: at one shard and at four, under fold-over and snapshot commits,
// log-only and with the index as the seed has it.
func TestFaultTortureSweep(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		for _, shards := range []int{1, 4} {
			for _, kind := range []CommitKind{FoldOver, Snapshot} {
				t.Run(fmt.Sprintf("seed=%d/shards=%d/%v", seed, shards, kind), func(t *testing.T) {
					tortureSweep(t, seed, shards, kind)
				})
			}
		}
	}
}

func tortureSweep(t *testing.T, seed uint64, shards int, kind CommitKind) {
	const commits = 4

	memDevs := make([]*storage.MemDevice, shards)
	for i := range memDevs {
		memDevs[i] = storage.NewMemDevice()
	}
	memCk := storage.NewMemCheckpointStore()
	// Low transient pressure keeps the workload and commits succeeding via
	// retries while still exercising the self-healing paths.
	inj := storage.NewInjector(storage.FaultConfig{
		Seed:           seed,
		ReadErrorRate:  0.002,
		WriteErrorRate: 0.002,
		TornWriteRate:  0.001,
	})
	config := func(ckpts storage.CheckpointStore, device func(i int) storage.Device) Config {
		return Config{Shards: shards, IndexBuckets: shards << 8, PageBits: 13, MemPages: 8 * shards, Checkpoints: ckpts,
			DeviceFactory: func(i int) (storage.Device, error) { return device(i), nil }}
	}
	s, err := Open(config(storage.NewFaultCheckpointStore(memCk, inj),
		func(i int) storage.Device { return storage.NewFaultDevice(memDevs[i], inj) }))
	if err != nil {
		t.Fatal(err)
	}
	ids, stop := tortureWorkload(t, s)

	var snapMu sync.Mutex // the legs' crash points fire on the legs' goroutines
	var snaps []*tortureSnapshot
	var completed atomic.Int64
	// Crash order: checkpoint store first, then the devices (the record is only
	// written after its log data is durable, so this order never captures a
	// record whose data is missing). The crash points fire on the commit's
	// goroutines; the record's after every leg's.
	capture := func(label string, wantSkip bool) *tortureSnapshot {
		return &tortureSnapshot{
			label:     label,
			ckpts:     memCk.Clone(),
			devs:      cloneDevs(memDevs),
			completed: int(completed.Load()),
			wantSkip:  wantSkip,
		}
	}

	rng := ycsb.NewRNG(seed * 1000003)
	for c := 1; c <= commits; c++ {
		// Commit tokens are sequential, so the artifact names of commit c are
		// known before it starts — arm this round's crash points now.
		token := fmt.Sprintf("ckpt-%06d", c)
		for _, label := range []string{
			"torn:" + blobName("index", token, 0), "after:" + blobName("index", token, shards-1),
			"torn:" + blobName("snapshot", token, shards-1), "after:" + blobName("snapshot", token, 0),
			"before:" + storage.RecordName(token), "torn:" + storage.RecordName(token), "after:" + storage.RecordName(token)} {
			inj.Arm(label, func() {
				// A torn newest record over >= 1 completed commit must
				// demote, and the demotion must be reported.
				wantSkip := label == "torn:"+storage.RecordName(token) && completed.Load() > 0
				snapMu.Lock()
				snaps = append(snaps, capture(label, wantSkip))
				snapMu.Unlock()
			})
		}
		tok, err := s.Commit(CommitOptions{WithIndex: rng.Intn(2) == 0, Kind: &kind})
		if err != nil {
			t.Fatal(err)
		}
		if tok != token {
			t.Fatalf("commit token %s, expected %s", tok, token)
		}
		var res CommitResult
		for {
			var ok bool
			if res, ok = s.TryResult(tok); ok {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		if res.Err != nil {
			t.Fatalf("commit %s failed: %v", tok, res.Err)
		}
		completed.Add(1)
		// One more image mid-workload, after the commit fully completed.
		time.Sleep(time.Duration(1+rng.Intn(4)) * time.Millisecond)
		snapMu.Lock()
		snaps = append(snaps, capture(fmt.Sprintf("steady-after-%s", tok), false))
		snapMu.Unlock()
	}
	stop()
	s.Close()

	if len(snaps) < 4*commits { // three around each record, one steady
		t.Fatalf("only %d crash images captured, expected at least %d", len(snaps), 4*commits)
	}
	recovered := 0
	for _, snap := range snaps {
		r, report, err := RecoverWithReport(config(snap.ckpts, func(i int) storage.Device { return snap.devs[i] }))
		if err != nil {
			if snap.completed > 0 || snap.label == "after:cpr-manifest-ckpt-000001" {
				t.Fatalf("%s: recovery failed despite a verifiable commit: %v", snap.label, err)
			}
			continue // no commit had completed; a fresh-store outcome is legal
		}
		recovered++
		if snap.wantSkip && len(report.Skipped) == 0 {
			t.Fatalf("%s: torn newest commit recovered without a skip report (token %s)",
				snap.label, report.Token)
		}
		for _, sk := range report.Skipped {
			if sk.Token == report.Token {
				t.Fatalf("%s: commit %s both skipped and recovered", snap.label, sk.Token)
			}
		}
		assertPrefix(t, snap.label, r, ids)
		r.Close()
	}
	if recovered == 0 {
		t.Fatal("no crash image recovered; broken commits or too-early snapshots")
	}
}

// TestRecoveryFallbackOnCorruptNewest corrupts a blob the newest commit's
// record names, its index image, in place after a clean shutdown: the record
// reads, the commit does not verify, and recovery must land on the previous commit
// with a non-empty report, not fail — and a fresh commit afterwards must not
// reuse the skipped token.
func TestRecoveryFallbackOnCorruptNewest(t *testing.T) {
	dev := storage.NewMemDevice()
	ckpts := storage.NewMemCheckpointStore()
	cfg := Config{IndexBuckets: 1 << 8, PageBits: 13, MemPages: 8,
		Device: dev, Checkpoints: ckpts}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids, stop := tortureWorkload(t, s)
	tokens := make([]string, 2)
	for c := 0; c < 2; c++ {
		tok, err := s.Commit(CommitOptions{WithIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		tokens[c] = tok
		for {
			if res, ok := s.TryResult(tok); ok {
				if res.Err != nil {
					t.Fatalf("commit %s: %v", tok, res.Err)
				}
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	stop()
	s.Close()

	// Flip one byte of the newest commit's index blob.
	raw, err := storage.ReadArtifact(ckpts, blobName("index", tokens[1], 0))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	putRaw(t, ckpts, blobName("index", tokens[1], 0), raw)

	r, report, err := RecoverWithReport(Config{IndexBuckets: 1 << 8, PageBits: 13,
		MemPages: 8, Device: dev, Checkpoints: ckpts})
	if err != nil {
		t.Fatalf("recovery must demote, not fail: %v", err)
	}
	defer r.Close()
	if report.Token != tokens[0] {
		t.Fatalf("recovered %s, want fallback to %s", report.Token, tokens[0])
	}
	if len(report.Skipped) == 0 {
		t.Fatal("fallback recovery reported no skipped commits")
	}
	if report.Skipped[0].Token != tokens[1] {
		t.Fatalf("skip names %s, want %s", report.Skipped[0].Token, tokens[1])
	}
	if got := r.RecoveryReport(); got == nil || got.Token != report.Token {
		t.Fatal("store does not expose its recovery report")
	}
	assertPrefix(t, "fallback", r, ids)

	// The next commit must mint a token strictly after the corrupt one.
	sess := r.StartSession()
	defer sess.StopSession()
	sess.Upsert([]byte("k"), []byte("v"))
	tok, err := r.Commit(CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if res, ok := r.TryResult(tok); ok {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			break
		}
		sess.Refresh()
		time.Sleep(100 * time.Microsecond)
	}
	if tok <= tokens[1] {
		t.Fatalf("fresh commit token %s collides with skipped commit %s", tok, tokens[1])
	}
}

// TestRecoveryFallbackOnCorruptManifest is the partitioned variant, with the
// damage in the commit record itself: the newest manifest corrupted, recovery
// demotes to the previous manifest's commit on every shard.
func TestRecoveryFallbackOnCorruptManifest(t *testing.T) {
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
	ids, stop := tortureWorkload(t, s)
	tokens := make([]string, 2)
	for c := 0; c < 2; c++ {
		tok, err := s.Commit(CommitOptions{WithIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		tokens[c] = tok
		for {
			if res, ok := s.TryResult(tok); ok {
				if res.Err != nil {
					t.Fatalf("commit %s: %v", tok, res.Err)
				}
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	stop()
	s.Close()

	raw, err := storage.ReadArtifact(ckpts, "cpr-manifest-"+tokens[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	putRaw(t, ckpts, "cpr-manifest-"+tokens[1], raw)

	rcfg := Config{Shards: 2, IndexBuckets: 1 << 8, PageBits: 13, MemPages: 16,
		Checkpoints:   ckpts,
		DeviceFactory: func(i int) (storage.Device, error) { return devs[i], nil }}
	r, report, err := RecoverWithReport(rcfg)
	if err != nil {
		t.Fatalf("partitioned recovery must demote, not fail: %v", err)
	}
	defer r.Close()
	if report.Token != tokens[0] {
		t.Fatalf("recovered %s, want fallback to %s", report.Token, tokens[0])
	}
	if len(report.Skipped) == 0 {
		t.Fatal("fallback recovery reported no skipped commits")
	}
	assertPrefix(t, "manifest-fallback", r, ids)
}
