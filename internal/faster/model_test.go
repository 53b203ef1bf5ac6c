package faster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/storage"
	"repro/internal/ycsb"
)

// TestModelWithCommitsAndRecovery interleaves random ops with commits and a
// final crash/recover, comparing against the model state captured at the
// session's CPR point.
func TestModelWithCommitsAndRecovery(t *testing.T) {
	for _, kind := range []CommitKind{FoldOver, Snapshot} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			dev := storage.NewMemDevice()
			ckpts := storage.NewMemCheckpointStore()
			cfg := Config{IndexBuckets: 1 << 8, PageBits: 13, MemPages: 6,
				Device: dev, Checkpoints: ckpts, Kind: kind}
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sess := s.StartSession()
			id := sess.ID()

			model := map[uint64]uint64{}      // live model
			var snapshots []map[uint64]uint64 // model at each op boundary
			rng := ycsb.NewRNG(999)
			const keys = 150
			const rounds = 4
			const opsPerRound = 4000

			var lastCPR uint64
			for r := 0; r < rounds; r++ {
				for i := 0; i < opsPerRound; i++ {
					k := rng.Intn(keys)
					switch rng.Intn(3) {
					case 0:
						v := rng.Next()
						if st := sess.Upsert(key(k), u64(v)); st == Pending {
							sess.CompletePending(true)
						}
						model[k] = v
					case 1:
						d := rng.Intn(10)
						if st := sess.RMW(key(k), u64(d)); st == Pending {
							sess.CompletePending(true)
						}
						model[k] += d
					case 2:
						if st := sess.Delete(key(k)); st == Pending {
							sess.CompletePending(true)
						}
						delete(model, k)
					}
					// Snapshot the model at every serial so we can look up
					// the state at an arbitrary CPR point.
					snap := make(map[uint64]uint64, len(model))
					for mk, mv := range model {
						snap[mk] = mv
					}
					snapshots = append(snapshots, snap)
				}
				res := driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: r == 0})
				lastCPR = res.Serials[id]
			}
			sess.StopSession()
			s.Close()

			r2, err := Open(Config{IndexBuckets: 1 << 8, PageBits: 13, MemPages: 6,
				Device: dev, Checkpoints: ckpts, Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			defer r2.Close()
			rs, point := r2.ContinueSession(id)
			defer rs.StopSession()
			if point != lastCPR {
				t.Fatalf("recovered point %d != last commit point %d", point, lastCPR)
			}
			if point == 0 || point > uint64(len(snapshots)) {
				t.Fatalf("implausible CPR point %d", point)
			}
			want := snapshots[point-1] // state after operation #point
			for k := uint64(0); k < keys; k++ {
				var got uint64
				var found, done bool
				_, st := rs.Read(key(k), func(v []byte, s2 Status) {
					done = true
					if s2 == Ok {
						got, found = binary.LittleEndian.Uint64(v), true
					}
				})
				if st == Pending {
					rs.CompletePending(true)
				}
				if !done {
					t.Fatalf("read callback never fired for key %d", k)
				}
				wv, exists := want[k]
				if found != exists || (found && got != wv) {
					t.Fatalf("%v: recovered key %d = (%d,%v), model at CPR point %d = (%d,%v)",
						kind, k, got, found, point, wv, exists)
				}
			}
		})
	}
}

// TestRecoveryIdempotent recovers twice from the same artifacts and checks
// the stores agree on every key.
func TestRecoveryIdempotent(t *testing.T) {
	dev := storage.NewMemDevice()
	ckpts := storage.NewMemCheckpointStore()
	cfg := smallConfig()
	cfg.Device = dev
	cfg.Checkpoints = ckpts
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	for i := uint64(0); i < 300; i++ {
		sess.Upsert(key(i), u64(i^0xABCD))
	}
	driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
	sess.StopSession()
	s.Close()

	read := func(store *Store, k uint64) ([]byte, Status) {
		sx := store.StartSession()
		defer sx.StopSession()
		v, st := sx.Read(key(k), nil)
		if st == Pending {
			sx.CompletePending(true)
		}
		return append([]byte(nil), v...), st
	}
	c1 := cfg
	r1, err := Open(c1)
	if err != nil {
		t.Fatal(err)
	}
	c2 := cfg
	r2, err := Open(c2)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	defer r2.Close()
	for i := uint64(0); i < 300; i++ {
		v1, s1 := read(r1, i)
		v2, s2 := read(r2, i)
		if s1 != s2 || !bytes.Equal(v1, v2) {
			t.Fatalf("key %d: recover#1 (%v,%v) != recover#2 (%v,%v)", i, v1, s1, v2, s2)
		}
	}
}

// TestCrashRecoverCycles performs several commit/crash/recover cycles,
// verifying values accumulate correctly across generations.
func TestCrashRecoverCycles(t *testing.T) {
	dev := storage.NewMemDevice()
	ckpts := storage.NewMemCheckpointStore()
	base := smallConfig()
	base.Device = dev
	base.Checkpoints = ckpts

	var id string
	for cycle := 0; cycle < 4; cycle++ {
		var s *Store
		var err error
		if cycle == 0 {
			s, err = Open(base)
		} else {
			s, err = Open(base)
		}
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		var sess *Session
		if cycle == 0 {
			sess = s.StartSession()
			id = sess.ID()
		} else {
			sess, _ = s.ContinueSession(id)
		}
		// Each cycle adds +1 to 100 counters, commits, then writes garbage
		// that the crash discards.
		for i := uint64(0); i < 100; i++ {
			if st := sess.RMW(key(i), u64(1)); st == Pending {
				sess.CompletePending(true)
			}
		}
		driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: cycle%2 == 0})
		for i := uint64(0); i < 100; i++ {
			sess.Upsert(key(i), u64(0xDEAD))
		}
		sess.StopSession()
		s.Close() // crash
	}

	final, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	fs, _ := final.ContinueSession(id)
	defer fs.StopSession()
	for i := uint64(0); i < 100; i++ {
		v, st := fs.Read(key(i), func(v []byte, s2 Status) {
			if s2 != Ok || binary.LittleEndian.Uint64(v) != 4 {
				t.Errorf("key %d: cb %v %v, want 4", i, v, s2)
			}
		})
		if st == Pending {
			fs.CompletePending(true)
		} else if st != Ok || binary.LittleEndian.Uint64(v) != 4 {
			t.Fatalf("key %d = %v (%v), want 4 after 4 cycles", i, v, st)
		}
	}
}

// TestValueSizes100B covers the paper's 100-byte value configuration.
func TestValueSizes100B(t *testing.T) {
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	val := make([]byte, 100)
	for i := range val {
		val[i] = byte(i)
	}
	for i := uint64(0); i < 500; i++ {
		if st := sess.Upsert(key(i), val); st != Ok {
			t.Fatalf("upsert %d: %v", i, st)
		}
	}
	got, st := sess.Read(key(123), nil)
	if st == Pending {
		sess.CompletePending(true)
	} else if st != Ok || !bytes.Equal(got, val) {
		t.Fatalf("100B value mismatch: %v (%v)", got, st)
	}
	_ = fmt.Sprintf
}
