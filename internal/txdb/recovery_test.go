package txdb

import (
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Tests of the commit layout: a commit is its capture plus one record that
// names the capture chain, recovery falls back past a commit that does not
// verify, a recovered database never hands out a token the store holds, and a
// store of another layout is refused by name.

// recoverWithin runs Recover under a deadline: a record chain that loops must
// fail the test, not hang it.
func recoverWithin(t *testing.T, cfg Config, d time.Duration) *DB {
	t.Helper()
	type result struct {
		db  *DB
		err error
	}
	done := make(chan result, 1)
	go func() {
		db, err := Recover(cfg)
		done <- result{db, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.db
	case <-time.After(d):
		t.Fatalf("Recover did not return within %v", d)
		return nil
	}
}

func checkValues(t *testing.T, db *DB, want map[uint64]uint64) {
	t.Helper()
	for k, v := range want {
		if got := binary.LittleEndian.Uint64(db.ReadValue(k, nil)); got != v {
			t.Fatalf("key %d = %d, want %d", k, got, v)
		}
	}
}

// tokenIn returns the commit token an artifact name carries ("" for none).
func tokenIn(name string) string {
	i := strings.LastIndex(name, "ckpt-")
	if i < 0 {
		return ""
	}
	return name[i : i+len("ckpt-000000")]
}

// TestRecoverCommitRecover: three commits, a recovery, one more commit, and a
// second recovery that lands on all four. The second life's commit takes a
// token no artifact in the store carries: reusing ckpt-000001 overwrote the
// chain's full base with a delta and made the chain a loop, and without
// Incremental it overwrote commit 1's capture under commits 2 and 3.
func TestRecoverCommitRecover(t *testing.T) {
	for _, incremental := range []bool{true, false} {
		name := "full"
		if incremental {
			name = "incremental"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Records: 16, Checkpoints: storage.NewMemCheckpointStore(), Incremental: incremental, FullEvery: 8}
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w := db.NewWorker()
			want := map[uint64]uint64{}
			for k := uint64(0); k < 3; k++ {
				writeKey(t, w, k, 100+k)
				want[k] = 100 + k
				driveCommit(t, db, []*Worker{w})
			}
			w.Close()
			db.Close()

			db = recoverWithin(t, cfg, 5*time.Second)
			checkValues(t, db, want)
			names, err := cfg.Checkpoints.List()
			if err != nil {
				t.Fatal(err)
			}
			w = db.NewWorker()
			writeKey(t, w, 10, 1010)
			want[10] = 1010
			res := driveCommit(t, db, []*Worker{w})
			for _, n := range names {
				if tok := tokenIn(n); tok != "" && res.Token <= tok {
					t.Errorf("second life's commit took %s, not after %s (artifact %s)", res.Token, tok, n)
					break
				}
			}
			if res.Delta != incremental {
				t.Fatalf("second life's commit: delta %v, want %v", res.Delta, incremental)
			}
			w.Close()
			db.Close()

			db = recoverWithin(t, cfg, 5*time.Second)
			defer db.Close()
			checkValues(t, db, want)
		})
	}
}

// TestRecoverFallsBackPastDamagedCommit: with the newest commit's capture
// damaged or gone, Recover lands on the commit before it and reports the skip
// as a recover-fallback flight event, as FASTER's does. A store of the layout
// before the record (latest + meta- + data-) is refused by name.
func TestRecoverFallsBackPastDamagedCommit(t *testing.T) {
	for _, c := range []struct {
		name   string
		damage func(cs storage.CheckpointStore, blob string) error
	}{
		{"torn capture", func(cs storage.CheckpointStore, blob string) error {
			w, err := cs.Create(blob)
			if err != nil {
				return err
			}
			w.Write([]byte("CPR2garbage")) //nolint:errcheck // in-memory
			return w.Close()
		}},
		{"capture gone", func(cs storage.CheckpointStore, blob string) error { return cs.Remove(blob) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, incremental := range []bool{false, true} {
				cs := storage.NewMemCheckpointStore()
				cfg := Config{Records: 16, Checkpoints: cs, Incremental: incremental}
				db, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				w := db.NewWorker()
				writeKey(t, w, 1, 11)
				first := driveCommit(t, db, []*Worker{w})
				writeKey(t, w, 1, 22)
				second := driveCommit(t, db, []*Worker{w})
				w.Close()
				db.Close()
				if err := c.damage(cs, "data-"+second.Token); err != nil {
					t.Fatal(err)
				}

				cfg.Flight = obs.NewFlightRecorder(obs.DefaultFlightCapacity)
				r := recoverWithin(t, cfg, 5*time.Second)
				checkValues(t, r, map[uint64]uint64{1: 11})
				if r.Version() != first.Version+1 {
					t.Fatalf("recovered at version %d, want %d (commit %s)", r.Version(), first.Version+1, first.Token)
				}
				evs, _ := cfg.Flight.Events()
				var skipped []string
				for _, e := range evs {
					if e.Kind == obs.FlightRecoverFallback {
						skipped = append(skipped, e.Token)
					}
				}
				if len(skipped) != 1 || skipped[0] != second.Token {
					t.Fatalf("recover-fallback events for %v, want one for %s", skipped, second.Token)
				}
				r.Close()
			}
		})
	}

	t.Run("parent layout", func(t *testing.T) {
		cs := storage.NewMemCheckpointStore()
		for name, payload := range map[string]string{
			"data-ckpt-000001": string(make([]byte, 16*8)),
			"meta-ckpt-000001": `{"token":"ckpt-000001","version":1,"records":16,"value_size":8,"delta":false}`,
			"latest":           "ckpt-000001",
		} {
			if err := storage.WriteArtifactChecked(cs, name, []byte(payload)); err != nil {
				t.Fatal(err)
			}
		}
		_, err := Recover(Config{Records: 16, Checkpoints: cs})
		if err == nil || !errors.Is(err, storage.ErrForeignLayout) || !strings.Contains(err.Error(), "txdb's latest + meta-<token> + data-<token>") {
			t.Fatalf("Recover over latest + meta- + data- = %v, want a hard error naming that layout", err)
		}
	})
}

// countingStore records the artifacts created through it, in order.
type countingStore struct {
	storage.CheckpointStore
	mu      sync.Mutex
	created []string
}

func (c *countingStore) Create(name string) (io.WriteCloser, error) {
	c.mu.Lock()
	c.created = append(c.created, name)
	c.mu.Unlock()
	return c.CheckpointStore.Create(name)
}

func (c *countingStore) take() (out []string) {
	c.mu.Lock()
	out, c.created = c.created, nil
	c.mu.Unlock()
	return out
}

// TestArtifactsPerDBCommit pins what a commit writes, the way
// faster.TestArtifactsPerCommit does: a full commit and a delta commit are each
// their capture and then their record, and no pointer or metadata artifact is
// ever written.
func TestArtifactsPerDBCommit(t *testing.T) {
	for _, eng := range []EngineKind{EngineCPR, EngineCALC} {
		t.Run(eng.String(), func(t *testing.T) {
			cs := &countingStore{CheckpointStore: storage.NewMemCheckpointStore()}
			db := mustOpen(t, Config{Records: 64, Engine: eng, Checkpoints: cs, Incremental: true, FullEvery: 2})
			defer db.Close()
			w := db.NewWorker()
			defer w.Close()
			for i, wantDelta := range []bool{false, true, false, true} {
				writeKey(t, w, uint64(i), uint64(i))
				res := driveCommit(t, db, []*Worker{w})
				got := cs.take()
				if res.Delta != wantDelta {
					t.Fatalf("commit %s: delta %v, want %v", res.Token, res.Delta, wantDelta)
				}
				if len(got) != 2 || got[1] != storage.RecordName(res.Token) {
					t.Fatalf("commit %s (delta %v) wrote %v, want its capture and then its record", res.Token, res.Delta, got)
				}
			}
			names, _ := cs.List()
			for _, n := range names {
				if n == "latest" || strings.HasPrefix(n, "meta-") {
					t.Fatalf("artifact %q written; store holds %v", n, names)
				}
			}
		})
	}
}

// TestEnginesRefuseEachOther: txdb and FASTER write records under the same
// name, and each refuses the other's by name — a hard error, never a fall-back
// or a fresh start.
func TestEnginesRefuseEachOther(t *testing.T) {
	txCkpts := storage.NewMemCheckpointStore()
	db := mustOpen(t, Config{Records: 16, Checkpoints: txCkpts})
	w := db.NewWorker()
	writeKey(t, w, 1, 1)
	driveCommit(t, db, []*Worker{w})
	w.Close()
	db.Close()

	fCkpts := storage.NewMemCheckpointStore()
	fcfg := faster.Config{IndexBuckets: 1 << 8, PageBits: 12, MemPages: 8, Device: storage.NewMemDevice(), Checkpoints: fCkpts}
	s, err := faster.Open(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	sess.Upsert([]byte("k"), []byte("v"))
	token, err := s.Commit(faster.CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; runtime.Gosched() { // bounded like awaitCommit
		if res, ok := s.TryResult(token); ok {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("commit %s did not finish in 30 s", token)
		}
		sess.Refresh()
	}
	sess.StopSession()
	s.Close()

	fcfg.Checkpoints, fcfg.Device = txCkpts, storage.NewMemDevice()
	if _, err := faster.Recover(fcfg); err == nil || errors.Is(err, faster.ErrNoCheckpoint) ||
		!errors.Is(err, storage.ErrForeignLayout) || !strings.Contains(err.Error(), "txdb commit records") {
		t.Fatalf("FASTER over txdb's store: Recover = %v, want a hard error naming txdb's records", err)
	}
	if _, err := Recover(Config{Records: 16, Checkpoints: fCkpts}); err == nil ||
		!errors.Is(err, storage.ErrForeignLayout) || !strings.Contains(err.Error(), "FASTER commit records") {
		t.Fatalf("txdb over FASTER's store: Recover = %v, want a hard error naming FASTER's records", err)
	}
}
