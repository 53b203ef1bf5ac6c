package faster

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/storage"
)

// Tests of the one commit path and the one recovery walk: what a commit
// writes, what counts as the commit record, and what the store reports as its
// latest commit, at one shard and at several.

// countingStore counts the artifacts created through it.
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

func (c *countingStore) take() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.created
	c.created = nil
	return out
}

// commitPathStore opens an n-shard store over mem devices and ckpts, with one
// session that has written keys 1..100.
func commitPathStore(t *testing.T, n int, ckpts storage.CheckpointStore) (*Store, *Session, []*storage.MemDevice) {
	t.Helper()
	devs := make([]*storage.MemDevice, n)
	for i := range devs {
		devs[i] = storage.NewMemDevice()
	}
	cfg := shardedConfig(n)
	cfg.Checkpoints = ckpts
	cfg.DeviceFactory = func(i int) (storage.Device, error) { return devs[i], nil }
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	for k := uint64(1); k <= 100; k++ {
		if st := sess.Upsert(key(k), u64(k)); st == Pending {
			sess.CompletePending(true)
		}
	}
	return s, sess, devs
}

// TestArtifactsPerCommit pins what a log-only commit writes: per shard its
// page checksums and metadata, plus the one manifest — and no pointer
// artifact at any shard count.
func TestArtifactsPerCommit(t *testing.T) {
	for n, want := range map[int]int{1: 3, 2: 5} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			cs := &countingStore{CheckpointStore: storage.NewMemCheckpointStore()}
			s, sess, _ := commitPathStore(t, n, cs)
			defer s.Close()
			defer sess.StopSession()
			driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
			cs.take()
			for c := 0; c < 3; c++ {
				sess.Upsert(key(uint64(c)), u64(7))
				res := driveCommit(t, s, []*Session{sess}, CommitOptions{})
				got := cs.take()
				if len(got) != want {
					t.Fatalf("log-only commit %s wrote %d artifacts %v, want %d", res.Token, len(got), got, want)
				}
				if last := got[len(got)-1]; last != "cpr-manifest-"+res.Token {
					t.Fatalf("last artifact of %s is %s, want the manifest", res.Token, last)
				}
			}
			names, err := cs.List()
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				if name == "latest" || name == "cpr-latest" {
					t.Fatalf("pointer artifact %q written; store holds %v", name, names)
				}
			}
		})
	}
}

// TestLatestCommitToken follows LatestCommitToken through everything that
// sets it: nothing after Open, a commit, a recovery that fell back (the
// recovered commit, not the newer skipped one), an install on a replica, and
// promotion.
func TestLatestCommitToken(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { latestCommitToken(t, n) })
	}
}

func latestCommitToken(t *testing.T, n int) {
	want := func(s *Store, what, token string) {
		t.Helper()
		if got, ok := s.LatestCommitToken(); got != token || ok != (token != "") {
			t.Fatalf("%s: LatestCommitToken = (%q, %v), want %q", what, got, ok, token)
		}
	}
	ckpts := storage.NewMemCheckpointStore()
	s, sess, devs := commitPathStore(t, n, ckpts)
	want(s, "after Open", "")
	res1 := driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
	want(s, "after commit 1", res1.Token)
	sess.Upsert(key(200), u64(200))
	res2 := driveCommit(t, s, []*Session{sess}, CommitOptions{})
	want(s, "after commit 2", res2.Token)

	// A replica of the primary as it is now: its devices' bytes and the
	// artifacts CommitShipInfo names, installed with ApplyCommitted.
	info, err := s.CommitShipInfo(res2.Token)
	if err != nil {
		t.Fatal(err)
	}
	if last := info.Artifacts[len(info.Artifacts)-1]; last != "cpr-manifest-"+res2.Token {
		t.Fatalf("ship info ends with %s, want the manifest; all: %v", last, info.Artifacts)
	}
	rcfg := shardedConfig(n)
	rcfg.Replica = true
	rcfg.Checkpoints = storage.NewMemCheckpointStore()
	rdevs := make([]*storage.MemDevice, n)
	for i := range rdevs {
		rdevs[i] = devs[i].Clone()
	}
	rcfg.DeviceFactory = func(i int) (storage.Device, error) { return rdevs[i], nil }
	rep, err := Open(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	for _, name := range info.Artifacts[:len(info.Artifacts)-1] {
		raw, err := storage.ReadArtifact(ckpts, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := storage.WriteArtifact(rcfg.Checkpoints, name, raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.ApplyCommitted(res2.Token); err == nil || !strings.Contains(err.Error(), "manifest") {
		t.Fatalf("install without the manifest: err = %v, want a manifest error", err)
	}
	want(rep, "replica before install", "")
	raw, err := storage.ReadArtifact(ckpts, "cpr-manifest-"+res2.Token)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteArtifact(rcfg.Checkpoints, "cpr-manifest-"+res2.Token, raw); err != nil {
		t.Fatal(err)
	}
	if err := rep.ApplyCommitted(res2.Token); err != nil {
		t.Fatal(err)
	}
	want(rep, "replica after install", res2.Token)
	if got := rep.RecoveredPoint(sess.ID()); got != res2.Serials[sess.ID()] {
		t.Fatalf("replica installed point %d, want %d", got, res2.Serials[sess.ID()])
	}
	if err := rep.Promote(); err != nil {
		t.Fatal(err)
	}
	want(rep, "after Promote", res2.Token)

	// Recovery that falls back: the newest manifest is damaged.
	sess.StopSession()
	s.Close()
	raw[len(raw)-1] ^= 0x01
	if err := storage.WriteArtifact(ckpts, "cpr-manifest-"+res2.Token, raw); err != nil {
		t.Fatal(err)
	}
	cfg := shardedConfig(n)
	cfg.Checkpoints = ckpts
	cfg.DeviceFactory = func(i int) (storage.Device, error) { return devs[i], nil }
	r, report, err := RecoverWithReport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if report.Token != res1.Token || len(report.Skipped) != 1 || report.Skipped[0].Token != res2.Token {
		t.Fatalf("recovered %s skipping %v, want %s skipping %s", report.Token, report.Skipped, res1.Token, res2.Token)
	}
	want(r, "after fallback recovery", res1.Token)
}

// TestAttachmentFailureFailsCommit: a commit attachment that returns an error
// fails the commit — after the manifest — so the commit is never announced:
// no session watermark moves, no commit hook fires, LatestCommitToken stays.
// The next commit, with the attachment healthy again, goes through.
func TestAttachmentFailureFailsCommit(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			ckpts := storage.NewMemCheckpointStore()
			s, sess, _ := commitPathStore(t, n, ckpts)
			defer s.Close()
			defer sess.StopSession()
			boom := errors.New("attachment unavailable")
			failing := true
			s.OnCommitArtifact(func(res CommitResult) (string, []byte, error) {
				if failing {
					return "", nil, boom
				}
				return "note-" + res.Token, []byte("ok"), nil
			})
			hooked := make(chan string, 2) // hooks fire after the result is visible
			s.OnCommit(func(res CommitResult) { hooked <- res.Token })

			token, err := s.Commit(CommitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var res CommitResult
			for ok := false; !ok; res, ok = s.TryResult(token) {
				sess.Refresh()
				sess.CompletePending(false)
			}
			if !errors.Is(res.Err, boom) {
				t.Fatalf("commit %s: err = %v, want the attachment's", token, res.Err)
			}
			if _, err := storage.ReadArtifactChecked(ckpts, "cpr-manifest-"+token); err != nil {
				t.Fatalf("attachments run after the manifest, which is missing: %v", err)
			}
			if got := sess.CommittedSerial(); got != 0 {
				t.Fatalf("CommittedSerial = %d after a failed commit, want 0", got)
			}
			if tok, ok := s.LatestCommitToken(); ok {
				t.Fatalf("LatestCommitToken = %s after a failed commit", tok)
			}

			failing = false
			res = driveCommit(t, s, []*Session{sess}, CommitOptions{})
			if got := sess.CommittedSerial(); got != 100 {
				t.Fatalf("CommittedSerial = %d after the retry, want 100", got)
			}
			if first := <-hooked; first != res.Token {
				t.Fatalf("first commit hook fired for %s, want only for %s", first, res.Token)
			}
			if _, err := storage.ReadArtifactChecked(ckpts, "note-"+res.Token); err != nil {
				t.Fatalf("attachment of %s: %v", res.Token, err)
			}
		})
	}
}

// TestRecoverShardCountMismatch: the manifest records the shard count, and a
// store opened with any other is a hard error in both directions — never
// ErrNoCheckpoint, on which callers start a fresh store.
func TestRecoverShardCountMismatch(t *testing.T) {
	for _, c := range []struct{ wrote, opens int }{{1, 2}, {2, 1}, {2, 4}} {
		t.Run(fmt.Sprintf("%dto%d", c.wrote, c.opens), func(t *testing.T) {
			ckpts := storage.NewMemCheckpointStore()
			s, sess, _ := commitPathStore(t, c.wrote, ckpts)
			driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
			sess.StopSession()
			s.Close()

			cfg := shardedConfig(c.opens)
			cfg.Checkpoints = ckpts
			_, err := Recover(cfg)
			want := fmt.Sprintf("manifest has %d shards, config has %d", c.wrote, c.opens)
			if err == nil || errors.Is(err, ErrNoCheckpoint) || !strings.Contains(err.Error(), want) {
				t.Fatalf("Recover = %v, want a hard error saying %q", err, want)
			}
		})
	}
}

// TestRecoverWithoutManifest tells the two manifest-less stores apart. Stray
// shard artifacts alone are a crash inside the very first commit: nothing was
// ever committed, ErrNoCheckpoint. A top-level "latest" pointer is a store
// written before the manifest was the single-shard commit record: it holds
// commits this version cannot read, and saying "no checkpoint" would let the
// caller start a fresh store over them.
func TestRecoverWithoutManifest(t *testing.T) {
	ckpts := storage.NewMemCheckpointStore()
	s, sess, devs := commitPathStore(t, 1, ckpts)
	res := driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
	sess.StopSession()
	s.Close()
	if err := ckpts.Remove("cpr-manifest-" + res.Token); err != nil {
		t.Fatal(err)
	}
	cfg := shardedConfig(1)
	cfg.Checkpoints = ckpts
	cfg.DeviceFactory = func(i int) (storage.Device, error) { return devs[i], nil }
	if _, err := Recover(cfg); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("stray meta, no manifest, no pointer: Recover = %v, want ErrNoCheckpoint", err)
	}
	if err := storage.WriteArtifactChecked(ckpts, "latest", []byte(res.Token)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2} {
		cfg.Shards = n
		_, err := Recover(cfg)
		if err == nil || errors.Is(err, ErrNoCheckpoint) || !strings.Contains(err.Error(), "pre-manifest") {
			t.Fatalf("pre-manifest layout opened with %d shards: Recover = %v, want a hard error naming it", n, err)
		}
	}
}
