package faster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/hlog"
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

// TestArtifactsPerCommit pins what a commit writes, at every shard count: a
// log-only commit its record and nothing else, attachment or not; a commit
// with the index one blob per shard besides; a snapshot commit one more per
// shard. The record is the last artifact of every commit, and no pointer
// artifact is written.
func TestArtifactsPerCommit(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			cs := &countingStore{CheckpointStore: storage.NewMemCheckpointStore()}
			s, sess, _ := commitPathStore(t, n, cs)
			defer s.Close()
			defer sess.StopSession()
			snapshot := Snapshot
			commit := func(what string, opts CommitOptions, want int) {
				t.Helper()
				sess.Upsert(key(7), u64(7))
				res := driveCommit(t, s, []*Session{sess}, opts)
				got := cs.take()
				if len(got) != want {
					t.Fatalf("%s commit %s wrote %d artifacts %v, want %d", what, res.Token, len(got), got, want)
				}
				if last := got[len(got)-1]; last != "cpr-manifest-"+res.Token {
					t.Fatalf("last artifact of %s is %s, want the record", res.Token, last)
				}
			}
			commit("with-index", CommitOptions{WithIndex: true}, 1+n)
			commit("log-only", CommitOptions{}, 1)
			commit("snapshot", CommitOptions{Kind: &snapshot}, 1+n)
			commit("snapshot with-index", CommitOptions{Kind: &snapshot, WithIndex: true}, 1+2*n)
			s.OnCommitArtifact(func(res CommitResult) (string, []byte, error) {
				return "note", []byte(res.Token), nil
			})
			for c := 0; c < 3; c++ {
				commit("log-only with an attachment", CommitOptions{}, 1)
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
// fails the commit before its record is written, so the commit is neither
// announced — no session watermark moves, no commit hook fires,
// LatestCommitToken stays — nor on disk: a recovery of the store as it stands
// lands on the previous commit, or finds none. The next commit, with the
// attachment healthy again, goes through and carries it.
func TestAttachmentFailureFailsCommit(t *testing.T) {
	for _, n := range []int{1, 2} {
		for _, earlier := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d earlier=%v", n, earlier), func(t *testing.T) {
				attachmentFailure(t, n, earlier)
			})
		}
	}
}

func attachmentFailure(t *testing.T, n int, earlier bool) {
	ckpts := storage.NewMemCheckpointStore()
	s, sess, devs := commitPathStore(t, n, ckpts)
	defer s.Close()
	defer sess.StopSession()
	var before CommitResult
	if earlier {
		before = driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
		sess.Upsert(key(101), u64(101))
	}
	boom := errors.New("attachment unavailable")
	failing := true
	s.OnCommitArtifact(func(res CommitResult) (string, []byte, error) {
		if failing {
			return "", nil, boom
		}
		return "note", []byte("ok"), nil
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
	if _, err := storage.ReadArtifact(ckpts, "cpr-manifest-"+token); !storage.IsNotFound(err) {
		t.Fatalf("the failed commit %s left a record behind (read: %v)", token, err)
	}
	if got := sess.CommittedSerial(); got != before.Serials[sess.ID()] {
		t.Fatalf("CommittedSerial = %d after a failed commit, want %d", got, before.Serials[sess.ID()])
	}
	if tok, _ := s.LatestCommitToken(); tok != before.Token {
		t.Fatalf("LatestCommitToken = %q after a failed commit, want %q", tok, before.Token)
	}
	// A crash right here: the commit reported failed is not the one recovery
	// chooses.
	rcfg := shardedConfig(n)
	rcfg.Checkpoints = ckpts.Clone()
	rdevs := cloneDevs(devs)
	rcfg.DeviceFactory = func(i int) (storage.Device, error) { return rdevs[i], nil }
	r, report, err := RecoverWithReport(rcfg)
	switch {
	case !earlier:
		if !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("recovery after a failed first commit = %v, want ErrNoCheckpoint", err)
		}
	case err != nil:
		t.Fatal(err)
	default:
		if report.Token != before.Token || len(report.Skipped) != 0 {
			t.Fatalf("recovered %s skipping %v, want %s and nothing skipped", report.Token, report.Skipped, before.Token)
		}
		r.Close()
	}

	failing = false
	res = driveCommit(t, s, []*Session{sess}, CommitOptions{})
	if got := sess.CommittedSerial(); got != res.Serials[sess.ID()] || got < 100 {
		t.Fatalf("CommittedSerial = %d after the retry, want %d", got, res.Serials[sess.ID()])
	}
	if first := <-hooked; first != res.Token {
		t.Fatalf("first commit hook fired for %s, want only for %s", first, res.Token)
	}
	if note, ok, err := Attachment(ckpts, res.Token, "note"); err != nil || !ok || string(note) != "ok" {
		t.Fatalf("attachment of %s = (%q, %v, %v)", res.Token, note, ok, err)
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

// TestRecoverWithoutManifest tells the two record-less stores apart. Stray
// blobs alone are a crash inside the very first commit: nothing was ever
// committed, ErrNoCheckpoint. A top-level "latest" pointer is a store
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
		t.Fatalf("stray index blob, no record, no pointer: Recover = %v, want ErrNoCheckpoint", err)
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

// TestRecoverParentLayout: a checkpoint store written before the commit record
// — per shard a meta-<token> and a pagecrc-<token> (under shard<i>/ past one
// shard), and a manifest that holds only the token, version, shard count and
// kind — holds commits this version cannot read. Recover says so, naming the
// layout: never ErrNoCheckpoint, on which callers start a fresh store over
// them, and never a fall-back to whatever older record does read.
func TestRecoverParentLayout(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			ckpts := storage.NewMemCheckpointStore()
			s, sess, devs := commitPathStore(t, n, ckpts)
			res := driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
			sess.StopSession()
			s.Close()

			artifact := func(name string, v any) {
				buf, err := json.Marshal(v)
				if err == nil {
					err = storage.WriteArtifactChecked(ckpts, name, buf)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			const token = "ckpt-000002" // newer than the commit that does read
			for i := 0; i < n; i++ {
				prefix := ""
				if n > 1 {
					prefix = fmt.Sprintf("shard%d/", i)
				}
				artifact(prefix+"pagecrc-"+token, []hlog.PageCRC{})
				artifact(prefix+"meta-"+token, map[string]any{"token": token, "version": 2, "kind": "fold-over",
					"log_start": 64, "log_end": 4096, "has_index": false, "index_token": "", "serials": map[string]uint64{"s": 1}})
			}
			artifact("cpr-manifest-"+token, map[string]any{"token": token, "version": 2, "shards": n, "kind": "fold-over"})

			cfg := shardedConfig(n)
			cfg.Checkpoints = ckpts
			cfg.DeviceFactory = func(i int) (storage.Device, error) { return devs[i], nil }
			_, err := Recover(cfg)
			if err == nil || errors.Is(err, ErrNoCheckpoint) || !errors.Is(err, errParentLayout) ||
				!strings.Contains(err.Error(), "per-shard layout") || !strings.Contains(err.Error(), token) {
				t.Fatalf("Recover over the parent's layout = %v, want a hard error naming the layout and %s (not a fall-back to %s)", err, token, res.Token)
			}
		})
	}
}

// TestRecoverRecordFormat1: a record of format 1 names CPRIDX2 index images and
// a log_start that bounds no v+1 record; Recover refuses it by name rather than
// fall back past it to an older commit.
func TestRecoverRecordFormat1(t *testing.T) {
	ckpts := storage.NewMemCheckpointStore()
	s, sess, devs := commitPathStore(t, 1, ckpts)
	driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
	sess.Upsert(key(1), u64(1))
	res := driveCommit(t, s, []*Session{sess}, CommitOptions{})
	sess.StopSession()
	s.Close()
	rec, err := loadRecord(ckpts, res.Token)
	if err != nil {
		t.Fatal(err)
	}
	rec.Format = 1
	if _, err := writeRecord(ckpts, rec, nil); err != nil {
		t.Fatal(err)
	}
	cfg := shardedConfig(1)
	cfg.Checkpoints, cfg.Device = ckpts, devs[0]
	if _, err := Recover(cfg); err == nil || !errors.Is(err, errParentLayout) ||
		!strings.Contains(err.Error(), "format 1") || !strings.Contains(err.Error(), res.Token) {
		t.Fatalf("Recover over a format-1 record = %v, want a hard error naming the format and %s", err, res.Token)
	}
}

// TestVerifyCommits: the offline walk follows what each record names. With the
// index blob of a with-index commit gone, that commit and every later log-only
// commit that carries the index forward are reported, the commits before and
// after (which took their own index) are not, and what no record names is an
// orphan, not a failure.
func TestVerifyCommits(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			ckpts := storage.NewMemCheckpointStore()
			s, sess, _ := commitPathStore(t, n, ckpts)
			defer s.Close()
			defer sess.StopSession()
			var tokens []string
			for _, withIndex := range []bool{true, true, false, false, true, false} {
				sess.Upsert(key(7), u64(7))
				tokens = append(tokens, driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: withIndex}).Token)
			}
			if err := storage.WriteArtifactChecked(ckpts, "flight-probe", []byte("{}")); err != nil {
				t.Fatal(err)
			}
			check := func(what string, bad ...string) {
				t.Helper()
				commits, orphans, err := VerifyCommits(ckpts)
				if err != nil {
					t.Fatal(err)
				}
				var gotTokens, gotBad []string
				for _, c := range commits {
					gotTokens = append(gotTokens, c.Token)
					if len(c.Problems) > 0 {
						gotBad = append(gotBad, c.Token)
					}
				}
				if fmt.Sprint(gotTokens) != fmt.Sprint(tokens) || fmt.Sprint(gotBad) != fmt.Sprint(bad) {
					t.Fatalf("%s: commits %v, bad %v; want %v, bad %v (%+v)", what, gotTokens, gotBad, tokens, bad, commits)
				}
				if fmt.Sprint(orphans) != "[flight-probe]" {
					t.Fatalf("%s: orphans %v, want the flight dump alone", what, orphans)
				}
			}
			check("intact")
			if err := ckpts.Remove(blobName("index", tokens[1], n-1)); err != nil {
				t.Fatal(err)
			}
			check("index blob of commit 2 removed", tokens[1], tokens[2], tokens[3])
		})
	}
}

// TestSnapshotCommitMemory: a snapshot commit of a volatile region of more
// than 64 MiB allocates less than 2 MiB of heap, and so does the recovery that
// slots the capture back — beyond the frames it loads and the index it
// decodes: the capture goes page by page from the frames to the artifact, and
// back, verified first, page by page to the device.
func TestSnapshotCommitMemory(t *testing.T) {
	const (
		pageBits = 16
		memPages = 1152 // 72 MiB of frames; the mutable nine tenths are the volatile region
		budget   = 2 << 20
	)
	dir := t.TempDir()
	open := func() Config {
		dev, err := storage.OpenFileDevice(filepath.Join(dir, "log"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dev.Close() })
		cs, err := storage.NewDirCheckpointStore(filepath.Join(dir, "checkpoints"))
		if err != nil {
			t.Fatal(err)
		}
		return Config{IndexBuckets: 1 << 14, PageBits: pageBits, MemPages: memPages, Device: dev, Checkpoints: cs}
	}
	heap := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	cfg := open()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	val := make([]byte, 1000)
	var keys uint64
	for ; s.Log().Tail()-s.Log().Durable() < 64<<20; keys++ {
		if st := sess.Upsert(key(keys), val); st == Pending {
			sess.CompletePending(true)
		}
	}
	snapshot := Snapshot
	var res CommitResult
	commitHeap := heap(func() {
		token, err := s.Commit(CommitOptions{Kind: &snapshot})
		if err != nil {
			t.Fatal(err)
		}
		for ok := false; !ok; res, ok = s.TryResult(token) {
			sess.Refresh() // the capture waits for every session to refresh
			runtime.Gosched()
		}
	})
	if res.Err != nil || commitHeap > budget {
		t.Errorf("a snapshot commit of %d MiB allocated %d KiB (%v)", res.Bytes>>20, commitHeap>>10, res.Err)
	}
	sess.StopSession()
	s.Close()

	cfg = open()
	var r *Store
	grew := heap(func() {
		if r, err = Recover(cfg); err != nil {
			t.Fatal(err)
		}
	})
	defer r.Close()
	idx, lg := r.shards[0].index, r.Log()
	frames := (lg.Tail()-1)>>pageBits - lg.Head()>>pageBits + 2 // the resident pages and New's page 0
	held := frames<<pageBits + uint64(64*len(idx.buckets))
	for i := range idx.overflowChunks {
		if idx.overflowChunks[i].Load() != nil {
			held += 64 * overflowChunkSize
		}
	}
	t.Logf("a %d MiB snapshot: the commit allocated %d KiB, its recovery %d KiB (frames and index: %d KiB)",
		res.Bytes>>20, commitHeap>>10, grew>>10, held>>10)
	if grew > held+budget {
		t.Errorf("recovering a %d MiB snapshot allocated %d KiB, more than %d KiB of frames and index and %d KiB",
			res.Bytes>>20, grew>>10, held>>10, budget>>10)
	}
	if v, ok := readVal(t, r.StartSession(), keys-1); !ok || len(v) != len(val) {
		t.Fatalf("the last key of the capture reads %d bytes (found %v)", len(v), ok)
	}
}
