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
// latest commit.

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

// commitPathStore opens a store over a mem device and ckpts, with one session
// that has written keys 1..100.
func commitPathStore(t *testing.T, ckpts storage.CheckpointStore) (*Store, *Session, *storage.MemDevice) {
	t.Helper()
	dev := storage.NewMemDevice()
	cfg := smallConfig()
	cfg.Checkpoints, cfg.Device = ckpts, dev
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
	return s, sess, dev
}

// ship copies every artifact of from into a replica's store to, as the
// replica receives its primary's commits.
func ship(t *testing.T, from, to storage.CheckpointStore) {
	t.Helper()
	names, err := from.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		raw, err := storage.ReadArtifact(from, n)
		if err != nil {
			t.Fatal(err)
		}
		putRaw(t, to, n, raw)
	}
}

// putRaw stores data under name as it is: a copied or a damaged artifact.
func putRaw(t *testing.T, cs storage.CheckpointStore, name string, data []byte) {
	t.Helper()
	w, err := cs.Create(name)
	if err == nil {
		_, err = w.Write(data)
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestArtifactsPerCommit pins what a commit writes: a log-only commit its
// record and nothing else, attachment or not; a commit with the index one blob
// besides; a snapshot commit one more. The record is the last artifact of every
// commit, and no pointer artifact is written.
func TestArtifactsPerCommit(t *testing.T) { onePartition(t, artifactsPerCommit) }

func artifactsPerCommit(t *testing.T) {
	cs := &countingStore{CheckpointStore: storage.NewMemCheckpointStore()}
	s, sess, _ := commitPathStore(t, cs)
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
	commit("with-index", CommitOptions{WithIndex: true}, 2)
	commit("log-only", CommitOptions{}, 1)
	commit("snapshot", CommitOptions{Kind: &snapshot}, 2)
	commit("snapshot with-index", CommitOptions{Kind: &snapshot, WithIndex: true}, 3)
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
}

// TestReplicationRefusesSnapshotCommits: a replica is only ever at a fold-over
// commit. CommitShipInfo refuses a snapshot commit, so a shipper skips it, and
// so does ApplyCommitted, since the record it installs came from the peer.
func TestReplicationRefusesSnapshotCommits(t *testing.T) {
	ckpts := storage.NewMemCheckpointStore()
	s, sess, dev := commitPathStore(t, ckpts)
	defer s.Close()
	defer sess.StopSession()
	snapshot := Snapshot
	res := driveCommit(t, s, []*Session{sess}, CommitOptions{Kind: &snapshot})
	if _, err := s.CommitShipInfo(res.Token); !errors.Is(err, ErrSnapshotCommit) {
		t.Fatalf("ship info of a snapshot commit: err = %v, want ErrSnapshotCommit", err)
	}
	rcfg := smallConfig()
	rcps := storage.NewMemCheckpointStore()
	rcfg.Replica, rcfg.Checkpoints, rcfg.Device = true, rcps, dev.Clone()
	rep, err := Open(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	ship(t, ckpts, rcps)
	if err := rep.ApplyCommitted(res.Token); !errors.Is(err, ErrSnapshotCommit) {
		t.Fatalf("install of a snapshot commit: err = %v, want ErrSnapshotCommit", err)
	}
	if tok, ok := rep.LatestCommitToken(); ok {
		t.Fatalf("the replica reports %s installed", tok)
	}
}

// failingCapture is a checkpoint store whose writes of a snapshot capture fail
// after the envelope's magic, as a capture that cannot be read or stored does.
type failingCapture struct{ storage.CheckpointStore }

func (s failingCapture) Create(name string) (io.WriteCloser, error) {
	w, err := s.CheckpointStore.Create(name)
	if err != nil || !strings.HasPrefix(name, "snapshot-") {
		return w, err
	}
	return &failingWriter{WriteCloser: w}, nil
}

type failingWriter struct {
	io.WriteCloser
	writes int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes > 1 {
		return 0, errors.New("the capture failed")
	}
	return w.WriteCloser.Write(p)
}

func (w *failingWriter) CloseWithError(err error) error {
	return w.WriteCloser.(interface{ CloseWithError(error) error }).CloseWithError(err)
}

// TestFailedSnapshotCaptureLeavesNoBlob: a snapshot commit whose capture fails
// midway fails, and leaves nothing in the store: no record, and no torn blob
// under the capture's name.
func TestFailedSnapshotCaptureLeavesNoBlob(t *testing.T) {
	onePartition(t, failedSnapshotCaptureLeavesNoBlob)
}

func failedSnapshotCaptureLeavesNoBlob(t *testing.T) {
	mem := storage.NewMemCheckpointStore()
	s, sess, _ := commitPathStore(t, failingCapture{mem})
	defer s.Close()
	defer sess.StopSession()
	snapshot := Snapshot
	token, err := s.Commit(CommitOptions{Kind: &snapshot})
	if err != nil {
		t.Fatal(err)
	}
	var res CommitResult
	for ok := false; !ok; res, ok = s.TryResult(token) {
		sess.Refresh()
		sess.CompletePending(false)
	}
	if res.Err == nil {
		t.Fatal("a snapshot commit whose capture failed succeeded")
	}
	if names, _ := mem.List(); len(names) != 0 {
		t.Fatalf("a failed snapshot commit left %v", names)
	}
}

// TestLatestCommitToken follows LatestCommitToken through everything that
// sets it: nothing after Open, a commit, a recovery that fell back (the
// recovered commit, not the newer skipped one), an install on a replica, and
// promotion.
func TestLatestCommitToken(t *testing.T) { onePartition(t, latestCommitToken) }

func latestCommitToken(t *testing.T) {
	want := func(s *Store, what, token string) {
		t.Helper()
		if got, ok := s.LatestCommitToken(); got != token || ok != (token != "") {
			t.Fatalf("%s: LatestCommitToken = (%q, %v), want %q", what, got, ok, token)
		}
	}
	ckpts := storage.NewMemCheckpointStore()
	s, sess, dev := commitPathStore(t, ckpts)
	want(s, "after Open", "")
	res1 := driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
	want(s, "after commit 1", res1.Token)
	sess.Upsert(key(200), u64(200))
	res2 := driveCommit(t, s, []*Session{sess}, CommitOptions{})
	want(s, "after commit 2", res2.Token)

	// A replica of the primary as it is now: its device's bytes and the
	// artifacts CommitShipInfo names, installed with ApplyCommitted.
	info, err := s.CommitShipInfo(res2.Token)
	if err != nil {
		t.Fatal(err)
	}
	if last := info.Artifacts[len(info.Artifacts)-1]; last != "cpr-manifest-"+res2.Token {
		t.Fatalf("ship info ends with %s, want the manifest; all: %v", last, info.Artifacts)
	}
	rcfg := smallConfig()
	rcfg.Replica, rcfg.Checkpoints, rcfg.Device = true, storage.NewMemCheckpointStore(), dev.Clone()
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
		putRaw(t, rcfg.Checkpoints, name, raw)
	}
	if err := rep.ApplyCommitted(res2.Token); err == nil || !strings.Contains(err.Error(), "manifest") {
		t.Fatalf("install without the manifest: err = %v, want a manifest error", err)
	}
	want(rep, "replica before install", "")
	raw, err := storage.ReadArtifact(ckpts, "cpr-manifest-"+res2.Token)
	if err != nil {
		t.Fatal(err)
	}
	putRaw(t, rcfg.Checkpoints, "cpr-manifest-"+res2.Token, raw)
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
	putRaw(t, ckpts, "cpr-manifest-"+res2.Token, raw)
	cfg := smallConfig()
	cfg.Checkpoints, cfg.Device = ckpts, dev
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if report := r.RecoveryReport(); report == nil || report.Token != res1.Token || len(report.Skipped) != 1 || report.Skipped[0].Token != res2.Token {
		t.Fatalf("recovered %+v, want %s skipping %s", report, res1.Token, res2.Token)
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
	for _, earlier := range []bool{false, true} {
		t.Run(fmt.Sprintf("earlier=%v", earlier), func(t *testing.T) { attachmentFailure(t, earlier) })
	}
}

func attachmentFailure(t *testing.T, earlier bool) {
	ckpts := storage.NewMemCheckpointStore()
	s, sess, dev := commitPathStore(t, ckpts)
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
	rcfg := smallConfig()
	rcfg.Checkpoints, rcfg.Device = ckpts.Clone(), dev.Clone()
	r, err := Open(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	switch report := r.RecoveryReport(); {
	case !earlier && report != nil:
		t.Fatalf("Open after a failed first commit recovered %+v, want an empty store", report)
	case earlier && (report == nil || report.Token != before.Token || len(report.Skipped) != 0):
		t.Fatalf("recovered %+v, want %s and nothing skipped", report, before.Token)
	}
	r.Close()

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

// TestRecoverShardCountMismatch: a store is one index and one log, so a
// commit record is one section. A store configured with the deprecated Shards
// ignores it and recovers a one-section record (1to2); a record with two
// sections — the partitioned layout — is refused by name, never taken for a
// store without commits, over which Open starts a fresh one: by Open (2to1) and
// by a replica's install (2to4).
func TestRecoverShardCountMismatch(t *testing.T) {
	for _, c := range []struct{ wrote, opens int }{{1, 2}, {2, 1}, {2, 4}} {
		t.Run(fmt.Sprintf("%dto%d", c.wrote, c.opens), func(t *testing.T) {
			ckpts := storage.NewMemCheckpointStore()
			s, sess, dev := commitPathStore(t, ckpts)
			res := driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
			sess.StopSession()
			s.Close()
			if c.wrote > 1 {
				rec, err := loadRecord(ckpts, res.Token)
				if err != nil {
					t.Fatal(err)
				}
				rec.Sections = append(rec.Sections, rec.Sections[0])
				if _, err := storage.WriteRecord(ckpts, rec.Token, uint64(rec.Version), rec, nil); err != nil {
					t.Fatal(err)
				}
			}

			cfg := smallConfig()
			cfg.Shards, cfg.Checkpoints, cfg.Device = c.opens, ckpts, dev
			var err error
			if c.opens == 4 {
				cfg.Replica, cfg.Checkpoints = true, storage.NewMemCheckpointStore()
				var rep *Store
				if rep, err = Open(cfg); err != nil {
					t.Fatal(err)
				}
				defer rep.Close()
				ship(t, ckpts, cfg.Checkpoints)
				err = rep.ApplyCommitted(res.Token)
			} else {
				var r *Store
				if r, err = Open(cfg); err == nil {
					r.Close()
				}
			}
			const want = "partitioned layout (2 shard sections"
			switch {
			case c.wrote == 1 && err != nil:
				t.Fatalf("Open of a one-section record with Shards %d = %v", c.opens, err)
			case c.wrote > 1 && (err == nil || !strings.Contains(err.Error(), want)):
				t.Fatalf("a two-section record: err = %v, want a hard error saying %q", err, want)
			}
		})
	}
}

// TestRecoverWithoutManifest tells the two record-less stores apart. Stray
// blobs alone are a crash inside the very first commit: nothing was ever
// committed, and Open starts an empty store whose tokens pass the blobs'. A
// top-level "latest" pointer is a store written before the manifest was the
// single-shard commit record: it holds commits this version cannot read, and
// starting a fresh store over them would lose them.
func TestRecoverWithoutManifest(t *testing.T) {
	ckpts := storage.NewMemCheckpointStore()
	s, sess, dev := commitPathStore(t, ckpts)
	res := driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
	sess.StopSession()
	s.Close()
	if err := ckpts.Remove("cpr-manifest-" + res.Token); err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Checkpoints, cfg.Device = ckpts, dev
	r, err := Open(cfg)
	if err != nil {
		t.Fatalf("stray index blob, no record, no pointer: Open = %v, want an empty store", err)
	}
	if r.RecoveryReport() != nil || r.Version() != 1 {
		t.Fatalf("stray index blob, no record, no pointer: recovered %+v at version %d, want an empty store", r.RecoveryReport(), r.Version())
	}
	rs := r.StartSession()
	next := driveCommit(t, r, []*Session{rs}, CommitOptions{})
	if next.Token <= res.Token {
		t.Fatalf("the empty store committed %s; the stray blobs carry %s", next.Token, res.Token)
	}
	rs.StopSession()
	r.Close()
	if err := ckpts.Remove("cpr-manifest-" + next.Token); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteArtifactChecked(ckpts, "latest", []byte(res.Token)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cfg); err == nil || !strings.Contains(err.Error(), "pre-manifest") {
		t.Fatalf("pre-manifest layout: Open = %v, want a hard error naming it", err)
	}
}

// TestRecoverParentLayout: a checkpoint store written before the commit record
// — a meta-<token> and a pagecrc-<token>, and a manifest that holds only the
// token, version, shard count and kind — holds commits this version cannot
// read. Open says so, naming the layout: never a fresh store over them, and
// never a fall-back to whatever older record does read.
func TestRecoverParentLayout(t *testing.T) { onePartition(t, recoverParentLayout) }

func recoverParentLayout(t *testing.T) {
	ckpts := storage.NewMemCheckpointStore()
	s, sess, dev := commitPathStore(t, ckpts)
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
	artifact("pagecrc-"+token, []hlog.PageCRC{})
	artifact("meta-"+token, map[string]any{"token": token, "version": 2, "kind": "fold-over",
		"log_start": 64, "log_end": 4096, "has_index": false, "index_token": "", "serials": map[string]uint64{"s": 1}})
	artifact("cpr-manifest-"+token, map[string]any{"token": token, "version": 2, "shards": 1, "kind": "fold-over"})

	cfg := smallConfig()
	cfg.Checkpoints, cfg.Device = ckpts, dev
	_, err := Open(cfg)
	if err == nil || !errors.Is(err, storage.ErrForeignLayout) ||
		!strings.Contains(err.Error(), "per-shard layout") || !strings.Contains(err.Error(), token) {
		t.Fatalf("Open over the parent's layout = %v, want a hard error naming the layout and %s (not a fall-back to %s)", err, token, res.Token)
	}
}

// TestRecoverRecordFormat1: a record of format 1 names CPRIDX2 index images and
// a log_start that bounds no v+1 record; Open refuses it by name rather than
// fall back past it to an older commit.
func TestRecoverRecordFormat1(t *testing.T) {
	ckpts := storage.NewMemCheckpointStore()
	s, sess, dev := commitPathStore(t, ckpts)
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
	if _, err := storage.WriteRecord(ckpts, rec.Token, uint64(rec.Version), rec, nil); err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Checkpoints, cfg.Device = ckpts, dev
	if _, err := Open(cfg); err == nil || !errors.Is(err, storage.ErrForeignLayout) ||
		!strings.Contains(err.Error(), "format 1") || !strings.Contains(err.Error(), res.Token) {
		t.Fatalf("Open over a format-1 record = %v, want a hard error naming the format and %s", err, res.Token)
	}
}

// TestVerifyCommits: the offline walk follows what each record names. With the
// index blob of a with-index commit gone, that commit and every later log-only
// commit that carries the index forward are reported, the commits before and
// after (which took their own index) are not, and what no record names is an
// orphan, not a failure.
func TestVerifyCommits(t *testing.T) { onePartition(t, verifyCommits) }

func verifyCommits(t *testing.T) {
	ckpts := storage.NewMemCheckpointStore()
	s, sess, _ := commitPathStore(t, ckpts)
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
	if err := ckpts.Remove(blobName("index", tokens[1])); err != nil {
		t.Fatal(err)
	}
	check("index blob of commit 2 removed", tokens[1], tokens[2], tokens[3])
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
		if r, err = Open(cfg); err != nil {
			t.Fatal(err)
		}
	})
	defer r.Close()
	idx, lg := r.index, r.Log()
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

// TestFoldOverCommitBytes: a fold-over commit's Bytes count what it made
// durable — every record not yet flushed when it began — not only what was
// appended after it began.
func TestFoldOverCommitBytes(t *testing.T) {
	cfg := smallConfig()
	cfg.MemPages = 64 // 1 MiB of frames: nothing below is flushed for want of room
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	const n = 10_000
	for k := uint64(0); k < n; k++ {
		if st := sess.Upsert(key(k), u64(k)); st != Ok {
			t.Fatalf("upsert %d: %v", k, st)
		}
	}
	if d := s.Log().Durable(); d > hlog.FirstAddress {
		t.Fatalf("%d bytes durable before the commit", d)
	}
	res := driveCommit(t, s, []*Session{sess}, CommitOptions{})
	if want := int64(n * hlog.RecordSize(8, 8)); res.Bytes < want {
		t.Fatalf("the commit of %d never-flushed records reports %d bytes, want at least %d", n, res.Bytes, want)
	}
}
