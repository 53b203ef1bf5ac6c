package faster

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// Opening a store is recovering it: a second Open over the files a first life
// committed to recovers that commit and commits after it, never over it.

// fileMedia is a store's files: a log device and a checkpoint directory.
type fileMedia struct{ dir string }

func (m fileMedia) config(t *testing.T) Config {
	t.Helper()
	dev, err := storage.OpenFileDevice(filepath.Join(m.dir, "hybridlog.dat"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	ckpts, err := storage.NewDirCheckpointStore(filepath.Join(m.dir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Device, cfg.Checkpoints = dev, ckpts
	return cfg
}

// crash copies what a killed process leaves: the checkpoint directory first,
// then the log device.
func (m fileMedia) crash(t *testing.T) fileMedia {
	t.Helper()
	img := fileMedia{t.TempDir()}
	arts, err := os.ReadDir(filepath.Join(m.dir, "checkpoints"))
	if err == nil {
		err = os.Mkdir(filepath.Join(img.dir, "checkpoints"), 0o755)
	}
	for _, a := range arts {
		if err == nil {
			err = copyFile(filepath.Join(m.dir, "checkpoints", a.Name()), filepath.Join(img.dir, "checkpoints", a.Name()))
		}
	}
	if err == nil {
		err = copyFile(filepath.Join(m.dir, "hybridlog.dat"), filepath.Join(img.dir, "hybridlog.dat"))
	}
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func copyFile(from, to string) error {
	data, err := os.ReadFile(from)
	if err == nil {
		err = os.WriteFile(to, data, 0o644)
	}
	return err
}

// upsertRange writes value life<<32|k to keys [from, to).
func upsertRange(sess *Session, from, to, life uint64) {
	for k := from; k < to; k++ {
		if sess.Upsert(key(k), u64(life<<32|k)) == Pending {
			sess.CompletePending(true)
		}
	}
}

// wantLife fails the test unless keys [from, to) hold what life wrote to them
// (life 0: absent).
func wantLife(t *testing.T, sess *Session, from, to, life uint64) {
	t.Helper()
	for k := from; k < to; k++ {
		v, ok := readVal(t, sess, k)
		if life == 0 && ok || life > 0 && (!ok || binary.LittleEndian.Uint64(v) != life<<32|k) {
			t.Fatalf("key %d: %x (found %v), want life %d's write", k, v, ok, life)
		}
	}
}

// TestReopenKeepsEveryLife: a first life commits 2 000 keys and closes; a
// second Open over the same files commits 500 more keys and rewrites 100 of
// the first life's, writes past its commit and crashes; a third Open finds
// both lives' committed prefixes and neither the second life's suffix, and no
// commit token was handed out twice.
func TestReopenKeepsEveryLife(t *testing.T) {
	for _, kind := range []CommitKind{FoldOver, Snapshot} {
		t.Run(kind.String(), func(t *testing.T) {
			opts := CommitOptions{Kind: &kind}
			media := fileMedia{t.TempDir()}
			s, err := Open(media.config(t))
			if err != nil {
				t.Fatal(err)
			}
			sess1 := s.StartSession()
			upsertRange(sess1, 0, 2000, 1)
			res1 := driveCommit(t, s, []*Session{sess1}, opts)
			sess1.StopSession()
			s.Close()

			s, err = Open(media.config(t))
			if err != nil {
				t.Fatal(err)
			}
			if rep := s.RecoveryReport(); rep == nil || rep.Token != res1.Token {
				t.Fatalf("second Open recovered %+v, want %s", rep, res1.Token)
			}
			sess2 := s.StartSession()
			id2 := sess2.ID()
			upsertRange(sess2, 0, 100, 2)
			upsertRange(sess2, 2000, 2500, 2)
			res2 := driveCommit(t, s, []*Session{sess2}, opts)
			upsertRange(sess2, 2500, 2600, 2) // past the commit
			img := media.crash(t)
			sess2.StopSession()
			s.Close()

			r, err := Open(img.config(t))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if rep := r.RecoveryReport(); rep == nil || rep.Token != res2.Token || len(rep.Skipped) != 0 {
				t.Fatalf("third Open recovered %+v, want %s", rep, res2.Token)
			}
			rs, point := r.ContinueSession(id2)
			defer rs.StopSession()
			if point != 600 {
				t.Fatalf("the second life's session recovers to %d, want 600", point)
			}
			wantLife(t, rs, 0, 100, 2)
			wantLife(t, rs, 100, 2000, 1)
			wantLife(t, rs, 2000, 2500, 2)
			wantLife(t, rs, 2500, 2600, 0)
			res3 := driveCommit(t, r, []*Session{rs}, opts)
			if res1.Token >= res2.Token || res2.Token >= res3.Token {
				t.Fatalf("the three lives committed %s, %s and %s: a token repeated", res1.Token, res2.Token, res3.Token)
			}
		})
	}
}

// TestTornFirstCommitTokenNotReused: a first commit whose capture reached the
// checkpoint store and whose record did not is no commit, so Open starts an
// empty store; that store's first commit takes a token past the crashed one's
// blobs, never one of them.
func TestTornFirstCommitTokenNotReused(t *testing.T) {
	dev, ckpts := storage.NewMemDevice(), storage.NewMemCheckpointStore()
	inj := storage.NewInjector(storage.FaultConfig{})
	cfg := smallConfig()
	cfg.Device, cfg.Checkpoints = dev, storage.NewFaultCheckpointStore(ckpts, inj)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	upsertRange(sess, 0, 300, 1)
	const first = "ckpt-000001"
	var imgCkpts *storage.MemCheckpointStore
	var imgDev *storage.MemDevice
	inj.Arm("before:"+storage.RecordName(first), func() { imgCkpts, imgDev = ckpts.Clone(), dev.Clone() })
	snapshot := Snapshot
	driveCommit(t, s, []*Session{sess}, CommitOptions{Kind: &snapshot, WithIndex: true})
	sess.StopSession()
	s.Close()
	if imgCkpts == nil {
		t.Fatalf("the first commit did not write %s", storage.RecordName(first))
	}
	if names, _ := imgCkpts.List(); len(names) == 0 {
		t.Fatal("the crashed commit left no blob behind: the test would pass vacuously")
	}

	cfg.Device, cfg.Checkpoints = imgDev, imgCkpts
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rep := r.RecoveryReport(); rep != nil || r.Version() != 1 {
		t.Fatalf("Open over a store without a record recovered %+v at version %d, want an empty store", rep, r.Version())
	}
	rs := r.StartSession()
	defer rs.StopSession()
	wantLife(t, rs, 0, 300, 0)
	if res := driveCommit(t, r, []*Session{rs}, CommitOptions{}); res.Token == first {
		t.Fatalf("the empty store's first commit took %s, the crashed commit's token", res.Token)
	}
}

// TestOpenOverUncommittedDevice pins what Open does over a device that holds
// pages and a checkpoint store that holds no record (a crash before the first
// commit): it starts empty and writes its log over the device. A first life
// flushes pages and commits nothing; a second life opens, commits, writes past
// its commit and crashes; recovery finds exactly the second life's commit.
func TestOpenOverUncommittedDevice(t *testing.T) {
	dev, ckpts := storage.NewMemDevice(), storage.NewMemCheckpointStore()
	cfg := smallConfig()
	cfg.Device, cfg.Checkpoints = dev, ckpts
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	upsertRange(sess, 0, 6000, 1)
	sess.StopSession()
	s.Close()
	if dev.Size() < 1<<cfg.PageBits {
		t.Fatalf("the first life flushed %d bytes, not a page: the test would pass vacuously", dev.Size())
	}

	s, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep := s.RecoveryReport(); rep != nil || s.Version() != 1 {
		t.Fatalf("Open over a device without a commit recovered %+v at version %d, want an empty store", rep, s.Version())
	}
	sess = s.StartSession()
	id := sess.ID()
	upsertRange(sess, 0, 100, 2)
	res := driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
	upsertRange(sess, 100, 200, 2) // past the commit
	cfg.Checkpoints, cfg.Device = ckpts.Clone(), dev.Clone()
	sess.StopSession()
	s.Close()

	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rep := r.RecoveryReport(); rep == nil || rep.Token != res.Token {
		t.Fatalf("recovered %+v, want %s", rep, res.Token)
	}
	rs, point := r.ContinueSession(id)
	defer rs.StopSession()
	if point != 100 {
		t.Fatalf("session recovers to %d, want 100", point)
	}
	wantLife(t, rs, 0, 100, 2)
	wantLife(t, rs, 100, 6000, 0)
}
