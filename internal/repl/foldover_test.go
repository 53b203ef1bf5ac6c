package repl

import (
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"net"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/storage"
)

// TestReplicaSkipsSnapshotCommits: a snapshot commit leaves its captured
// region open to in-place updates, and the bytes flushed there afterwards hold
// the next version's values under records of this one. Shipped ahead, they
// would be what a replica at that commit reads. The primary here holds the
// whole working set in memory and the replica little of it, so the replica
// reads the captured region from its device. Rounds alternate snapshot and
// fold-over commits; after each snapshot commit the test rewrites the captured
// keys in place and appends until that region is flushed and shipped. The
// replica must install the fold-over commits only, and every read must equal
// the value at the commit it installed.
func TestReplicaSkipsSnapshotCommits(t *testing.T) {
	pcfg, rcfg := testConfig(), testConfig()
	pcfg.MemPages = 64
	pcfg.IndexBuckets, rcfg.IndexBuckets = 1<<14, 1<<14
	primary, err := faster.Open(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv := NewServer(primary)
	srv.Logger = log.New(io.Discard, "", 0)
	addr := startServer(t, srv)
	defer srv.Close()
	rep, err := NewReplica(Config{Upstream: addr, StoreConfig: rcfg})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	defer rep.Store().Close()

	const keys = 10000
	sess := primary.StartSession()
	defer sess.StopSession()
	upsert := func(k uint64, v []byte) {
		if st := sess.Upsert(key(k), v); st == faster.Pending {
			sess.CompletePending(true)
		} else if st != faster.Ok {
			t.Fatalf("upsert %d: %v", k, st)
		}
	}
	cur := make([]uint64, keys) // the primary's values; 0 is absent
	writeAll := func(base uint64) {
		for k := range cur {
			cur[k] = base + uint64(k)
			upsert(uint64(k), u64(cur[k]))
		}
	}
	check := func(what string, want []uint64) {
		t.Helper()
		wrong := 0
		for k := range want {
			val, found, err := rep.Read(key(uint64(k)))
			if err != nil {
				t.Fatalf("%s: read key %d: %v", what, k, err)
			}
			var got uint64
			if found {
				got = binary.LittleEndian.Uint64(val)
			}
			if got != want[k] {
				wrong++
			}
		}
		if wrong > 0 {
			t.Fatalf("%s: %d of %d keys read off the installed commit", what, wrong, keys)
		}
	}

	snapshot := faster.Snapshot
	committed := map[uint32][]uint64{0: make([]uint64, keys)} // the values at each commit
	var foldOver uint32                                       // the newest fold-over commit
	filler, fill := uint64(1)<<40, make([]byte, 1000)
	for round := 1; round <= 6; round++ {
		// The keys move to the tail, so the commit captures them where they
		// can still be updated in place.
		writeAll(uint64(round) << 32)
		if round%2 == 0 {
			res := commitWait(t, primary, sess) // the store's default kind, fold-over
			foldOver = res.Version
			committed[foldOver] = slices.Clone(cur)
			waitApplied(t, rep, foldOver)
			check(fmt.Sprintf("round %d, after fold-over commit %d", round, foldOver), committed[foldOver])
			continue
		}
		res := commitWith(t, primary, sess, faster.CommitOptions{Kind: &snapshot})
		committed[res.Version] = slices.Clone(cur)
		end := primary.Log().Tail()
		writeAll(uint64(round)<<32 | 1<<31) // in place, in the captured region
		for primary.Log().Durable() < end {
			upsert(filler, fill)
			filler++
		}
		shipped := func() bool {
			rep.mu.RLock()
			defer rep.mu.RUnlock()
			return rep.have >= end
		}
		for deadline := time.Now().Add(30 * time.Second); !shipped(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the captured region was never shipped")
			}
		}
		v := rep.ReplStats().AppliedVersion
		check(fmt.Sprintf("round %d, after snapshot commit %d, at commit %d", round, res.Version, v), committed[v])
		if v != foldOver {
			t.Fatalf("round %d: the replica installed snapshot commit %d; want it at fold-over commit %d", round, v, foldOver)
		}
	}
}

// TestArtifactStreamMemory: neither side holds an artifact whole. A commit
// whose blob is 16 MiB is shipped and installed while both sides together
// allocate under 2 MiB: the primary reads the blob a frame at a time into its
// one frame buffer, and the replica writes each frame through as it arrives.
// Neither decodes the blob on the way, so the test pads the commit's index
// image to 16 MiB in its envelope.
func TestArtifactStreamMemory(t *testing.T) {
	const (
		blobSize = 16 << 20
		budget   = 2 << 20
	)
	dir := t.TempDir()
	dirStore := func(name string) storage.CheckpointStore {
		cs, err := storage.NewDirCheckpointStore(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	pcfg := testConfig()
	pcfg.Checkpoints = dirStore("primary")
	primary, err := faster.Open(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	sess := primary.StartSession()
	for i := uint64(0); i < 100; i++ {
		sess.Upsert(key(i), u64(i))
	}
	res := commitWith(t, primary, sess, faster.CommitOptions{WithIndex: true})
	sess.StopSession()
	info, err := primary.CommitShipInfo(res.Token)
	if err != nil {
		t.Fatal(err)
	}
	piece := make([]byte, 64<<10)
	if _, err := storage.WriteArtifactStream(pcfg.Checkpoints, info.Artifacts[0], func(w io.Writer) error {
		for n := 0; n < blobSize; n += len(piece) {
			if _, err := w.Write(piece); err != nil {
				return err
			}
		}
		return nil
	}, nil, 0); err != nil {
		t.Fatal(err)
	}

	// The replica dials an address nothing serves yet, so what it allocates
	// opening its store is behind the measurement.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	rcfg := testConfig()
	rcfg.Checkpoints = dirStore("replica")
	rep, err := NewReplica(Config{Upstream: addr, StoreConfig: rcfg, ReconnectEvery: 5 * time.Millisecond,
		Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Store().Close()
	defer rep.Close()
	srv := NewServer(primary)
	defer srv.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	go srv.Serve(addr) //nolint:errcheck
	waitApplied(t, rep, res.Version)
	runtime.ReadMemStats(&after)
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("shipping and installing a commit with a %d MiB blob allocated %d KiB", blobSize>>20, grew>>10)
	if grew > budget {
		t.Errorf("shipping and installing a commit with a %d MiB blob allocated %d KiB, more than %d KiB",
			blobSize>>20, grew>>10, budget>>10)
	}
	if err := storage.ReadArtifactStream(rcfg.Checkpoints, info.Artifacts[0], func(r io.Reader, n int64) error {
		if n != blobSize {
			t.Errorf("the replica's blob has %d bytes, want %d", n, blobSize)
		}
		_, err := io.Copy(io.Discard, r)
		return err
	}); err != nil {
		t.Fatalf("the replica's blob: %v", err)
	}
}
