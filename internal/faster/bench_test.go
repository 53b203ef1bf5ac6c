package faster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hlog"
	"repro/internal/storage"
	"repro/internal/ycsb"
)

// Microbenchmarks for the store's hot paths (rest phase, in-memory working
// set — the regime the paper's 150M+ ops/sec headline numbers measure).

func benchStore(b *testing.B, keys uint64) (*Store, *Session) {
	b.Helper()
	s, err := Open(Config{IndexBuckets: 1 << 14, PageBits: 18, MemPages: 64})
	if err != nil {
		b.Fatal(err)
	}
	sess := s.StartSession()
	var kb, vb [8]byte
	for i := uint64(0); i < keys; i++ {
		binary.LittleEndian.PutUint64(kb[:], i)
		binary.LittleEndian.PutUint64(vb[:], i)
		if st := sess.Upsert(kb[:], vb[:]); st == Pending {
			sess.CompletePending(true)
		}
	}
	b.Cleanup(func() { sess.StopSession(); s.Close() })
	return s, sess
}

func BenchmarkUpsertInPlace(b *testing.B) {
	_, sess := benchStore(b, 1<<14)
	var kb, vb [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(kb[:], uint64(i)&(1<<14-1))
		binary.LittleEndian.PutUint64(vb[:], uint64(i))
		sess.Upsert(kb[:], vb[:])
	}
}

func BenchmarkReadHot(b *testing.B) {
	_, sess := benchStore(b, 1<<14)
	var kb [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(kb[:], uint64(i)&(1<<14-1))
		sess.Read(kb[:], nil)
	}
}

func BenchmarkRMWInPlace(b *testing.B) {
	_, sess := benchStore(b, 1<<14)
	var kb, db_ [8]byte
	binary.LittleEndian.PutUint64(db_[:], 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(kb[:], uint64(i)&(1<<14-1))
		sess.RMW(kb[:], db_[:])
	}
}

func BenchmarkYCSBZipf5050(b *testing.B) {
	_, sess := benchStore(b, 1<<14)
	gen := ycsb.NewGenerator(ycsb.TxnSpec{Keys: 1 << 14, TxnSize: 1,
		ReadFraction: 0.5, Theta: 0.99}, 7)
	var kb, vb [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(kb[:], gen.NextKey())
		if gen.IsWrite() {
			binary.LittleEndian.PutUint64(vb[:], uint64(i))
			sess.Upsert(kb[:], vb[:])
		} else {
			sess.Read(kb[:], nil)
		}
	}
}

// BenchmarkCommitLogOnly is one log-only fold-over commit of 16 fresh records,
// driven by a session that only refreshes, next to 0, 1 and 2 sessions spinning
// on upserts of their own: the commit should cost what its work costs, not what
// the scheduler charges for sharing the processors (ROADMAP item 3). ns/op is
// the mean; p50-ns/op the median commit.
func BenchmarkCommitLogOnly(b *testing.B) {
	for _, spinners := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("spin%d", spinners), func(b *testing.B) {
			s, sess := benchStore(b, 1<<12)
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < spinners; w++ {
				spinner := s.StartSession()
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					defer spinner.StopSession()
					var kb, vb [8]byte
					for i := uint64(0); !stop.Load(); i++ {
						binary.LittleEndian.PutUint64(kb[:], 1<<20+uint64(w)<<10+i&1023)
						binary.LittleEndian.PutUint64(vb[:], i)
						spinner.Upsert(kb[:], vb[:])
					}
				}(w)
			}
			took := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				token, err := s.Commit(CommitOptions{})
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, ok := s.TryResult(token); ok {
						break
					}
					sess.Refresh()
					runtime.Gosched() // the commit's own goroutines need the CPU more
				}
				took[i] = time.Since(t0)
				// Touch a few keys so the next commit has fresh work.
				var kb, vb [8]byte
				for k := 0; k < 16; k++ {
					binary.LittleEndian.PutUint64(kb[:], uint64(k))
					binary.LittleEndian.PutUint64(vb[:], uint64(i))
					sess.Upsert(kb[:], vb[:])
				}
			}
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
			slices.Sort(took)
			b.ReportMetric(float64(took[len(took)/2]), "p50-ns/op")
		})
	}
}

// Layer benchmarks for the session operation path, one per log region an
// operation can find its record in (ROADMAP item 2). Every one reports
// allocs/op: the path owns and reuses its buffers, so every one should show 0
// (a read's value is the session's buffer).
//
//	mutable   in-place update / read in the mutable region
//	readonly  the record is below the safe-read-only offset: updates go
//	          through read-copy-update (the read-only offset is moved to the
//	          tail once per pass over the keys, which is part of the time)
//	disk      the record is on a file device: RMW and Read fetch it with one
//	          async read and finish in CompletePending; Upsert is blind
func benchRegions(b *testing.B, op func(sess *Session, k, v []byte)) {
	const hot, cold = 1 << 10, 1 << 15
	run := func(b *testing.B, s *Store, sess *Session, keys int, readonly bool) {
		var kb, vb [8]byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if readonly && i%keys == 0 {
				s.Log().ShiftReadOnlyTo(s.Log().Tail())
				for s.Log().SafeReadOnly() < s.Log().ReadOnly() {
					sess.Refresh()
					runtime.Gosched()
				}
			}
			binary.LittleEndian.PutUint64(kb[:], uint64(i%keys))
			binary.LittleEndian.PutUint64(vb[:], 1)
			op(sess, kb[:], vb[:])
		}
	}
	b.Run("mutable", func(b *testing.B) {
		s, sess := benchStore(b, hot)
		run(b, s, sess, hot, false)
	})
	b.Run("readonly", func(b *testing.B) {
		s, sess := benchStore(b, hot)
		run(b, s, sess, hot, true)
	})
	b.Run("disk", func(b *testing.B) {
		s, sess := coldStore(b, 2*cold)
		run(b, s, sess, cold, false)
	})
}

func BenchmarkSessionRead(b *testing.B) {
	benchRegions(b, func(sess *Session, k, _ []byte) {
		if _, st := sess.Read(k, nil); st == Pending {
			sess.CompletePending(true)
		}
	})
}

// BenchmarkColdReadBurst64 is the larger-than-memory client loop: 64 reads of
// evicted records, all going pending, then one CompletePending(true). One op
// is one burst; the reads reach the I/O pool in runs, not one by one.
func BenchmarkColdReadBurst64(b *testing.B) {
	const cold, burst = 1 << 15, 64
	_, sess := coldStore(b, 2*cold)
	var kb [8]byte
	var sum uint64
	cb := func(v []byte, st Status) {
		if st == Ok {
			sum += binary.LittleEndian.Uint64(v)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			binary.LittleEndian.PutUint64(kb[:], uint64((i*burst+j)%cold))
			if _, st := sess.Read(kb[:], cb); st != Pending {
				b.Fatalf("read of an evicted key: %v, want pending", st)
			}
		}
		sess.CompletePending(true)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/read")
}

func BenchmarkSessionUpsert(b *testing.B) {
	benchRegions(b, func(sess *Session, k, v []byte) {
		if st := sess.Upsert(k, v); st == Pending {
			sess.CompletePending(true)
		}
	})
}

func BenchmarkSessionRMW(b *testing.B) {
	benchRegions(b, func(sess *Session, k, v []byte) {
		if st := sess.RMW(k, v); st == Pending {
			sess.CompletePending(true)
		}
	})
}

// BenchmarkSessionInsert is the end-to-end benchmark's load: upserts of fresh
// 8-byte keys, one session, into the store shape of a workload —
//
//	mem   mem-zipf-rmw: 2^19 buckets, 1 MiB pages, 512 frames, 8-byte values
//	disk  disk-uniform-read: 2^19 buckets, 256 KiB pages, 84 frames (a quarter
//	      of the load), a file device, 64-byte values — the load flushes and
//	      evicts pages as it goes
//
// Every 2^20 keys the store is replaced by an empty one, outside the timer, so
// every key is new and memory stays bounded.
func BenchmarkSessionInsert(b *testing.B) {
	for _, bc := range []struct {
		name     string
		cfg      Config
		file     bool
		valueLen int
	}{
		{"mem", Config{IndexBuckets: 1 << 19, PageBits: 20, MemPages: 512}, false, 8},
		{"disk", Config{IndexBuckets: 1 << 19, PageBits: 18, MemPages: 84}, true, 64},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const perStore = 1 << 20
			var s *Store
			var sess *Session
			var dev storage.Device
			closeStore := func() {
				sess.StopSession()
				s.Close()
				if dev != nil {
					dev.Close()
				}
			}
			open := func() {
				cfg := bc.cfg
				if bc.file {
					d, err := storage.OpenFileDevice(filepath.Join(b.TempDir(), "log.dat"))
					if err != nil {
						b.Fatal(err)
					}
					dev, cfg.Device = d, d
				}
				var err error
				if s, err = Open(cfg); err != nil {
					b.Fatal(err)
				}
				sess = s.StartSession()
			}
			open()
			b.Cleanup(func() { closeStore() })
			var kb [8]byte
			vb := make([]byte, bc.valueLen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%perStore == 0 {
					b.StopTimer()
					closeStore()
					open()
					b.StartTimer()
				}
				binary.LittleEndian.PutUint64(kb[:], uint64(i%perStore))
				binary.LittleEndian.PutUint64(vb, uint64(i))
				if st := sess.Upsert(kb[:], vb); st != Ok {
					b.Fatalf("insert of key %d: %v", i%perStore, st)
				}
			}
		})
	}
}

// BenchmarkCommitWithIndex is the commit of a workload's set-up: one fold-over
// commit with the index, timed, over the store BenchmarkSessionInsert/mem loads
// (2^19 buckets, 1 MiB pages, 1 Mi fresh 8-byte keys), which is loaded afresh
// outside the timer before each. As in the set-up, the loading session has
// stopped and the caller waits in WaitForCommit. The commit's two writes are
// the index image and the flush of the loaded log.
func BenchmarkCommitWithIndex(b *testing.B) {
	const keys = 1 << 20
	var kb, vb [8]byte
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(Config{IndexBuckets: 1 << 19, PageBits: 20, MemPages: 512})
		if err != nil {
			b.Fatal(err)
		}
		sess := s.StartSession()
		for k := uint64(0); k < keys; k++ {
			binary.LittleEndian.PutUint64(kb[:], k)
			binary.LittleEndian.PutUint64(vb[:], k)
			if st := sess.Upsert(kb[:], vb[:]); st != Ok {
				b.Fatalf("insert of key %d: %v", k, st)
			}
		}
		sess.StopSession()
		b.StartTimer()
		token, err := s.Commit(CommitOptions{WithIndex: true})
		if err != nil {
			b.Fatal(err)
		}
		if res := s.WaitForCommit(token); res.Err != nil {
			b.Fatal(res.Err)
		}
		b.StopTimer()
		s.Close()
	}
}

// benchIndex is the index of a 1 M-key store at the paper's sizing (2^19
// buckets, keys/2), and the size of the dense image (64 bytes per bucket) it
// was checkpointed as before the sparse format.
func benchIndex(b *testing.B) (idx *index, denseBytes int) {
	idx, err := newIndex(1 << 19)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(1); i <= 1<<20; i++ {
		h := i * 0x9E3779B97F4A7C15
		idx.probe(h, tagOf(h)|64*i)
	}
	return idx, 24 + 64*(len(idx.buckets)+int(idx.overflowNext.Load())-1)
}

// BenchmarkIndexImage is the index half of a WithIndex commit for that store:
// stream the image inside its envelope to a checkpoint store. MB/s is against
// the dense size, so it compares across the format change; artifact-bytes is
// what the store receives, envelope included. The store counts and keeps
// nothing, so B/op is what the commit itself adds to the heap.
func BenchmarkIndexImage(b *testing.B) {
	idx, dense := benchIndex(b)
	cs := &discardStore{}
	b.SetBytes(int64(dense))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.n = 0
		if _, err := storage.WriteArtifactStream(cs, "index", idx.writeImage, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cs.n), "artifact-bytes")
}

// discardStore is a checkpoint store that counts what it is handed and keeps
// none of it.
type discardStore struct {
	storage.CheckpointStore
	n int64
}

func (c *discardStore) Create(string) (io.WriteCloser, error) { return c, nil }
func (c *discardStore) Close() error                          { return nil }
func (c *discardStore) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// BenchmarkDecodeIndex is the index half of recovery: the image, read from a
// reader, back into buckets.
func BenchmarkDecodeIndex(b *testing.B) {
	idx, dense := benchIndex(b)
	image := imageOf(idx)
	b.SetBytes(int64(dense))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeIndex(bytes.NewReader(image), int64(len(image))); err != nil {
			b.Fatal(err)
		}
	}
}

// replayBenchShard is the recovered shard BenchmarkReplaySuffix runs on: a
// file-backed store of 64 KiB pages, an index commit over 32 Ki keys, a suffix
// of 64 Ki records (2 MiB) under a log-only commit, recovered in full with
// memPages frames — 64 keep the whole suffix resident, 4 leave nearly all of
// it on the device. It returns the suffix's bounds and the commit's version.
func replayBenchShard(b *testing.B, memPages int) (sh *Store, start, end uint64, v uint32) {
	const suffix = 1 << 16
	path := filepath.Join(b.TempDir(), "log.dat")
	ckpts := storage.NewMemCheckpointStore()
	open := func(memPages int, recover bool) *Store {
		dev, err := storage.OpenFileDevice(path)
		if err != nil {
			b.Fatal(err)
		}
		cfg := Config{IndexBuckets: 1 << 15, PageBits: 16, MemPages: memPages, Device: dev, Checkpoints: ckpts}
		s, err := Open(cfg)
		if recover {
			s, err = Recover(cfg)
		}
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close(); dev.Close() })
		return s
	}
	s := open(16, false)
	sess := s.StartSession()
	commit := func(opts CommitOptions) {
		token, err := s.Commit(opts)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if res, ok := s.TryResult(token); ok {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				return
			}
			sess.Refresh()
			runtime.Gosched()
		}
	}
	for pass, keys := range []uint64{suffix / 2, suffix} {
		for k := uint64(0); k < keys; k++ {
			if st := sess.Upsert(key(k), u64(k)); st == Pending {
				sess.CompletePending(true)
			}
		}
		commit(CommitOptions{WithIndex: pass == 0})
	}
	sess.StopSession()
	s.Close()

	r := open(memPages, true)
	sh = r
	start, end, v = sh.recoveredScanStart, sh.log.Tail(), r.Version()-1
	records := 0
	if err := sh.log.Scan(start, end, func(uint64, hlog.RecordRef) bool { records++; return true }); err != nil {
		b.Fatal(err)
	}
	if records != suffix {
		b.Fatalf("the suffix holds %d records, want %d", records, suffix)
	}
	return sh, start, end, v
}

// perRecord reports a benchmark's time and heap allocations per log record.
func perRecord(b *testing.B, records int, run func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N * records)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
}

// BenchmarkReplaySuffix is Alg. 3 over that suffix as full recovery and a
// replica's install run it (every committed record re-points its index slot),
// with the suffix resident and with it on the device: one op is one replay.
func BenchmarkReplaySuffix(b *testing.B) {
	for _, c := range []struct {
		name     string
		memPages int
	}{{"resident", 64}, {"device", 4}} {
		b.Run(c.name, func(b *testing.B) {
			sh, start, end, v := replayBenchShard(b, c.memPages)
			perRecord(b, 1<<16, func() {
				if dead, err := sh.replaySuffix(start, end, v); err != nil || len(dead) != 0 {
					b.Fatalf("replay found %d v+1 records: %v", len(dead), err)
				}
			})
		})
	}
}
