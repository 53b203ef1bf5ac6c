package bench

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faster"
	"repro/internal/obs"
	"repro/internal/storage"
)

// faulttolerance measures how the self-healing storage paths hold up under
// injected transient faults: throughput and commit latency vs the injected
// fault rate. Transient read/write errors and torn artifact writes are
// retried (storage.DefaultRetry) or rewritten whole, so the expectation is
// graceful degradation — commits slow down but keep succeeding — rather
// than failures.
func init() {
	register(Experiment{
		ID:    "faulttolerance",
		Title: "Throughput and commit latency vs injected transient-fault rate",
		Paper: "robustness (no paper counterpart)",
		Run: func(cfg Config, w io.Writer) error {
			keys := uint64(scaled(20_000, cfg.Scale*4))
			threads, secs := cfg.Threads, cfg.Seconds
			fmt.Fprintf(w, "%-12s %10s %12s %10s %10s %10s %10s   (%d keys, %d threads, %.1fs/point)\n",
				"fault-rate", "Mops", "commit(ms)", "commits", "failed", "retries", "injected",
				keys, threads, secs)
			for _, rate := range []float64{0, 1e-4, 1e-3, 5e-3, 2e-2} {
				if err := runFaultPoint(cfg, w, rate, keys, threads, secs); err != nil {
					return err
				}
			}
			return nil
		}})
}

// runFaultPoint runs one YCSB-style measurement against a store whose device
// and checkpoint store inject transient faults at the given rate.
func runFaultPoint(cfg Config, w io.Writer, rate float64, keys uint64, threads int, secs float64) error {
	reg := obs.NewRegistry()
	inj := storage.NewInjector(storage.FaultConfig{
		Seed:           42,
		ReadErrorRate:  rate,
		WriteErrorRate: rate,
		TornWriteRate:  rate / 2,
		Metrics:        reg,
	})
	dev := storage.NewFaultDevice(storage.NewMemDevice(), inj)
	cs := storage.NewFaultCheckpointStore(storage.NewMemCheckpointStore(), inj)

	buckets := 1
	for uint64(buckets) < keys/2 {
		buckets <<= 1
	}
	s, err := faster.Open(faster.Config{
		IndexBuckets: buckets, PageBits: 16, MemPages: 64,
		Device: dev, Checkpoints: cs, Metrics: reg,
	})
	if err != nil {
		return err
	}
	defer s.Close()

	// Load.
	load := s.StartSession()
	var kb, vb [8]byte
	for i := uint64(0); i < keys; i++ {
		binary.LittleEndian.PutUint64(kb[:], i)
		binary.LittleEndian.PutUint64(vb[:], i)
		if st := load.Upsert(kb[:], vb[:]); st == faster.Pending {
			load.CompletePending(true)
		}
	}
	load.CompletePending(true)
	load.StopSession()

	// Measure: worker threads run a 50:50 read/update mix while the main
	// goroutine issues commits back to back, timing each one.
	var stop atomic.Bool
	var ops atomic.Uint64
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			sess := s.StartSession()
			defer sess.StopSession()
			var kb, vb [8]byte
			x := seed*0x9e3779b97f4a7c15 + 1
			for !stop.Load() {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				k := x % keys
				binary.LittleEndian.PutUint64(kb[:], k)
				if x&1 == 0 {
					binary.LittleEndian.PutUint64(vb[:], x)
					if st := sess.Upsert(kb[:], vb[:]); st == faster.Pending {
						sess.CompletePending(true)
					}
				} else {
					if _, st := sess.Read(kb[:], nil); st == faster.Pending {
						sess.CompletePending(true)
					}
				}
				ops.Add(1)
			}
			sess.CompletePending(true)
		}(uint64(t))
	}

	start := time.Now()
	deadline := start.Add(time.Duration(secs * float64(time.Second)))
	var commits, failed int
	var commitNanos int64
	for time.Now().Before(deadline) {
		t0 := time.Now()
		token, err := s.Commit(faster.CommitOptions{})
		if err != nil {
			// Another commit still in flight (should not happen: we wait).
			time.Sleep(time.Millisecond)
			continue
		}
		for {
			if res, ok := s.TryResult(token); ok {
				if res.Err != nil {
					failed++
				} else {
					commits++
					commitNanos += time.Since(t0).Nanoseconds()
				}
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()

	mops := float64(ops.Load()) / elapsed.Seconds() / 1e6
	commitMs := 0.0
	if commits > 0 {
		commitMs = float64(commitNanos) / float64(commits) / 1e6
	}
	snap := reg.Snapshot()
	retries := snap.Counters["storage_io_retries_total"]
	injected := snap.Counters["fault_injected_transient_total"] +
		snap.Counters["fault_injected_torn_total"]
	cfg.Record(Row{
		"fault_rate": rate, "mops": mops, "commit_ms": commitMs, "commits": commits,
		"failed": failed, "retries": retries, "injected": injected,
	})
	fmt.Fprintf(w, "%-12g %10.3f %12.2f %10d %10d %10d %10d\n",
		rate, mops, commitMs, commits, failed, retries, injected)
	return nil
}
