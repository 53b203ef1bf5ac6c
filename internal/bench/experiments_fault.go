package bench

import (
	"encoding/binary"
	"fmt"
	"io"
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

	sc := storeConfig(keys)
	sc.PageBits, sc.MemPages = 16, 64
	sc.Device, sc.Checkpoints, sc.Metrics = dev, cs, reg
	s, err := faster.Open(sc)
	if err != nil {
		return err
	}
	defer s.Close()

	loader := s.StartSession()
	upsertKeys(loader, 0, keys, 0)
	loader.StopSession()

	// Measure: workers run a 50:50 read/update mix while commits run back to
	// back until the deadline, each timed from its issue to its result.
	var commits, failed int
	var commitNanos int64
	deadline := time.Now().Add(time.Duration(secs * float64(time.Second)))
	committing := make(chan struct{})
	go func() {
		defer close(committing)
		for time.Now().Before(deadline) {
			t0 := time.Now()
			tok, err := s.Commit(faster.CommitOptions{})
			if err == nil {
				err = s.WaitForCommit(tok).Err
			}
			if err != nil {
				failed++
			} else {
				commits++
				commitNanos += time.Since(t0).Nanoseconds()
			}
		}
	}()
	r, err := drive(load{
		threads: threads, seconds: secs,
		worker: func(t int) worker {
			sess := s.StartSession()
			var kb, vb [8]byte
			x := uint64(t)*0x9e3779b97f4a7c15 + 1
			return worker{
				op: func(int) bool {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					binary.LittleEndian.PutUint64(kb[:], x%keys)
					var st faster.Status
					if x&1 == 0 {
						binary.LittleEndian.PutUint64(vb[:], x)
						st = sess.Upsert(kb[:], vb[:])
					} else {
						_, st = sess.Read(kb[:], nil)
					}
					if st == faster.Pending {
						sess.CompletePending(true)
					}
					return true
				},
				stop: func() { drainSession(s, sess) },
			}
		},
	})
	<-committing
	if err != nil {
		return err
	}
	mops, commitMs := r.mops(), 0.0
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
