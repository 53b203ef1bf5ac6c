package bench

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/faster"
	"repro/internal/repl"
	"repro/internal/storage"
)

// repllag measures the replication extension: a primary under a YCSB update
// workload ships commits and its log tail to a loopback replica, and the
// time series shows write throughput alongside the replica's lag — bytes not
// yet received and committed versions not yet installed. The final rows
// verify the replica converges to the primary's last commit once writes
// stop.
func init() {
	register(Experiment{
		ID:    "repllag",
		Title: "Replica lag vs write throughput, YCSB updates, periodic commits",
		Paper: "replication extension (internal/repl)",
		Run:   runReplLag,
	})
}

func runReplLag(cfg Config, w io.Writer) error {
	keys := uint64(scaled(100_000, cfg.Scale))
	threads := min(cfg.Threads, 4) // past a few writers the bottleneck is the loopback, not the store

	mkConfig := func() faster.Config {
		c := storeConfig(keys)
		c.Device = storage.NewMemDevice()
		return c
	}

	primary, err := faster.Open(mkConfig())
	if err != nil {
		return err
	}
	defer primary.Close()

	srv := repl.NewServer(primary)
	served := make(chan error, 1)
	go func() { served <- srv.Serve("127.0.0.1:0") }()
	defer srv.Close()
	for srv.Addr() == nil {
		select {
		case err := <-served:
			return err
		default:
			time.Sleep(time.Millisecond)
		}
	}
	addr := srv.Addr().String()

	rep, err := repl.NewReplica(repl.Config{Upstream: addr, StoreConfig: mkConfig()})
	if err != nil {
		return err
	}
	defer rep.Store().Close()
	defer rep.Close()

	// Measured run: writers blind-update uniformly; the replica's lag is read
	// at twelve marks, and every second mark issues a commit.
	duration := cfg.Seconds * 4 * cfg.TimePoints
	fmt.Fprintf(w, "%-8s %10s %10s %12s %14s\n",
		"t(s)", "Mops/sec", "applied", "vers-behind", "bytes-behind")
	mark, lastOps, lastT := 1, int64(0), 0.0
	_, err = drive(load{
		threads: threads, seconds: duration,
		worker: func(i int) worker {
			sess := primary.StartSession()
			rng := uint64(i)*2654435761 + 1
			var kb [8]byte
			val := make([]byte, 8)
			return worker{
				op: func(n int) bool {
					rng = rng*6364136223846793005 + 1442695040888963407
					binary.LittleEndian.PutUint64(kb[:], rng%keys)
					binary.LittleEndian.PutUint64(val, rng)
					if st := sess.Upsert(kb[:], val); st == faster.Pending {
						sess.CompletePending(false)
					}
					if n%64 == 63 {
						sess.Refresh()
					}
					return true
				},
				stop: func() { drainSession(primary, sess) },
			}
		},
		tick: func(t float64, ops int64) error {
			if t < duration*float64(mark)/12 {
				return nil
			}
			st := rep.ReplStats()
			mops := float64(ops-lastOps) / (t - lastT) / 1e6
			cfg.Record(Row{"t_sec": t, "mops": mops, "applied_version": st.AppliedVersion,
				"versions_behind": st.VersionsBehind, "bytes_behind": st.BytesBehind})
			fmt.Fprintf(w, "%-8.2f %10.2f %10d %12d %14d\n",
				t, mops, st.AppliedVersion, st.VersionsBehind, st.BytesBehind)
			if mark%2 == 0 {
				_, _ = primary.Commit(faster.CommitOptions{}) // skipped while the previous one runs
			}
			mark, lastOps, lastT = mark+1, ops, t
			return nil
		},
	})
	if err != nil {
		return err
	}

	// Convergence: one final commit with writers stopped; the replica must
	// install it and report zero lag.
	final := primary.StartSession()
	defer final.StopSession()
	if _, err := commitWait(primary, final, faster.CommitOptions{}); err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for rep.ReplStats().VersionsBehind > 0 || rep.ReplStats().BytesBehind > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("repllag: replica never converged (%d versions, %d bytes behind)",
				rep.ReplStats().VersionsBehind, rep.ReplStats().BytesBehind)
		}
		time.Sleep(time.Millisecond)
	}
	st := rep.ReplStats()
	fmt.Fprintf(w, "converged: applied version %d, %d bytes received\n",
		st.AppliedVersion,
		rep.Store().Metrics().Snapshot().Counters["repl_received_log_bytes_total"])
	return nil
}
