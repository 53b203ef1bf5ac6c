package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/faster"
	"repro/internal/storage"
)

// ablate-flush measures commit latency against device write bandwidth,
// reproducing the flush-bound plateau of Sec. 7.3.1 ("It takes 6 secs to
// write 14GB of index and log, close to the sequential bandwidth of our
// SSD"): commit duration should track the bytes the commit writes to the
// device over its bandwidth once the device, not the protocol, is the
// bottleneck.
func init() {
	register(Experiment{
		ID:    "ablate-flush",
		Title: "Ablation: commit latency vs device write bandwidth",
		Paper: "Sec. 7.3.1 flush plateau",
		Shape: flushShape,
		Run: func(cfg Config, w io.Writer) error {
			keys := uint64(scaled(50_000, cfg.Scale*4))
			fmt.Fprintf(w, "%-16s %12s %12s %14s %14s   (%d keys, full fold-over commit)\n",
				"bandwidth", "commit bytes", "device bytes", "commit(ms)", "expected(ms)", keys)
			// The steps are wide on purpose: an unthrottled commit of this size
			// takes 15-40 ms on a small host and jitters by as much, so adjacent
			// points are 4x apart and the first throttled one already costs
			// more than that jitter (flushShape compares neighbours).
			for _, mbps := range []int64{0, 64, 16, 4} {
				dev := storage.NewMemDevice()
				dev.WriteBandwidth = mbps << 20
				s, err := faster.Open(faster.Config{
					IndexBuckets: 1 << 14, PageBits: 18, MemPages: 64, Device: dev,
				})
				if err != nil {
					return err
				}
				sess := s.StartSession()
				upsertKeys(sess, 0, keys, 0)
				// Only the log flush goes to the throttled device; the index
				// image and the commit record go to the checkpoint store.
				written := func() uint64 { return s.Metrics().Snapshot().Counters["storage_io_write_bytes_total"] }
				before := written()
				start := time.Now()
				res, err := commitWait(s, sess, faster.CommitOptions{WithIndex: true})
				elapsed := time.Since(start)
				if err != nil {
					return err
				}
				devBytes := written() - before
				label := "unlimited"
				expected := 0.0
				if mbps > 0 {
					label = fmt.Sprintf("%d MiB/s", mbps)
					expected = float64(devBytes) / float64(mbps<<20) * 1000
				}
				cfg.Record(Row{"bandwidth_mbps": mbps, "bytes": res.Bytes, "device_bytes": devBytes,
					"commit_ms": float64(elapsed.Milliseconds()), "expected_ms": expected})
				fmt.Fprintf(w, "%-16s %12d %12d %14.1f %14.1f\n",
					label, res.Bytes, devBytes, float64(elapsed.Milliseconds()), expected)
				sess.StopSession()
				s.Close()
			}
			return nil
		}})
}

// flushShape: the rows come in order of shrinking bandwidth, and commit
// latency never drops from one to the next.
func flushShape(rows []Row) error {
	for i := 1; i < len(rows); i++ {
		prev, cur := rows[i-1]["commit_ms"].(float64), rows[i]["commit_ms"].(float64)
		if cur < prev {
			return fmt.Errorf("commit took %.0f ms at %v MiB/s (0 = unlimited), %.0f ms at the next lower bandwidth %v MiB/s",
				prev, rows[i-1]["bandwidth_mbps"], cur, rows[i]["bandwidth_mbps"])
		}
	}
	if len(rows) < 2 {
		return fmt.Errorf("%d bandwidth points, need at least 2", len(rows))
	}
	return nil
}
