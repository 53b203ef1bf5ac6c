package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/faster"
	"repro/internal/storage"
)

// ablate-recovery measures recovery time with and without a recent fuzzy
// index checkpoint. Sec. 6.3's stated motivation for checkpointing the index
// is "to reduce recovery time by replaying a smaller suffix of the
// HybridLog"; with only an old (or no recent) index, recovery must rescan
// from that checkpoint's position.
func init() {
	register(Experiment{
		ID:    "ablate-recovery",
		Title: "Ablation: recovery time with vs without index checkpoint",
		Paper: "Sec. 6.3 motivation",
		Shape: recoveryShape,
		Run: func(cfg Config, w io.Writer) error {
			keys := uint64(scaled(50_000, cfg.Scale*4))
			fmt.Fprintf(w, "%-24s %14s %14s   (%d keys, %d update rounds)\n",
				"last commit", "scan bytes", "recover(ms)", keys, 4)
			for _, withIndex := range []bool{true, false} {
				dev := storage.NewMemDevice()
				ckpts := storage.NewMemCheckpointStore()
				open := faster.Config{IndexBuckets: 1 << 14, PageBits: 18,
					MemPages: 64, Device: dev, Checkpoints: ckpts}
				s, err := faster.Open(open)
				if err != nil {
					return err
				}
				// Round 0 takes a full commit (index baseline), then three
				// more rounds of updates take log-only commits; a final
				// commit optionally refreshes the index.
				sess := s.StartSession()
				indexed := []bool{true, false, false, false}
				if withIndex {
					indexed = append(indexed, true)
				}
				for round, idx := range indexed {
					if round < 4 {
						upsertKeys(sess, 0, keys, uint64(round))
					}
					if _, err := commitWait(s, sess, faster.CommitOptions{WithIndex: idx}); err != nil {
						return err
					}
				}
				scanBytes := s.Log().Tail()
				sess.StopSession()
				s.Close()

				start := time.Now()
				r, err := faster.Open(open)
				if err != nil {
					return err
				}
				elapsed := time.Since(start)
				r.Close()
				label := "log-only (old index)"
				if withIndex {
					label = "fresh index checkpoint"
				}
				cfg.Record(Row{"with_index": withIndex, "scan_bytes": scanBytes,
					"recover_ms": float64(elapsed.Microseconds()) / 1000})
				fmt.Fprintf(w, "%-24s %14d %14.1f\n",
					label, scanBytes, float64(elapsed.Microseconds())/1000)
			}
			return nil
		}})
}

// recoveryShape: recovery from a fresh index checkpoint is faster than from
// log-only commits on an old one.
func recoveryShape(rows []Row) error {
	ms := map[any]float64{}
	for _, r := range rows {
		ms[r["with_index"]] = r["recover_ms"].(float64)
	}
	fresh, okF := ms[true]
	old, okO := ms[false]
	if !okF || !okO {
		return fmt.Errorf("need a with_index and a log-only row, have %d rows", len(rows))
	}
	if fresh >= old {
		return fmt.Errorf("recovery took %.1f ms with a fresh index checkpoint, %.1f ms log-only", fresh, old)
	}
	return nil
}
