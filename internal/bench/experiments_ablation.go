package bench

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/txdb"
	"repro/internal/ycsb"
)

// Ablation experiments for design choices DESIGN.md calls out beyond the
// paper's figures. fig12/fig18 already ablate fold-over vs snapshot and
// fig14 ablates fine- vs coarse-grained transfer; this file adds the
// incremental-checkpoint ablation (the Sec. 4.1 "capture only records that
// changed" optimization).

func init() {
	register(Experiment{
		ID:    "ablate-incr",
		Title: "Ablation: full vs incremental checkpoint size (txdb)",
		Paper: "Sec. 4.1 extension",
		Shape: incrShape,
		Run: func(cfg Config, w io.Writer) error {
			records := scaled(100_000, cfg.Scale*4)
			fmt.Fprintf(w, "%-14s %-12s %14s %14s   (commit artifact bytes; %d records, sparse zipf updates)\n",
				"mode", "commit#", "bytes", "vs-full%", records)
			for _, incremental := range []bool{false, true} {
				db, err := txdb.Open(txdb.Config{
					Records: records, Checkpoints: nil,
					Incremental: incremental, FullEvery: 100,
				})
				if err != nil {
					return err
				}
				worker := db.NewWorker()
				gen := ycsb.NewGenerator(ycsb.TxnSpec{
					Keys: uint64(records), TxnSize: 1, ReadFraction: 0, Theta: 0.99,
				}, 7)
				val := make([]byte, 8)
				full := int64(records * 8)
				for c := 1; c <= 4; c++ {
					// A sparse burst of hot-key writes between commits.
					for n := 0; n < records/50; n++ {
						keys, _ := gen.NextTxn()
						binary.LittleEndian.PutUint64(val, uint64(n))
						txn := &txdb.Txn{Ops: []txdb.Op{{Key: keys[0], Write: true}}, WriteValue: val}
						for worker.Execute(txn) != txdb.Committed {
						}
					}
					token, err := db.Commit(nil)
					if err != nil {
						return err
					}
					var res txdb.CommitResult
					for {
						var ok bool
						if res, ok = db.TryResult(token); ok {
							break
						}
						worker.Refresh()
					}
					if res.Err != nil {
						return res.Err
					}
					mode := "full"
					if incremental {
						mode = "incremental"
					}
					cfg.Record(Row{"mode": mode, "commit": c, "bytes": res.Bytes, "delta": res.Delta,
						"vs_full_pct": 100 * float64(res.Bytes) / float64(full)})
					fmt.Fprintf(w, "%-14s %-12d %14d %13.1f%%\n",
						mode, c, res.Bytes, 100*float64(res.Bytes)/float64(full))
				}
				worker.Close()
				db.Close()
			}
			return nil
		}})
}

// incrShape: every delta commit's artifact is smaller than a full capture.
func incrShape(rows []Row) error {
	full, delta := math.Inf(1), math.Inf(-1) // smallest full capture, largest delta
	for _, r := range rows {
		if b := r["bytes"].(float64); r["delta"] == true {
			delta = max(delta, b)
		} else {
			full = min(full, b)
		}
	}
	if math.IsInf(delta, -1) {
		return fmt.Errorf("no delta commit among %d rows", len(rows))
	}
	if delta >= full {
		return fmt.Errorf("a delta commit wrote %.0f bytes, a full capture %.0f", delta, full)
	}
	return nil
}
