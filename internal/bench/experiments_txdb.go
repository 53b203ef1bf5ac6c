package bench

import (
	"fmt"
	"io"

	"repro/internal/tpcc"
	"repro/internal/txdb"
	"repro/internal/ycsb"
)

var engines = []txdb.EngineKind{txdb.EngineCPR, txdb.EngineCALC, txdb.EngineWAL}

// ycsbParams builds TxdbParams for the paper's YCSB-based database workloads.
func ycsbParams(cfg Config, eng txdb.EngineKind, threads, txnSize int, readFrac, theta float64) TxdbParams {
	keys := scaled(250_000, cfg.Scale*4) // paper: 250M keys, scaled down
	spec := ycsb.TxnSpec{Keys: uint64(keys), TxnSize: txnSize,
		ReadFraction: readFrac, Theta: theta}
	return TxdbParams{
		Engine: eng, Threads: threads, ValueSize: 8,
		Seconds: cfg.Seconds, Records: keys,
		Source: func(worker int) func() *txdb.Txn {
			return ycsbTxns(spec, 8, uint64(worker)*7919+uint64(eng)*3+1)
		},
	}
}

// engineSweep registers a runner that prints one row per point of a sweep and
// one column per engine: committed Mtxns/sec, or the average latency in us
// when latency is set. key names the swept parameter, in the rows and the
// header; note describes the workload.
func engineSweep(id, title, paper, key, note string, points func(Config) []int,
	params func(cfg Config, eng txdb.EngineKind, x int) TxdbParams, latency bool) {
	register(Experiment{ID: id, Title: title, Paper: paper,
		Run: func(cfg Config, w io.Writer) error {
			fmt.Fprintf(w, "%-8s %12s %12s %12s   (%s)\n", key, "CPR", "CALC", "WAL", note)
			for _, x := range points(cfg) {
				fmt.Fprintf(w, "%-8d", x)
				for _, eng := range engines {
					res, err := RunTxdb(params(cfg, eng, x))
					if err != nil {
						return err
					}
					row := Row{key: x, "engine": fmt.Sprint(eng)}
					if latency {
						row["avg_latency_us"] = res.AvgLatencyUs
						fmt.Fprintf(w, " %12.3f", res.AvgLatencyUs)
					} else {
						row["mtps"] = res.Mtps
						fmt.Fprintf(w, " %12.2f", res.Mtps)
					}
					cfg.Record(row)
				}
				fmt.Fprintln(w)
			}
			return nil
		}})
}

func threadPoints(cfg Config) []int { return threadSweep(cfg.Threads) }

// ycsbSweep is the thread sweep of Figs. 2, 10a-d and 16a-d.
func ycsbSweep(id, title, paper string, txnSize int, theta float64, latency bool) {
	metric := "Mtxns/sec"
	if latency {
		metric = "avg latency us"
	}
	engineSweep(id, title, paper, "threads", fmt.Sprintf("%s, 50:50, size %d, theta %.2f", metric, txnSize, theta),
		threadPoints, func(cfg Config, eng txdb.EngineKind, t int) TxdbParams {
			return ycsbParams(cfg, eng, t, txnSize, 0.5, theta)
		}, latency)
}

// breakdownExperiment prints the cycle breakdown (Fig. 10e/16e/17e).
func breakdownExperiment(id, title, paper string, sizes []int, theta float64, tpccMode bool, payFracs []float64) {
	register(Experiment{ID: id, Title: title, Paper: paper,
		Run: func(cfg Config, w io.Writer) error {
			fmt.Fprintf(w, "%-22s %8s %8s %8s %8s   (%% of sampled cycles)\n",
				"config", "Exec", "Tail", "LogWr", "Abort")
			run := func(label string, p TxdbParams) error {
				p.Instrument = true
				res, err := RunTxdb(p)
				if err != nil {
					return err
				}
				b := res.Breakdown
				total := b.ExecNanos + b.TailNanos + b.LogWriteNanos + b.AbortNanos
				if total == 0 {
					total = 1
				}
				pc := func(x int64) float64 { return 100 * float64(x) / float64(total) }
				// Exec excludes the separately attributed engine sections.
				exec := b.ExecNanos - b.TailNanos - b.LogWriteNanos
				if exec < 0 {
					exec = 0
				}
				cfg.Record(Row{"label": label, "exec_pct": pc(exec), "tail_pct": pc(b.TailNanos),
					"logwrite_pct": pc(b.LogWriteNanos), "abort_pct": pc(b.AbortNanos)})
				fmt.Fprintf(w, "%-22s %8.1f %8.1f %8.1f %8.1f\n",
					label, pc(exec), pc(b.TailNanos), pc(b.LogWriteNanos), pc(b.AbortNanos))
				return nil
			}
			for _, threads := range []int{1, cfg.Threads} {
				if tpccMode {
					for _, pf := range payFracs {
						for _, eng := range engines {
							label := fmt.Sprintf("%s pay%.0f%% thr%d", eng, pf*100, threads)
							if err := run(label, tpccParams(cfg, eng, threads, pf)); err != nil {
								return err
							}
						}
					}
					continue
				}
				for _, size := range sizes {
					for _, eng := range engines {
						label := fmt.Sprintf("%s size%d thr%d", eng, size, threads)
						if err := run(label, ycsbParams(cfg, eng, threads, size, 0.5, theta)); err != nil {
							return err
						}
					}
				}
			}
			return nil
		}})
}

// timeSeriesExperiment prints the ruler's reading of runs with commits at
// 25/50/75% (Fig. 11a/11b/17a). The WAL engine's commit is a synchronous
// group flush with no phases, so its rows have no commit span.
func timeSeriesExperiment(id, title, paper string, txnSize int, mixes []float64, tpccMode bool, shape func([]Row) error) {
	register(Experiment{ID: id, Title: title, Paper: paper, Shape: shape,
		Run: func(cfg Config, w io.Writer) error {
			duration := 4 * cfg.TimePoints // paper's ~120s squeezed
			fmt.Fprintln(w, "commits at 25/50/75% of the run")
			dipHeader(w, "Mtps")
			for _, readFrac := range mixes {
				for _, eng := range engines {
					var p TxdbParams
					label := ""
					if tpccMode {
						p = tpccParams(cfg, eng, cfg.Threads, readFrac)
						label = fmt.Sprintf("%s pay=%.0f%%", eng, readFrac*100)
					} else {
						p = ycsbParams(cfg, eng, cfg.Threads, txnSize, readFrac, 0.1)
						label = fmt.Sprintf("%s %.0f:%.0f", eng, (1-readFrac)*100, readFrac*100)
					}
					p.Seconds = duration
					p.CommitAt = []float64{0.25, 0.5, 0.75}
					res, err := RunTxdb(p)
					if err != nil {
						return err
					}
					cfg.Record(Row{"label": label, "engine": fmt.Sprint(eng), "mtps": res.Mtps,
						"commits": res.CommitCount, "dip": res.Dip})
					printDip(w, label, res.Dip)
				}
			}
			return nil
		}})
}

func tpccParams(cfg Config, eng txdb.EngineKind, threads int, payFraction float64) TxdbParams {
	layout := tpcc.NewLayout(scaled(256, cfg.Scale), 10000)
	return TxdbParams{
		Engine: eng, Threads: threads, ValueSize: 64,
		Seconds: cfg.Seconds, Records: int(layout.TotalRecords),
		Source: func(worker int) func() *txdb.Txn {
			gen := tpcc.NewGenerator(layout, payFraction, uint64(worker)+1)
			return func() *txdb.Txn { t, _ := gen.Next(); return t }
		},
	}
}

func init() {
	ycsbSweep("fig2", "Scalability: CPR vs CALC vs WAL", "Fig. 2", 1, 0.1, false)
	ycsbSweep("fig10a", "Low-contention scalability, 1-key txns", "Fig. 10a", 1, 0.1, false)
	ycsbSweep("fig10b", "Low-contention scalability, 10-key txns", "Fig. 10b", 10, 0.1, false)
	ycsbSweep("fig10c", "Low-contention latency, 1-key txns", "Fig. 10c", 1, 0.1, true)
	ycsbSweep("fig10d", "Low-contention latency, 10-key txns", "Fig. 10d", 10, 0.1, true)
	breakdownExperiment("fig10e", "Cycle breakdown, low contention", "Fig. 10e",
		[]int{1, 10}, 0.1, false, nil)

	timeSeriesExperiment("fig11a", "Throughput during checkpoints, 1-key txns", "Fig. 11a",
		1, []float64{0.5, 0}, false, dipShape)
	timeSeriesExperiment("fig11b", "Throughput during checkpoints, 10-key txns", "Fig. 11b",
		10, []float64{0.5, 0}, false, dipShape)
	readPct := func(id, paper string, txnSize int) {
		engineSweep(id, fmt.Sprintf("Throughput vs read%%, %d-key txns", txnSize), paper,
			"read_pct", fmt.Sprintf("Mtxns/sec, size %d, theta 0.1", txnSize),
			func(Config) []int { return []int{0, 25, 50, 75, 90} },
			func(cfg Config, eng txdb.EngineKind, pct int) TxdbParams {
				return ycsbParams(cfg, eng, cfg.Threads, txnSize, float64(pct)/100, 0.1)
			}, false)
	}
	readPct("fig11c", "Fig. 11c", 1)
	readPct("fig11d", "Fig. 11d", 10)
	engineSweep("fig11e", "Throughput vs transaction size", "Fig. 11e", "txn_size", "Mtxns/sec, 50:50, theta 0.1",
		func(Config) []int { return []int{1, 3, 5, 7, 10} },
		func(cfg Config, eng txdb.EngineKind, size int) TxdbParams {
			return ycsbParams(cfg, eng, cfg.Threads, size, 0.5, 0.1)
		}, false)

	// Appendix E.1: high contention.
	ycsbSweep("fig16a", "High-contention scalability, 1-key txns", "Fig. 16a", 1, 0.99, false)
	ycsbSweep("fig16b", "High-contention scalability, 10-key txns", "Fig. 16b", 10, 0.99, false)
	ycsbSweep("fig16c", "High-contention latency, 1-key txns", "Fig. 16c", 1, 0.99, true)
	ycsbSweep("fig16d", "High-contention latency, 10-key txns", "Fig. 16d", 10, 0.99, true)
	breakdownExperiment("fig16e", "Cycle breakdown, high contention", "Fig. 16e",
		[]int{1, 10}, 0.99, false, nil)

	// Appendix E.2: TPC-C.
	timeSeriesExperiment("fig17a", "TPC-C throughput during checkpoints (50:50 mix)", "Fig. 17a",
		0, []float64{0.5}, true, nil)
	tpccSweep := func(id, title, paper, note string, payFrac float64, latency bool) {
		engineSweep(id, title, paper, "threads", note, threadPoints,
			func(cfg Config, eng txdb.EngineKind, t int) TxdbParams { return tpccParams(cfg, eng, t, payFrac) }, latency)
	}
	tpccSweep("fig17b", "TPC-C scalability, mixed 50:50", "Fig. 17b", "Mtxns/sec, TPC-C pay=50%", 0.5, false)
	tpccSweep("fig17c", "TPC-C scalability, payments-only", "Fig. 17c", "Mtxns/sec, TPC-C pay=100%", 1.0, false)
	tpccSweep("fig17d", "TPC-C latency, mixed 50:50", "Fig. 17d", "avg latency us, TPC-C 50:50", 0.5, true)
	breakdownExperiment("fig17e", "TPC-C cycle breakdown", "Fig. 17e",
		nil, 0, true, []float64{0.5, 1.0})
}
