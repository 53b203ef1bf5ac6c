package bench

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faster"
	"repro/internal/ycsb"
)

// fasterBase builds FasterParams at laptop scale: the paper's 250M keys and
// 10s/40s commit marks shrink to cfg.Scale-proportional keys and a run of a
// few seconds with commits at 25%/60%.
func fasterBase(cfg Config, readFrac float64, zipf bool, kind faster.CommitKind) FasterParams {
	dur := 4 * cfg.TimePoints
	return FasterParams{
		Threads:     cfg.Threads,
		Shards:      cfg.Shards,
		Keys:        uint64(scaled(200_000, cfg.Scale*4)),
		ValueSize:   8,
		ReadFrac:    readFrac,
		Zipf:        zipf,
		Kind:        kind,
		Seconds:     dur,
		CommitAt:    []float64{dur * 0.25, dur * 0.6},
		WithIndex:   true,
		SampleEvery: time.Duration(dur*1000/16) * time.Millisecond,
	}
}

// fig12 prints throughput (or log growth) over time for fold-over vs
// snapshot, zipf vs uniform.
func fig12(id, title, paper string, readFrac float64, logGrowth bool) {
	var shape func([]Row) error
	if logGrowth {
		shape = logGrowthShape
	}
	register(Experiment{ID: id, Title: title, Paper: paper, Shape: shape,
		Run: func(cfg Config, w io.Writer) error {
			for _, kind := range []faster.CommitKind{faster.FoldOver, faster.Snapshot} {
				for _, zipf := range []bool{true, false} {
					p := fasterBase(cfg, readFrac, zipf, kind)
					sum, err := RunFaster(p)
					if err != nil {
						return err
					}
					dist := "uniform"
					if zipf {
						dist = "zipf"
					}
					row := summaryRow(sum)
					row["kind"], row["dist"], row["series"] = kind.String(), dist, seriesRow(sum.Series)
					cfg.Record(row)
					fmt.Fprintf(w, "%-20s", kind.String()+" "+dist)
					for _, sm := range sum.Series {
						if logGrowth {
							fmt.Fprintf(w, " %7.2f", float64(sm.LogBytes)/(1<<20))
						} else {
							fmt.Fprintf(w, " %7.2f", sm.Mops)
						}
					}
					if logGrowth {
						fmt.Fprintf(w, "   (HybridLog MiB; commits at 25%%/60%%)\n")
					} else {
						fmt.Fprintf(w, "   (Mops/sec per interval; commits at 25%%/60%%)\n")
					}
				}
			}
			return nil
		}})
}

func init() {
	fig12("fig12a", "FASTER throughput vs time, YCSB 90:10, full commits", "Fig. 12a", 0.9, false)
	fig12("fig12b", "FASTER throughput vs time, YCSB 50:50, full commits", "Fig. 12b", 0.5, false)
	fig12("fig12c", "FASTER throughput vs time, YCSB 0:100, full commits", "Fig. 12c", 0.0, false)
	fig12("fig12d", "HybridLog growth vs time, YCSB 0:100", "Fig. 12d", 0.0, true)

	register(Experiment{ID: "fig13", Title: "FASTER throughput vs time, varying threads",
		Paper: "Fig. 13a/13b",
		Run: func(cfg Config, w io.Writer) error {
			for _, zipf := range []bool{true, false} {
				dist := "uniform"
				if zipf {
					dist = "zipf"
				}
				for _, t := range threadSweep(cfg.Threads) {
					p := fasterBase(cfg, 0.5, zipf, faster.FoldOver)
					p.Threads = t
					sum, err := RunFaster(p)
					if err != nil {
						return err
					}
					row := summaryRow(sum)
					row["dist"], row["threads"], row["series"] = dist, t, seriesRow(sum.Series)
					cfg.Record(row)
					fmt.Fprintf(w, "%-16s", fmt.Sprintf("%s thr=%d", dist, t))
					for _, sm := range sum.Series {
						fmt.Fprintf(w, " %7.2f", sm.Mops)
					}
					fmt.Fprintln(w, "   (Mops/sec per interval)")
				}
			}
			return nil
		}})

	register(Experiment{ID: "fig14", Title: "Operation latency: fine vs coarse version transfer",
		Paper: "Fig. 14a/14b",
		Run: func(cfg Config, w io.Writer) error {
			for _, rmw := range []bool{false, true} {
				kind := "blind"
				if rmw {
					kind = "RMW"
				}
				for _, transfer := range []faster.VersionTransfer{faster.FineGrained, faster.CoarseGrained} {
					for _, zipf := range []bool{true, false} {
						p := fasterBase(cfg, 0.0, zipf, faster.FoldOver)
						p.RMW = rmw
						p.Transfer = transfer
						p.WithIndex = false // log-only commits, as in the paper
						sum, err := RunFaster(p)
						if err != nil {
							return err
						}
						dist := "uniform"
						if zipf {
							dist = "zipf"
						}
						row := summaryRow(sum)
						row["op"], row["transfer"], row["dist"] = kind, transfer.String(), dist
						row["series"] = seriesRow(sum.Series)
						cfg.Record(row)
						fmt.Fprintf(w, "%-28s", fmt.Sprintf("%s %s %s", kind, transfer, dist))
						for _, sm := range sum.Series {
							fmt.Fprintf(w, " %7.3f", sm.LatencyUs)
						}
						fmt.Fprintln(w, "   (us per interval; commits at 25%/60%)")
					}
				}
			}
			return nil
		}})

	register(Experiment{ID: "fig15", Title: "End-to-end: client buffers trimmed at CPR points",
		Paper: "Fig. 15",
		Run: func(cfg Config, w io.Writer) error {
			fmt.Fprintf(w, "%-12s %-10s %12s %16s\n", "buffer(KB)", "dist", "Mops/sec", "commit-int(s)")
			for _, bufKB := range []int{31, 61, 122, 244} {
				for _, zipf := range []bool{true, false} {
					mops, interval, err := runEndToEnd(cfg, bufKB, zipf)
					if err != nil {
						return err
					}
					dist := "uniform"
					if zipf {
						dist = "zipf"
					}
					cfg.Record(Row{"buffer_kb": bufKB, "dist": dist, "mops": mops,
						"commit_interval_sec": interval})
					fmt.Fprintf(w, "%-12d %-10s %12.2f %16.3f\n", bufKB, dist, mops, interval)
				}
			}
			return nil
		}})

	register(Experiment{ID: "fig18a", Title: "Frequent log-only commits, YCSB 90:10", Paper: "Fig. 18a",
		Run: frequentCommits(0.9, false)})
	register(Experiment{ID: "fig18b", Title: "Frequent log-only commits, YCSB 50:50", Paper: "Fig. 18b",
		Run: frequentCommits(0.5, false)})
	register(Experiment{ID: "fig18c", Title: "Frequent log-only commits, YCSB 0:100", Paper: "Fig. 18c",
		Run: frequentCommits(0.0, false)})
	register(Experiment{ID: "fig18d", Title: "HybridLog growth, frequent log-only commits", Paper: "Fig. 18d",
		Shape: logGrowthShape, Run: frequentCommits(0.0, true)})
}

// logGrowthShape is fig12d's and fig18d's: when the run ends the snapshot log
// is smaller than the fold-over log under either distribution, and under
// fold-over the uniform log is larger than the zipf log. (Under snapshot the
// log grows only by what is copied while a capture is open, a few MiB whose
// uniform-to-zipf ratio follows the capture's duration: 1.02-1.3x on a 2-core
// host, so it is not asserted.)
func logGrowthShape(rows []Row) error {
	final := map[string]float64{}
	for _, r := range rows {
		series, _ := r["series"].(Row)
		mib, _ := series["log_mib"].([]any)
		if len(mib) == 0 {
			return fmt.Errorf("%v %v: no log_mib series", r["kind"], r["dist"])
		}
		final[fmt.Sprint(r["kind"], " ", r["dist"])] = mib[len(mib)-1].(float64)
	}
	for _, c := range [][2]string{
		{"snapshot zipf", "fold-over zipf"}, {"snapshot uniform", "fold-over uniform"},
		{"fold-over zipf", "fold-over uniform"},
	} {
		lo, okLo := final[c[0]]
		hi, okHi := final[c[1]]
		if !okLo || !okHi {
			return fmt.Errorf("no row for %s or %s", c[0], c[1])
		}
		if lo >= hi {
			return fmt.Errorf("final log of %s is %.2f MiB, not below %s at %.2f MiB", c[0], lo, c[1], hi)
		}
	}
	return nil
}

// frequentCommits runs the Fig. 18 variant: log-only commits at a fixed
// cadence (the paper's every-15s becomes four evenly spaced commits).
func frequentCommits(readFrac float64, logGrowth bool) func(cfg Config, w io.Writer) error {
	return func(cfg Config, w io.Writer) error {
		for _, kind := range []faster.CommitKind{faster.FoldOver, faster.Snapshot} {
			for _, zipf := range []bool{true, false} {
				p := fasterBase(cfg, readFrac, zipf, kind)
				p.WithIndex = false
				d := p.Seconds
				p.CommitAt = []float64{d * 0.2, d * 0.4, d * 0.6, d * 0.8}
				sum, err := RunFaster(p)
				if err != nil {
					return err
				}
				dist := "uniform"
				if zipf {
					dist = "zipf"
				}
				row := summaryRow(sum)
				row["kind"], row["dist"], row["series"] = kind.String(), dist, seriesRow(sum.Series)
				cfg.Record(row)
				fmt.Fprintf(w, "%-20s", kind.String()+" "+dist)
				for _, sm := range sum.Series {
					if logGrowth {
						fmt.Fprintf(w, " %7.2f", float64(sm.LogBytes)/(1<<20))
					} else {
						fmt.Fprintf(w, " %7.2f", sm.Mops)
					}
				}
				if logGrowth {
					fmt.Fprintln(w, "   (HybridLog MiB; log-only commits at 20/40/60/80%)")
				} else {
					fmt.Fprintln(w, "   (Mops/sec; log-only commits at 20/40/60/80%)")
				}
			}
		}
		return nil
	}
}

// runEndToEnd implements the Fig. 15 scenario: each client session keeps a
// bounded buffer of in-flight (uncommitted) operations; at 80% occupancy it
// requests a log-only fold-over commit, and trims the buffer to its CPR
// point when the commit completes. Full buffers block the client.
func runEndToEnd(cfg Config, bufKB int, zipf bool) (mops, avgCommitInterval float64, err error) {
	p := fasterBase(cfg, 0.5, zipf, faster.FoldOver)
	p.WithIndex = false
	s, err := OpenLoadedStore(p)
	if err != nil {
		return 0, 0, err
	}
	defer s.Close()

	bufCap := bufKB * 1024 / 16 // 16 bytes per in-flight entry, as in Sec. 7.3.4
	theta := 0.0
	if zipf {
		theta = 0.99
	}
	duration := p.Seconds

	var stop atomic.Bool
	var opsTotal atomic.Int64
	var commitTimes []time.Time
	var commitMu sync.Mutex
	var commitActive atomic.Bool

	type client struct {
		sess    *faster.Session
		trimmed atomic.Uint64 // serial up to which the buffer is trimmed
	}
	clients := make([]*client, p.Threads)
	for i := range clients {
		clients[i] = &client{sess: s.StartSession()}
	}

	requestCommit := func() {
		if commitActive.Swap(true) {
			return
		}
		_, cerr := s.Commit(faster.CommitOptions{OnDone: func(res faster.CommitResult) {
			commitMu.Lock()
			commitTimes = append(commitTimes, time.Now())
			commitMu.Unlock()
			for _, c := range clients {
				if pt, ok := res.Serials[c.sess.ID()]; ok {
					c.trimmed.Store(pt)
				}
			}
			commitActive.Store(false)
		}})
		if cerr != nil {
			commitActive.Store(false)
		}
	}

	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := ycsb.NewGenerator(ycsb.TxnSpec{Keys: p.Keys, TxnSize: 1,
				ReadFraction: 0.5, Theta: theta}, uint64(i)*31+5)
			var kb, vb [8]byte
			local := int64(0)
			for n := 0; ; n++ {
				if n%64 == 0 {
					if stop.Load() {
						break
					}
					opsTotal.Add(local)
					local = 0
					c.sess.CompletePending(false)
				}
				// In-flight = issued - trimmed; block (refreshing) when full.
				inflight := c.sess.Serial() - c.trimmed.Load()
				if inflight >= uint64(bufCap) {
					requestCommit()
					c.sess.Refresh()
					c.sess.CompletePending(false)
					continue
				}
				if inflight >= uint64(bufCap)*8/10 {
					requestCommit()
				}
				k := gen.NextKey()
				binary.LittleEndian.PutUint64(kb[:], k)
				if gen.IsWrite() {
					binary.LittleEndian.PutUint64(vb[:], uint64(n))
					c.sess.Upsert(kb[:], vb[:])
				} else {
					c.sess.Read(kb[:], nil)
				}
				local++
			}
			opsTotal.Add(local)
			c.sess.CompletePending(true)
			for s.Phase() != faster.Rest {
				c.sess.Refresh()
				c.sess.CompletePending(false)
			}
			c.sess.StopSession()
		}()
	}
	for time.Since(start).Seconds() < duration {
		time.Sleep(20 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	mops = float64(opsTotal.Load()) / elapsed / 1e6
	commitMu.Lock()
	if len(commitTimes) > 1 {
		avgCommitInterval = commitTimes[len(commitTimes)-1].Sub(commitTimes[0]).Seconds() /
			float64(len(commitTimes)-1)
	}
	commitMu.Unlock()
	return mops, avgCommitInterval, nil
}
