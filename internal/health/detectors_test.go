package health

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// mkSample builds a Sample from literal metric maps — the detector contract
// is a pure function over two snapshots, so every stall shape is expressible
// as data with no running store.
func mkSample(at int64, gauges map[string]int64, counters map[string]uint64) Sample {
	return Sample{At: at, Snap: obs.Snapshot{Gauges: gauges, Counters: counters}}
}

// pair evaluates a detector Check over a (prev, cur) snapshot pair.
func pair(t *testing.T, check func(prev, cur Sample) (bool, string),
	prevG, curG map[string]int64, prevC, curC map[string]uint64) (bool, string) {
	t.Helper()
	return check(mkSample(0, prevG, prevC), mkSample(1e9, curG, curC))
}

func TestEpochDrainStuck(t *testing.T) {
	// Seeded stall: drain actions queued across the window, safe frozen, no
	// drains fired.
	bad, detail := pair(t, checkEpochDrainStuck,
		map[string]int64{"epoch_pending_drains": 2, "epoch_current": 7, "epoch_safe": 4},
		map[string]int64{"epoch_pending_drains": 2, "epoch_current": 7, "epoch_safe": 4},
		map[string]uint64{"epoch_drains_total": 10},
		map[string]uint64{"epoch_drains_total": 10})
	if !bad {
		t.Fatal("frozen safe frontier with queued drains not detected")
	}
	if !strings.Contains(detail, "current=7 safe=4") {
		t.Fatalf("detail %q lacks the epoch values", detail)
	}

	// Healthy: safe advancing.
	if bad, _ := pair(t, checkEpochDrainStuck,
		map[string]int64{"epoch_pending_drains": 2, "epoch_safe": 4},
		map[string]int64{"epoch_pending_drains": 2, "epoch_safe": 6},
		nil, nil); bad {
		t.Fatal("advancing safe frontier flagged as stuck")
	}
	// Healthy: frozen but drains fired this window (progress by action).
	if bad, _ := pair(t, checkEpochDrainStuck,
		map[string]int64{"epoch_pending_drains": 2, "epoch_safe": 4},
		map[string]int64{"epoch_pending_drains": 2, "epoch_safe": 4},
		map[string]uint64{"epoch_drains_total": 10},
		map[string]uint64{"epoch_drains_total": 11}); bad {
		t.Fatal("window with a drain flagged as stuck")
	}
	// Healthy: quiescent table (current is permanently safe+1 after the last
	// bump, but nothing is queued — no demand, no stall).
	if bad, _ := pair(t, checkEpochDrainStuck,
		map[string]int64{"epoch_pending_drains": 0, "epoch_current": 7, "epoch_safe": 6},
		map[string]int64{"epoch_pending_drains": 0, "epoch_current": 7, "epoch_safe": 6},
		nil, nil); bad {
		t.Fatal("quiescent epoch table flagged as stuck")
	}
	// The epoch table is the store's, whatever its shard count: a 4-shard
	// store's stall reads the same names.
	if bad, _ := pair(t, checkEpochDrainStuck,
		map[string]int64{"epoch_pending_drains": 1, "epoch_current": 9, "epoch_safe": 3},
		map[string]int64{"epoch_pending_drains": 1, "epoch_current": 9, "epoch_safe": 3},
		nil, nil); !bad {
		t.Fatal("stall of a sharded store not detected")
	}
}

func TestCommitStuck(t *testing.T) {
	const ms = int64(time.Millisecond)
	// at builds a sample of a store in (version, phase) at the given time;
	// p99 > 0 adds a commit-latency history with that p99.
	at := func(when, version, phase, p99 int64) Sample {
		s := mkSample(when, map[string]int64{"faster_phase": phase, "faster_version": version}, nil)
		if p99 > 0 {
			s.Snap.Histograms = map[string]obs.HistogramSnapshot{"faster_commit_ns": {Count: 100, P99Nanos: uint64(p99)}}
		}
		return s
	}

	// Seeded stall: parked in PREPARE at version 5 across a one-second window,
	// no commit latency observed yet.
	bad, detail := newCommitStuckCheck()(at(0, 5, 1, 0), at(1000*ms, 5, 1, 0))
	if !bad {
		t.Fatal("commit parked in prepare not detected")
	}
	if !strings.Contains(detail, "prepare") || !strings.Contains(detail, "version 5") {
		t.Fatalf("detail %q does not name the phase and version", detail)
	}

	// Healthy: at Rest.
	if bad, _ := newCommitStuckCheck()(at(0, 5, 0, 0), at(1000*ms, 5, 0, 0)); bad {
		t.Fatal("rest phase flagged as stuck")
	}
	// Healthy: phase advancing between samples.
	if bad, _ := newCommitStuckCheck()(at(0, 5, 1, 0), at(1000*ms, 6, 3, 0)); bad {
		t.Fatal("advancing phase flagged as stuck")
	}
	// Healthy: the same phase in both samples but of different commits (a
	// busy commit loop caught mid-flight twice).
	if bad, _ := newCommitStuckCheck()(at(0, 6, 2, 0), at(1000*ms, 7, 2, 0)); bad {
		t.Fatal("back-to-back commits in the same phase flagged as stuck")
	}

	// Time in phase accumulates across samples: 5 ms apart, the same
	// (version, phase) is bad only once it has lasted the floor...
	check := newCommitStuckCheck()
	for tick := int64(1); tick <= 120; tick++ {
		bad, _ := check(at((tick-1)*5*ms, 9, 4, 0), at(tick*5*ms, 9, 4, 0))
		if want := tick*5*ms >= commitStuckFloor; bad != want {
			t.Fatalf("parked %d ms: bad = %v, want %v", tick*5, bad, want)
		}
	}
	// ...and a new commit, or a visit to Rest, starts the clock again.
	if bad, _ := check(at(600*ms, 9, 4, 0), at(605*ms, 10, 4, 0)); bad {
		t.Fatal("the next commit inherited its predecessor's time in phase")
	}
	check(at(605*ms, 10, 4, 0), at(610*ms, 10, 0, 0))
	if bad, _ := check(at(610*ms, 10, 0, 0), at(1700*ms, 10, 4, 0)); bad {
		t.Fatal("a phase first seen in this sample counted as parked since the last")
	}

	// The bound scales with observed commit latency: with a p99 of 400 ms a
	// commit two seconds into a phase is slow, not stuck; four seconds in, stuck.
	check = newCommitStuckCheck()
	if bad, _ := check(at(0, 3, 4, 400*ms), at(2000*ms, 3, 4, 400*ms)); bad {
		t.Fatal("2 s in a phase flagged with a 400 ms commit p99")
	}
	if bad, _ := check(at(2000*ms, 3, 4, 400*ms), at(4000*ms, 3, 4, 400*ms)); !bad {
		t.Fatal("4 s in a phase not flagged with a 400 ms commit p99")
	}

	// A partitioned store commits every shard under one state machine: one
	// faster_phase gauge, parked as a whole.
	prev := mkSample(0, map[string]int64{"faster_phase": 4, "faster_version": 2}, nil)
	cur := mkSample(1000*ms, map[string]int64{"faster_phase": 4, "faster_version": 2}, nil)
	if bad, detail := newCommitStuckCheck()(prev, cur); !bad || !strings.Contains(detail, "wait-flush") {
		t.Fatalf("parked 2-shard store: bad = %v, detail %q", bad, detail)
	}
}

func TestInlogFsyncStalled(t *testing.T) {
	bad, detail := pair(t, checkInlogFsyncStalled,
		map[string]int64{"inlog_tail": 9000, "inlog_durable": 4096},
		map[string]int64{"inlog_tail": 9500, "inlog_durable": 4096}, nil, nil)
	if !bad {
		t.Fatal("frozen durable frontier with queued appends not detected")
	}
	if !strings.Contains(detail, "tail=9500 durable=4096") {
		t.Fatalf("detail %q lacks the frontier values", detail)
	}

	// Healthy: frontier advancing.
	if bad, _ := pair(t, checkInlogFsyncStalled,
		map[string]int64{"inlog_tail": 9000, "inlog_durable": 4096},
		map[string]int64{"inlog_tail": 9500, "inlog_durable": 9000}, nil, nil); bad {
		t.Fatal("advancing durable frontier flagged as stalled")
	}
	// Healthy: fully synced (no demand).
	if bad, _ := pair(t, checkInlogFsyncStalled,
		map[string]int64{"inlog_tail": 9000, "inlog_durable": 9000},
		map[string]int64{"inlog_tail": 9000, "inlog_durable": 9000}, nil, nil); bad {
		t.Fatal("synced inlog flagged as stalled")
	}
	// No inlog configured: no metrics, no verdict.
	if bad, _ := pair(t, checkInlogFsyncStalled, nil, nil, nil, nil); bad {
		t.Fatal("absent inlog metrics flagged as stalled")
	}
}

func TestReplLagGrowing(t *testing.T) {
	// Replica side: bytes behind growing.
	bad, detail := pair(t, checkReplLagGrowing,
		map[string]int64{"repl_bytes_behind": 1000},
		map[string]int64{"repl_bytes_behind": 5000}, nil, nil)
	if !bad {
		t.Fatal("growing replica byte lag not detected")
	}
	if !strings.Contains(detail, "+4000") {
		t.Fatalf("detail %q lacks the growth", detail)
	}
	// Replica side: versions behind growing.
	if bad, _ := pair(t, checkReplLagGrowing,
		map[string]int64{"repl_versions_behind": 1},
		map[string]int64{"repl_versions_behind": 3}, nil, nil); !bad {
		t.Fatal("growing replica version lag not detected")
	}
	// Primary side: commits completing, none announced.
	if bad, _ := pair(t, checkReplLagGrowing,
		map[string]int64{"repl_replicas": 2},
		map[string]int64{"repl_replicas": 2},
		map[string]uint64{"faster_commits_total": 5, "repl_commits_announced_total": 5},
		map[string]uint64{"faster_commits_total": 8, "repl_commits_announced_total": 5}); !bad {
		t.Fatal("primary committing without announcing not detected")
	}

	// Healthy: replica catching up.
	if bad, _ := pair(t, checkReplLagGrowing,
		map[string]int64{"repl_bytes_behind": 5000},
		map[string]int64{"repl_bytes_behind": 1000}, nil, nil); bad {
		t.Fatal("shrinking lag flagged as growing")
	}
	// Healthy: primary announcing every commit.
	if bad, _ := pair(t, checkReplLagGrowing,
		map[string]int64{"repl_replicas": 2},
		map[string]int64{"repl_replicas": 2},
		map[string]uint64{"faster_commits_total": 5, "repl_commits_announced_total": 5},
		map[string]uint64{"faster_commits_total": 8, "repl_commits_announced_total": 8}); bad {
		t.Fatal("announcing primary flagged")
	}
	// Healthy: primary with no replicas attached owes no announcements.
	if bad, _ := pair(t, checkReplLagGrowing,
		map[string]int64{"repl_replicas": 0},
		map[string]int64{"repl_replicas": 0},
		map[string]uint64{"faster_commits_total": 5},
		map[string]uint64{"faster_commits_total": 8}); bad {
		t.Fatal("replica-less primary flagged")
	}
}

func TestFlushStarvation(t *testing.T) {
	hist := func(count uint64) obs.Snapshot {
		return obs.Snapshot{
			Histograms: map[string]obs.HistogramSnapshot{"faster_op_exec_ns": {Count: count}},
			Counters:   map[string]uint64{"faster_net_coalesced_flushes_total": 100},
		}
	}
	prev, cur := Sample{Snap: hist(50)}, Sample{Snap: hist(80)}
	bad, detail := checkFlushStarvation(prev, cur)
	if !bad {
		t.Fatal("ops executing with zero flushes not detected")
	}
	if !strings.Contains(detail, "30 op(s)") {
		t.Fatalf("detail %q lacks the op count", detail)
	}

	// Healthy: flushes happening.
	curOK := Sample{Snap: obs.Snapshot{
		Histograms: map[string]obs.HistogramSnapshot{"faster_op_exec_ns": {Count: 80}},
		Counters:   map[string]uint64{"faster_net_coalesced_flushes_total": 140},
	}}
	if bad, _ := checkFlushStarvation(prev, curOK); bad {
		t.Fatal("flushing server flagged as starved")
	}
	// Healthy: idle server (no ops this window).
	if bad, _ := checkFlushStarvation(prev, prev); bad {
		t.Fatal("idle server flagged as starved")
	}
	// No net server wired (no flush counter): not this detector's problem.
	noNet := Sample{Snap: obs.Snapshot{
		Histograms: map[string]obs.HistogramSnapshot{"faster_op_exec_ns": {Count: 80}},
	}}
	if bad, _ := checkFlushStarvation(Sample{Snap: obs.Snapshot{}}, noNet); bad {
		t.Fatal("store without a net server flagged as starved")
	}
}

// TestWindowedP99: the SLO reads the p99 of this window's observations
// alone — 100 fast lags before the window do not hide 50 slow ones in it.
func TestWindowedP99(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("faster_session_lag_ns")
	for i := 0; i < 100; i++ {
		h.ObserveValue(1 << 9)
	}
	st := &sloState{objective: 1 << 12}
	det := newSLODetector(st)
	prev := Sample{Snap: reg.Snapshot()}
	for i := 0; i < 50; i++ {
		h.ObserveValue(1 << 19)
	}
	if bad, _ := det.Check(prev, Sample{At: 1, Snap: reg.Snapshot()}); !bad {
		t.Fatal("a window of slow lags behind a fast history did not burn the objective")
	}
	s := st.status()
	if lo, hi := uint64(1)<<19, uint64(1)<<20-1; s.WindowObservations != 50 || s.WindowP99Nanos < lo || s.WindowP99Nanos > hi {
		t.Fatalf("window p99 %d over %d observations, want 50 in [%d, %d]", s.WindowP99Nanos, s.WindowObservations, lo, hi)
	}
	// An empty window has no p99.
	cur := Sample{At: 2, Snap: reg.Snapshot()}
	if bad, _ := det.Check(cur, cur); bad || st.status().WindowObservations != 0 {
		t.Fatalf("empty window: bad = %v, status %+v", bad, st.status())
	}
}

func TestSLODetector(t *testing.T) {
	st := &sloState{objective: 1_000_000} // 1ms
	det := newSLODetector(st)
	mkh := func(bucket int, count uint64) obs.Snapshot {
		b := make([]uint64, 48)
		b[bucket] = count
		return obs.Snapshot{Histograms: map[string]obs.HistogramSnapshot{
			"faster_session_lag_ns": {Buckets: b, Count: count, MaxNanos: 1<<bucket - 1},
		}}
	}
	// Window of 100 lags around 2^30 ns (~1s): far past the 1ms objective.
	bad, detail := det.Check(Sample{Snap: mkh(30, 0)}, Sample{At: 1, Snap: mkh(30, 100)})
	if !bad {
		t.Fatal("1s durability lags did not burn a 1ms objective")
	}
	if !strings.Contains(detail, "objective") {
		t.Fatalf("detail %q lacks the objective", detail)
	}
	if s := st.status(); s.WindowObservations != 100 || s.WindowP99Nanos <= s.ObjectiveNanos {
		t.Fatalf("slo status not updated: %+v", s)
	}
	// Window of lags around 2^10 ns (~1µs): well under the objective.
	if bad, _ := det.Check(Sample{Snap: mkh(10, 0)}, Sample{At: 1, Snap: mkh(10, 100)}); bad {
		t.Fatal("1µs lags burned a 1ms objective")
	}
	// Idle window: no observations, no burn.
	if bad, _ := det.Check(Sample{Snap: mkh(30, 100)}, Sample{At: 1, Snap: mkh(30, 100)}); bad {
		t.Fatal("idle window burned the objective")
	}
}
