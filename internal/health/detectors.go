package health

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// The built-in detectors share one shape: demand present in both samples,
// progress absent between them. Stalls are never inferred from an idle
// system — every check requires queued work (epoch lag, unsynced appends, a
// non-Rest phase, cold buckets) before the missing progress counts against
// the node. cpr-commit-stuck alone remembers more than one pair: how long a
// commit has been in its phase is what separates a parked commit from a busy
// commit loop caught in the same phase twice.
//
// Multi-shard stores register per-shard metrics under a "shard<i>_" prefix
// on the shared registry, so the detectors scan by *suffix* and evaluate
// each matching prefix independently — one stuck shard is enough to fire.

// gaugesBySuffix returns prefix → value for every gauge whose name ends in
// suffix ("" is the unprefixed store-level metric's prefix).
func gaugesBySuffix(s obs.Snapshot, suffix string) map[string]int64 {
	out := map[string]int64{}
	for n, v := range s.Gauges {
		if strings.HasSuffix(n, suffix) {
			out[n[:len(n)-len(suffix)]] = v
		}
	}
	return out
}

// counterBySuffixSum sums every counter whose name ends in suffix.
func counterBySuffixSum(s obs.Snapshot, suffix string) uint64 {
	var sum uint64
	for n, v := range s.Counters {
		if strings.HasSuffix(n, suffix) {
			sum += v
		}
	}
	return sum
}

// histsBySuffix returns prefix → snapshot for every histogram whose name
// ends in suffix.
func histsBySuffix(s obs.Snapshot, suffix string) map[string]obs.HistogramSnapshot {
	out := map[string]obs.HistogramSnapshot{}
	for n, v := range s.Histograms {
		if strings.HasSuffix(n, suffix) {
			out[n[:len(n)-len(suffix)]] = v
		}
	}
	return out
}

// at names a prefix for humans: "shard3_" as-is, "" as "store".
func at(prefix string) string {
	if prefix == "" {
		return "store"
	}
	return strings.TrimSuffix(prefix, "_")
}

// cprPhaseNames mirrors the faster package's phase encoding for detail
// strings (health must not import faster: faster is free to import health's
// consumers).
var cprPhaseNames = [...]string{"rest", "prepare", "in-progress", "wait-pending", "wait-flush"}

func phaseName(v int64) string {
	if v >= 0 && int(v) < len(cprPhaseNames) {
		return cprPhaseNames[v]
	}
	return fmt.Sprintf("phase-%d", v)
}

// builtinDetectors returns the standard suite, in verdict order.
func builtinDetectors() []Detector {
	return []Detector{
		{
			Name:        "epoch-drain-stuck",
			Description: "Epoch table has queued drain actions and neither the safe frontier nor the drain counter is advancing.",
			Critical:    true,
			Check:       checkEpochDrainStuck,
		},
		{
			Name:        "cpr-commit-stuck",
			Description: "A CPR commit has been in one non-Rest phase for many times the commit latency observed so far.",
			Critical:    true,
			Check:       newCommitStuckCheck(),
		},
		{
			Name:        "inlog-fsync-stalled",
			Description: "Ingestion log has appends past the durable frontier and the frontier is not advancing.",
			Critical:    true,
			Check:       checkInlogFsyncStalled,
		},
		{
			Name:        "repl-lag-growing",
			Description: "Replication lag is growing: a replica falls further behind, or a primary commits without announcing to its replicas.",
			Check:       checkReplLagGrowing,
		},
		{
			Name:        "restore-sweeper-stalled",
			Description: "Instant restore is active with cold buckets remaining and no bucket warmed this window.",
			Check:       checkRestoreSweeperStalled,
		},
		{
			Name:        "flush-starvation",
			Description: "Server executed operations but the reply coalescing buffer never flushed.",
			Check:       checkFlushStarvation,
		},
	}
}

// checkEpochDrainStuck: demand = trigger actions queued behind an unsafe
// epoch in both samples (a quiescent table always has current == safe+1, so
// the epoch gap alone is not demand); progress = the safe frontier advancing
// or a drain action firing.
func checkEpochDrainStuck(prev, cur Sample) (bool, string) {
	for p, pending := range gaugesBySuffix(cur.Snap, "epoch_pending_drains") {
		prevPending, ok := prev.Snap.Gauges[p+"epoch_pending_drains"]
		if !ok || pending <= 0 || prevPending <= 0 {
			continue
		}
		curSafe := cur.Snap.Gauges[p+"epoch_safe"]
		prevSafe := prev.Snap.Gauges[p+"epoch_safe"]
		drained := cur.Snap.Counters[p+"epoch_drains_total"] - prev.Snap.Counters[p+"epoch_drains_total"]
		if curSafe == prevSafe && drained == 0 {
			return true, fmt.Sprintf("%s: %d drain action(s) queued, epoch current=%d safe=%d, no drain this window",
				at(p), pending, cur.Snap.Gauges[p+"epoch_current"], curSafe)
		}
	}
	return false, ""
}

// A commit counts as stuck in its phase after commitStuckFactor times the p99
// of faster_commit_ns (whole commits, all five phases), and never sooner than
// commitStuckFloor: a healthy commit on a loaded two-core host has been seen
// to sit in one phase for tens of milliseconds, and before the first commit
// completes there is no latency to scale from.
const (
	commitStuckFactor = 8
	commitStuckFloor  = int64(500 * time.Millisecond)
)

// newCommitStuckCheck builds the cpr-commit-stuck check: demand = a shard in a
// non-Rest phase; progress = its (version, phase) changing — every commit runs
// at its own version, so back-to-back commits sampled in the same phase are
// progress. The check remembers when it first saw each shard's current
// (version, phase) — at the previous sample, if that already showed it — and
// reports bad once the time in that phase passes the latency-derived bound.
func newCommitStuckCheck() func(prev, cur Sample) (bool, string) {
	type parked struct{ version, phase, since int64 }
	seen := map[string]parked{}
	return func(prev, cur Sample) (bool, string) {
		bad, detail := false, ""
		// Commit latency is recorded store-wide, not per shard.
		bound := max(commitStuckFloor, commitStuckFactor*int64(cur.Snap.Histograms["faster_commit_ns"].P99Nanos))
		for p, phase := range gaugesBySuffix(cur.Snap, "faster_phase") {
			if phase == 0 {
				delete(seen, p)
				continue
			}
			version := cur.Snap.Gauges[p+"faster_version"]
			in, ok := seen[p]
			if !ok || in.version != version || in.phase != phase {
				in = parked{version, phase, cur.At}
				if prevPhase, ok := prev.Snap.Gauges[p+"faster_phase"]; ok && prevPhase == phase &&
					prev.Snap.Gauges[p+"faster_version"] == version {
					in.since = prev.At
				}
				seen[p] = in
			}
			if inPhase := cur.At - in.since; inPhase >= bound {
				bad, detail = true, fmt.Sprintf("%s: commit parked in %s (version %d) for %v, bound %v",
					at(p), phaseName(phase), version, time.Duration(inPhase), time.Duration(bound))
			}
		}
		return bad, detail
	}
}

// checkInlogFsyncStalled: demand = appends past the durable frontier in both
// samples; progress = the durable frontier advancing.
func checkInlogFsyncStalled(prev, cur Sample) (bool, string) {
	for p, curDurable := range gaugesBySuffix(cur.Snap, "inlog_durable") {
		prevDurable, ok := prev.Snap.Gauges[p+"inlog_durable"]
		if !ok {
			continue
		}
		curTail := cur.Snap.Gauges[p+"inlog_tail"]
		prevTail := prev.Snap.Gauges[p+"inlog_tail"]
		if curTail > curDurable && prevTail > prevDurable && curDurable == prevDurable {
			return true, fmt.Sprintf("%s: inlog tail=%d durable=%d, frontier stuck while appends queue",
				at(p), curTail, curDurable)
		}
	}
	return false, ""
}

// checkReplLagGrowing: on a replica, bytes-behind or versions-behind
// strictly growing; on a primary with replicas attached, commits completing
// without any commit announcement shipped.
func checkReplLagGrowing(prev, cur Sample) (bool, string) {
	for p, curBehind := range gaugesBySuffix(cur.Snap, "repl_bytes_behind") {
		prevBehind, ok := prev.Snap.Gauges[p+"repl_bytes_behind"]
		if ok && curBehind > prevBehind && curBehind > 0 {
			return true, fmt.Sprintf("%s: replica %d bytes behind primary and growing (+%d this window)",
				at(p), curBehind, curBehind-prevBehind)
		}
	}
	for p, curBehind := range gaugesBySuffix(cur.Snap, "repl_versions_behind") {
		prevBehind, ok := prev.Snap.Gauges[p+"repl_versions_behind"]
		if ok && curBehind > prevBehind && curBehind > 0 {
			return true, fmt.Sprintf("%s: replica %d committed versions behind primary and growing", at(p), curBehind)
		}
	}
	for p, replicas := range gaugesBySuffix(cur.Snap, "repl_replicas") {
		if replicas <= 0 {
			continue
		}
		commits := cur.Snap.Counters[p+"faster_commits_total"] - prev.Snap.Counters[p+"faster_commits_total"]
		announced := cur.Snap.Counters[p+"repl_commits_announced_total"] - prev.Snap.Counters[p+"repl_commits_announced_total"]
		if commits > 0 && announced == 0 {
			return true, fmt.Sprintf("%s: %d commit(s) this window, none announced to %d replica(s)",
				at(p), commits, replicas)
		}
	}
	return false, ""
}

// checkRestoreSweeperStalled: demand = restore active with cold buckets
// remaining, unchanged across the window; progress = any bucket warmed
// (on-demand or by the sweeper).
func checkRestoreSweeperStalled(prev, cur Sample) (bool, string) {
	warmed := (counterBySuffixSum(cur.Snap, "faster_restore_ondemand_warms_total") -
		counterBySuffixSum(prev.Snap, "faster_restore_ondemand_warms_total")) +
		(counterBySuffixSum(cur.Snap, "faster_restore_sweep_warms_total") -
			counterBySuffixSum(prev.Snap, "faster_restore_sweep_warms_total"))
	for p, active := range gaugesBySuffix(cur.Snap, "faster_restore_active") {
		if active != 1 || prev.Snap.Gauges[p+"faster_restore_active"] != 1 {
			continue
		}
		curCold := cur.Snap.Gauges[p+"faster_restore_cold_buckets"]
		prevCold := prev.Snap.Gauges[p+"faster_restore_cold_buckets"]
		if curCold > 0 && curCold == prevCold && warmed == 0 {
			return true, fmt.Sprintf("%s: restore active, %d cold bucket(s) and none warmed this window", at(p), curCold)
		}
	}
	return false, ""
}

// checkFlushStarvation: demand = operations executed this window; progress =
// at least one reply-buffer flush (the flush counter tracks every write
// syscall after coalescing, so a served op without any flush means replies
// are accumulating unsent).
func checkFlushStarvation(prev, cur Sample) (bool, string) {
	for p, curExec := range histsBySuffix(cur.Snap, "faster_op_exec_ns") {
		if _, ok := cur.Snap.Counters[p+"faster_net_coalesced_flushes_total"]; !ok {
			continue
		}
		executed := curExec.Count - prev.Snap.Histograms[p+"faster_op_exec_ns"].Count
		flushes := cur.Snap.Counters[p+"faster_net_coalesced_flushes_total"] -
			prev.Snap.Counters[p+"faster_net_coalesced_flushes_total"]
		if executed > 0 && flushes == 0 {
			return true, fmt.Sprintf("%s: %d op(s) executed this window with zero reply flushes", at(p), executed)
		}
	}
	return false, ""
}

// sloState is the slo-durlag-burn detector's shared standing, published via
// the faster_health_slo_durlag_p99_ns gauge and the verdict's SLO block.
type sloState struct {
	objective uint64

	mu       sync.Mutex
	p99Nanos uint64
	windowN  uint64
}

func (s *sloState) set(p99, n uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.p99Nanos, s.windowN = p99, n
}

func (s *sloState) p99() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.p99Nanos)
}

func (s *sloState) status() *SLOStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &SLOStatus{ObjectiveNanos: s.objective, WindowP99Nanos: s.p99Nanos, WindowObservations: s.windowN}
}

// windowedP99 computes the p99 over the bucket-count deltas of two
// histogram snapshots — the distribution of only this window's
// observations, immune to the all-time histogram's averaging-out. Quantiles
// use the same log2-bucket midpoint rule as obs.HistogramSnapshot.
func windowedP99(prev, cur obs.HistogramSnapshot) (p99, n uint64) {
	if len(cur.Buckets) == 0 {
		return 0, 0
	}
	counts := make([]uint64, len(cur.Buckets))
	for i, c := range cur.Buckets {
		if i < len(prev.Buckets) {
			c -= prev.Buckets[i]
		}
		counts[i] = c
		n += c
	}
	if n == 0 {
		return 0, 0
	}
	target := uint64(0.99 * float64(n))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= target {
			if i == 0 {
				return 0, n
			}
			lo := uint64(1) << uint(i-1)
			hi := uint64(1)<<uint(i) - 1
			return lo + (hi-lo)/2, n
		}
	}
	return 0, n
}

// newSLODetector builds the slo-durlag-burn detector: bad when the windowed
// p99 of faster_session_lag_ns (worst shard) exceeds the objective. Windows
// with no lag observations are neutral — an idle node cannot burn its SLO.
func newSLODetector(st *sloState) Detector {
	return Detector{
		Name: "slo-durlag-burn",
		Description: fmt.Sprintf("Windowed p99 session durability lag exceeds the %dns objective.",
			st.objective),
		Check: func(prev, cur Sample) (bool, string) {
			var worst, total uint64
			var worstAt string
			for p, curH := range histsBySuffix(cur.Snap, "faster_session_lag_ns") {
				p99, n := windowedP99(prev.Snap.Histograms[p+"faster_session_lag_ns"], curH)
				total += n
				if n > 0 && p99 >= worst {
					worst, worstAt = p99, at(p)
				}
			}
			st.set(worst, total)
			if total == 0 || worst <= st.objective {
				return false, ""
			}
			return true, fmt.Sprintf("%s: window p99 durability lag %dns > objective %dns (%d obs)",
				worstAt, worst, st.objective, total)
		},
	}
}
