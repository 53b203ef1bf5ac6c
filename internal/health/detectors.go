package health

import (
	"fmt"
	"sync"
	"time"
)

// The built-in detectors share one shape: demand present in both samples,
// progress absent between them. Stalls are never inferred from an idle
// system — every check requires queued work (epoch lag, unsynced appends, a
// non-Rest phase, a replica behind) before the missing progress counts against
// the node. cpr-commit-stuck alone remembers more than one pair: how long a
// commit has been in its phase is what separates a parked commit from a busy
// commit loop caught in the same phase twice.
//
// Each detector reads its inputs by name. A store registers every name once —
// one epoch table, one state machine, one log — so one name is one signal.

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
	pending, prevPending := cur.Snap.Gauges["epoch_pending_drains"], prev.Snap.Gauges["epoch_pending_drains"]
	if pending <= 0 || prevPending <= 0 {
		return false, ""
	}
	safe := cur.Snap.Gauges["epoch_safe"]
	drained := cur.Snap.Counters["epoch_drains_total"] - prev.Snap.Counters["epoch_drains_total"]
	if safe != prev.Snap.Gauges["epoch_safe"] || drained != 0 {
		return false, ""
	}
	return true, fmt.Sprintf("%d drain action(s) queued, epoch current=%d safe=%d, no drain this window",
		pending, cur.Snap.Gauges["epoch_current"], safe)
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

// newCommitStuckCheck builds the cpr-commit-stuck check: demand = the store in
// a non-Rest phase; progress = its (version, phase) changing — every commit
// runs at its own version, so back-to-back commits sampled in the same phase
// are progress. The check remembers when it first saw the current (version,
// phase) — at the previous sample, if that already showed it — and reports bad
// once the time in that phase passes the latency-derived bound.
func newCommitStuckCheck() func(prev, cur Sample) (bool, string) {
	var parked bool // the store was out of Rest at the last sample
	var version, phase, since int64
	return func(prev, cur Sample) (bool, string) {
		g, pg := cur.Snap.Gauges, prev.Snap.Gauges
		wasParked := parked
		if parked = g["faster_phase"] != 0; !parked {
			return false, ""
		}
		if !wasParked || version != g["faster_version"] || phase != g["faster_phase"] {
			version, phase, since = g["faster_version"], g["faster_phase"], cur.At
			if pg["faster_phase"] == phase && pg["faster_version"] == version {
				since = prev.At
			}
		}
		bound := max(commitStuckFloor, commitStuckFactor*int64(cur.Snap.Histograms["faster_commit_ns"].P99Nanos))
		if inPhase := cur.At - since; inPhase >= bound {
			return true, fmt.Sprintf("commit parked in %s (version %d) for %v, bound %v",
				phaseName(phase), version, time.Duration(inPhase), time.Duration(bound))
		}
		return false, ""
	}
}

// checkInlogFsyncStalled: demand = appends past the durable frontier in both
// samples; progress = the durable frontier advancing.
func checkInlogFsyncStalled(prev, cur Sample) (bool, string) {
	g, pg := cur.Snap.Gauges, prev.Snap.Gauges
	durable := g["inlog_durable"]
	if g["inlog_tail"] <= durable || pg["inlog_tail"] <= pg["inlog_durable"] || durable != pg["inlog_durable"] {
		return false, ""
	}
	return true, fmt.Sprintf("inlog tail=%d durable=%d, frontier stuck while appends queue", g["inlog_tail"], durable)
}

// checkReplLagGrowing: on a replica, bytes-behind or versions-behind
// strictly growing; on a primary with replicas attached, commits completing
// without any commit announcement shipped.
func checkReplLagGrowing(prev, cur Sample) (bool, string) {
	if behind, before, ok := rising(prev, cur, "repl_bytes_behind"); ok {
		return true, fmt.Sprintf("replica %d bytes behind primary and growing (+%d this window)", behind, behind-before)
	}
	if behind, _, ok := rising(prev, cur, "repl_versions_behind"); ok {
		return true, fmt.Sprintf("replica %d committed versions behind primary and growing", behind)
	}
	if replicas := cur.Snap.Gauges["repl_replicas"]; replicas > 0 {
		c, pc := cur.Snap.Counters, prev.Snap.Counters
		commits := c["faster_commits_total"] - pc["faster_commits_total"]
		if commits > 0 && c["repl_commits_announced_total"] == pc["repl_commits_announced_total"] {
			return true, fmt.Sprintf("%d commit(s) this window, none announced to %d replica(s)", commits, replicas)
		}
	}
	return false, ""
}

// rising reports a gauge present in both samples that grew to a positive
// value.
func rising(prev, cur Sample, name string) (now, before int64, ok bool) {
	before, had := prev.Snap.Gauges[name]
	now = cur.Snap.Gauges[name]
	return now, before, had && now > before && now > 0
}

// checkFlushStarvation: demand = operations executed this window; progress =
// at least one reply-buffer flush (the flush counter tracks every write
// syscall after coalescing, so a served op without any flush means replies
// are accumulating unsent).
func checkFlushStarvation(prev, cur Sample) (bool, string) {
	flushes, ok := cur.Snap.Counters["faster_net_coalesced_flushes_total"]
	if !ok {
		return false, ""
	}
	executed := cur.Snap.Histograms["faster_op_exec_ns"].Count - prev.Snap.Histograms["faster_op_exec_ns"].Count
	if executed == 0 || flushes != prev.Snap.Counters["faster_net_coalesced_flushes_total"] {
		return false, ""
	}
	return true, fmt.Sprintf("%d op(s) executed this window with zero reply flushes", executed)
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

// newSLODetector builds the slo-durlag-burn detector: bad when the p99 of
// this window's faster_session_lag_ns observations (cur.Sub(prev)) exceeds
// the objective. Windows with no lag observations are neutral — an idle node
// cannot burn its SLO.
func newSLODetector(st *sloState) Detector {
	return Detector{
		Name: "slo-durlag-burn",
		Description: fmt.Sprintf("Windowed p99 session durability lag exceeds the %dns objective.",
			st.objective),
		Check: func(prev, cur Sample) (bool, string) {
			win := cur.Snap.Sub(prev.Snap).Histograms["faster_session_lag_ns"]
			st.set(win.P99Nanos, win.Count)
			if win.Count == 0 || win.P99Nanos <= st.objective {
				return false, ""
			}
			return true, fmt.Sprintf("window p99 durability lag %dns > objective %dns (%d obs)",
				win.P99Nanos, st.objective, win.Count)
		},
	}
}
