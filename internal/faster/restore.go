package faster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// ErrRestoring is returned by Commit and CompactLog while an instant restore
// is still warming the store: a checkpoint or compaction taken over cold
// buckets would capture an index that misses their log-suffix records.
// Operations are never refused — they warm their bucket and proceed — and
// commits resume as soon as WaitRestored returns.
var ErrRestoring = errors.New("faster: instant restore in progress; commits and compaction resume once the store is warm")

// errRestoreAborted marks a restore cancelled by Store.Close.
var errRestoreAborted = errors.New("faster: instant restore aborted: store closed")

// RestoreShardStatus is one shard's instant-restore progress (a point-in-time
// snapshot; final values persist after the shard is fully warm).
type RestoreShardStatus struct {
	Shard    int  `json:"shard"`
	Analyzed bool `json:"analyzed"`
	// Failed is the restore failure, if any ("" while healthy). A failed
	// restore cannot fall back to an older commit — the store was already
	// serving this one — so operations return Error from then on.
	Failed       string `json:"failed,omitempty"`
	TotalBuckets uint64 `json:"total_buckets"`
	WarmBuckets  uint64 `json:"warm_buckets"`
	ColdBuckets  uint64 `json:"cold_buckets"`
	// SuffixRecords is the committed-version record count the replay scan
	// found in the log suffix; PendingRecords of them are not yet re-linked.
	SuffixRecords  uint64 `json:"suffix_records"`
	PendingRecords uint64 `json:"pending_records"`
	// ReplayedRecords counts suffix records re-linked into warm buckets;
	// InvalidatedRecords counts post-prefix (v+1) records the replay scan
	// invalidated on the device.
	ReplayedRecords    uint64 `json:"replayed_records"`
	InvalidatedRecords uint64 `json:"invalidated_records"`
	// OnDemandWarms/SweepWarms split warmed buckets by who warmed them;
	// BlockedOps counts operations that had to wait for a cold bucket.
	OnDemandWarms uint64 `json:"ondemand_warms"`
	SweepWarms    uint64 `json:"sweep_warms"`
	BlockedOps    uint64 `json:"blocked_ops"`
	AnalysisNanos int64  `json:"analysis_ns"`
	// TimeToWarmNanos is recovery-return to fully-warm (0 while restoring).
	TimeToWarmNanos int64 `json:"time_to_warm_ns,omitempty"`
}

// RestoreStatus reports instant-restore progress across shards. Nil from
// Store.RestoreStatus means the store was not instant-restored (opened fresh,
// or recovered with a full replay).
type RestoreStatus struct {
	Mode      string               `json:"mode"` // always "instant"
	Restoring bool                 `json:"restoring"`
	Shards    []RestoreShardStatus `json:"shards"`
}

// WarmBuckets and ColdBuckets aggregate the per-shard counts.
func (rs *RestoreStatus) WarmBuckets() (n uint64) {
	for i := range rs.Shards {
		n += rs.Shards[i].WarmBuckets
	}
	return n
}

// ColdBuckets aggregates the per-shard cold-bucket counts.
func (rs *RestoreStatus) ColdBuckets() (n uint64) {
	for i := range rs.Shards {
		n += rs.Shards[i].ColdBuckets
	}
	return n
}

// restoreState is one shard's instant-restore machinery. Recovery brings the
// shard up on the recovered commit's fuzzy index without scanning the log
// suffix; every hash bucket starts cold. The restore goroutine then runs the
// same replay as a full recovery (shard.replaySuffix) with a different sink:
// a committed record is not linked into the index but filed, with its hash,
// under its bucket; post-prefix (v+1) records are unwound and invalidated
// exactly as a full replay does (the order is equivalent — see DESIGN
// "Instant restore"). A bucket warms by relinking what was filed under it, in
// log order; operations on a cold bucket block until their bucket is warm (a
// bounded one-time cost), and a sweeper warms the rest, densest first.
type restoreState struct {
	sh             *shard
	token          string // recovered commit token (flight correlation)
	version        uint32 // recovered commit version v
	scanStart, end uint64

	// warmBits is the lock-free fast path: one bit per main hash bucket,
	// set only after the bucket's suffix records are fully re-linked.
	warmBits []atomic.Uint64
	nBuckets uint64

	mu   sync.Mutex
	cond *sync.Cond
	// analyzed flips once the replay has examined the whole suffix; no bucket
	// can be proven warm before that, so ensureWarm waits on it.
	analyzed bool
	failed   error
	// pending is the directory the replay fills: bucket -> its committed
	// suffix records in log order. warming guards per-bucket exclusivity
	// between on-demand warms and the sweeper.
	pending map[uint32][]suffixRecord
	warming map[uint32]bool
	// sweepOrder is the bucket warm priority: densest directory entries
	// first, so background progress re-links the most records earliest.
	sweepOrder []uint32
	sweepDone  bool

	aborted  atomic.Bool
	started  bool
	finished chan struct{}

	startNanos      int64
	analysisNanos   atomic.Int64
	timeToWarmNanos atomic.Int64
	warmCount       atomic.Uint64
	pendingRecords  atomic.Int64
	suffixRecords   atomic.Uint64
	invalidated     atomic.Uint64
	replayed        atomic.Uint64
	ondemandWarms   atomic.Uint64
	sweepWarms      atomic.Uint64
	blockedOps      atomic.Uint64
}

// suffixRecord is one committed record of the log suffix, as the replay files
// it: the hash it computed from the key, so that relinking the record later
// reads nothing, and the record's address.
type suffixRecord struct{ hash, addr uint64 }

// newRestoreState prepares (but does not start) a shard's instant restore.
// Called from shard.install once the index is loaded; the restore goroutine
// starts from finishRecovery once the whole candidate commit is accepted.
func newRestoreState(sh *shard, token string, version uint32, scanStart, end uint64) *restoreState {
	n := uint64(len(sh.index.buckets))
	rs := &restoreState{
		sh:        sh,
		token:     token,
		version:   version,
		scanStart: scanStart,
		end:       end,
		warmBits:  make([]atomic.Uint64, (n+63)/64),
		nBuckets:  n,
		pending:   make(map[uint32][]suffixRecord),
		warming:   make(map[uint32]bool),
		finished:  make(chan struct{}),
	}
	rs.cond = sync.NewCond(&rs.mu)
	return rs
}

// start registers the shard's restore gauges and launches the analysis +
// sweep goroutine. Only called for shards of an accepted commit candidate
// (rejected candidates' shards are closed without ever starting).
func (rs *restoreState) start() {
	sh := rs.sh
	rs.startNanos = nowNanos()
	rs.started = true
	m := sh.cfg.Metrics
	m.GaugeFunc("faster_restore_active", func() int64 {
		if sh.restoring() {
			return 1
		}
		return 0
	})
	m.GaugeFunc("faster_restore_cold_buckets", func() int64 {
		if st := sh.restoreSnapshot(); st != nil {
			return int64(st.ColdBuckets)
		}
		return 0
	})
	m.SetHelp("faster_restore_cold_buckets",
		"Hash buckets still cold during instant restore; cold buckets with no warms progressing is the health engine's restore-sweeper-stalled signal.")
	m.GaugeFunc("faster_restore_pending_records", func() int64 {
		if st := sh.restoreSnapshot(); st != nil {
			return int64(st.PendingRecords)
		}
		return 0
	})
	m.GaugeFunc("faster_restore_time_to_warm_ns", func() int64 {
		if st := sh.restoreSnapshot(); st != nil {
			return st.TimeToWarmNanos
		}
		return 0
	})
	go rs.run()
}

// run is the restore goroutine: replay the suffix once into the directory,
// then sweep the remaining cold buckets warm.
func (rs *restoreState) run() {
	defer close(rs.finished)
	sh := rs.sh

	t0 := nowNanos()
	dead, err := sh.replaySuffix(rs.scanStart, rs.end, rs.version, rs.file)
	if err == nil && rs.aborted.Load() {
		err = errRestoreAborted
	}
	if err == nil {
		// Now, not lazily: a commit taken after the restore, followed by a
		// crash, must not find resurrectable v+1 records on the device.
		err = sh.persistInvalid(rs.token, dead)
	}
	rs.analysisNanos.Store(nowNanos() - t0)
	if err == nil {
		rs.invalidated.Store(uint64(len(dead)))
		sh.metrics.restoreInvalidated.Add(uint64(len(dead)))
		// Clamp fuzzy index entries at/past the recovered end only now: the
		// replay evaluated its v+1 unwind conditions against the unclamped
		// index, exactly as the interleaved full replay does.
		sh.clampIndex(rs.end)
	} else if err != errRestoreAborted {
		err = fmt.Errorf("faster: restore analysis: %w", err)
	}

	rs.mu.Lock()
	if err != nil {
		if rs.failed == nil {
			rs.failed = err
		}
	} else {
		rs.analyzed = true
		rs.sweepOrder = make([]uint32, 0, len(rs.pending))
		for b := range rs.pending {
			rs.sweepOrder = append(rs.sweepOrder, b)
		}
		sort.Slice(rs.sweepOrder, func(i, j int) bool {
			bi, bj := rs.sweepOrder[i], rs.sweepOrder[j]
			if li, lj := len(rs.pending[bi]), len(rs.pending[bj]); li != lj {
				return li > lj
			}
			return bi < bj
		})
	}
	failed := rs.failed
	rs.cond.Broadcast()
	rs.mu.Unlock()
	sh.flight.Emit(obs.FlightSweep, sh.id, uint64(rs.version), rs.token, "", rs.coldRemaining(), uint64(rs.pendingRecords.Load()))
	if failed != nil {
		// The restore cannot fall back (the store is already serving this
		// commit); leave the pointer set so operations surface the failure.
		return
	}

	rs.sweep()

	rs.mu.Lock()
	failed = rs.failed
	if failed == nil {
		rs.sweepDone = true
		rs.timeToWarmNanos.Store(nowNanos() - rs.startNanos)
	}
	rs.cond.Broadcast()
	rs.mu.Unlock()
	if failed != nil {
		return
	}
	// Publish the final snapshot before clearing the pointer so restore
	// status never has a gap, then detach: the operation fast path returns
	// to a single nil pointer check.
	sh.restoreStats.Store(rs.snapshot())
	sh.restore.Store(nil)
	sh.flight.Emit(obs.FlightSweep, sh.id, uint64(rs.version), rs.token, "", 0, 0)
}

// file is the replay's sink for a committed suffix record: into the directory,
// under its bucket. It stops the scan once the restore is aborted.
func (rs *restoreState) file(h, addr uint64) bool {
	b := uint32(h & rs.sh.index.mask)
	rs.pending[b] = append(rs.pending[b], suffixRecord{h, addr})
	rs.suffixRecords.Add(1)
	rs.pendingRecords.Add(1)
	return !rs.aborted.Load()
}

// isWarm reports the bucket's warm bit (lock-free).
func (rs *restoreState) isWarm(b uint32) bool {
	return rs.warmBits[b>>6].Load()&(1<<(b&63)) != 0
}

// ensureWarm is the operation gate: nil error means the key's bucket holds
// every committed suffix record and the operation may proceed. The fast path
// is one atomic bitmap load; the slow path blocks the calling session
// goroutine (never parks the op as Pending — same-session ordering must hold)
// until the bucket is warm.
func (rs *restoreState) ensureWarm(h uint64) error {
	b := uint32(h & rs.sh.index.mask)
	if rs.isWarm(b) {
		return nil
	}
	return rs.warmSlow(b)
}

// warmSlow warms bucket b on demand (or waits for whoever is warming it).
func (rs *restoreState) warmSlow(b uint32) error {
	rs.sh.metrics.restoreBlockedOps.Inc()
	rs.blockedOps.Add(1)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for !rs.isWarm(b) {
		switch {
		case rs.failed != nil:
			return rs.failed
		case !rs.analyzed || rs.warming[b]:
			rs.cond.Wait()
		default:
			rs.warmLocked(b, false)
		}
	}
	return nil
}

// warmLocked warms cold bucket b, which nobody else is warming: claim it,
// relink the records filed under it in log order, publish it warm. The caller
// holds rs.mu; it is released around the relinking — per-bucket exclusivity
// comes from the warming map, and no operation can run inside this bucket yet
// (they are all blocked in ensureWarm). A bucket no suffix record routes to
// needs no relinking: the recovered index entry is already complete.
func (rs *restoreState) warmLocked(b uint32, bySweep bool) {
	recs := rs.pending[b]
	if len(recs) > 0 {
		rs.warming[b] = true
		rs.mu.Unlock()
		rs.replayBucket(recs)
		rs.mu.Lock()
		delete(rs.warming, b)
	}
	rs.markWarmLocked(b, len(recs), bySweep)
	rs.cond.Broadcast()
}

// replayBucket relinks one bucket's filed records in log order: slot stores,
// no device read and nothing that can fail.
func (rs *restoreState) replayBucket(recs []suffixRecord) {
	for _, r := range recs {
		rs.sh.relink(r.hash, r.addr)
	}
}

// markWarmLocked publishes bucket b as warm: directory entry dropped, warm
// bit set, and the warm-bucket flight event emitted — all before any blocked
// operation can resume, which is the recorder-visible proof that no request
// observed pre-prefix state. Caller holds rs.mu.
func (rs *restoreState) markWarmLocked(b uint32, records int, bySweep bool) {
	delete(rs.pending, b)
	// Emit BEFORE setting the warm bit: a lock-free fast-path reader that
	// observes the bit acquires everything sequenced before the bit store, so
	// the event is always in the recorder by the time any operation proceeds.
	rs.sh.flight.Emit(obs.FlightWarmBucket, rs.sh.id, uint64(rs.version), rs.token, "",
		uint64(b), uint64(records))
	// All warm-bit writers hold rs.mu; readers are lock-free atomic loads.
	rs.warmBits[b>>6].Store(rs.warmBits[b>>6].Load() | 1<<(b&63))
	rs.warmCount.Add(1)
	if records > 0 {
		rs.pendingRecords.Add(int64(-records))
		rs.replayed.Add(uint64(records))
		rs.sh.metrics.restoreReplayed.Add(uint64(records))
	}
	if bySweep {
		rs.sweepWarms.Add(1)
		rs.sh.metrics.restoreSweepWarms.Inc()
	} else {
		rs.ondemandWarms.Add(1)
		rs.sh.metrics.restoreOndemandWarms.Inc()
	}
}

// sweepFlightEvery paces FlightSweep progress events (every N warmed buckets).
const sweepFlightEvery = 256

// sweep warms every remaining cold bucket, densest directory entries first,
// then marks the untouched (record-free) buckets warm in bulk. It returns
// early, with rs.failed set, when the restore is aborted.
func (rs *restoreState) sweep() {
	sh := rs.sh
	sinceEmit := 0
	for _, b := range rs.sweepOrder {
		rs.mu.Lock()
		if rs.failed != nil {
			rs.mu.Unlock()
			return
		}
		swept := !rs.isWarm(b) && !rs.warming[b]
		if swept {
			rs.warmLocked(b, true)
		}
		rs.mu.Unlock()
		if !swept {
			continue
		}
		if sinceEmit++; sinceEmit >= sweepFlightEvery {
			sinceEmit = 0
			sh.flight.Emit(obs.FlightSweep, sh.id, uint64(rs.version), rs.token, "",
				rs.coldRemaining(), uint64(rs.pendingRecords.Load()))
		}
	}
	// Wait out any in-flight on-demand warms, then flip the record-free
	// remainder warm in bulk (they need no replay).
	rs.mu.Lock()
	for len(rs.warming) > 0 && rs.failed == nil {
		rs.cond.Wait()
	}
	if rs.failed == nil {
		// The record-free remainder has no suffix records to replay, so no
		// per-bucket events are owed — but emit the fully-warm sweep event
		// BEFORE flipping the bits, so any operation that proceeds because of
		// this flip is ordered after the recorder knows the shard is warm.
		sh.flight.Emit(obs.FlightSweep, sh.id, uint64(rs.version), rs.token, "", 0, 0)
		for i := range rs.warmBits {
			rs.warmBits[i].Store(^uint64(0))
		}
		rs.warmCount.Store(rs.nBuckets)
	}
	rs.mu.Unlock()
	rs.cond.Broadcast()
}

// coldRemaining is the not-yet-warm bucket count.
func (rs *restoreState) coldRemaining() uint64 {
	w := rs.warmCount.Load()
	if w >= rs.nBuckets {
		return 0
	}
	return rs.nBuckets - w
}

// abort cancels the restore (Store.Close). Blocked operations wake with an
// error; the goroutine exits at the replay's next committed record or the
// sweep's next bucket.
func (rs *restoreState) abort() {
	rs.aborted.Store(true)
	rs.mu.Lock()
	if rs.failed == nil && !rs.sweepDone {
		rs.failed = errRestoreAborted
	}
	rs.mu.Unlock()
	rs.cond.Broadcast()
}

// waitDone blocks until the restore completes (nil) or fails.
func (rs *restoreState) waitDone() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for !rs.sweepDone && rs.failed == nil {
		rs.cond.Wait()
	}
	return rs.failed
}

// snapshot captures the shard's restore status.
func (rs *restoreState) snapshot() *RestoreShardStatus {
	rs.mu.Lock()
	st := &RestoreShardStatus{
		Shard:              rs.sh.id,
		Analyzed:           rs.analyzed,
		TotalBuckets:       rs.nBuckets,
		WarmBuckets:        rs.warmCount.Load(),
		SuffixRecords:      rs.suffixRecords.Load(),
		ReplayedRecords:    rs.replayed.Load(),
		InvalidatedRecords: rs.invalidated.Load(),
		OnDemandWarms:      rs.ondemandWarms.Load(),
		SweepWarms:         rs.sweepWarms.Load(),
		BlockedOps:         rs.blockedOps.Load(),
		AnalysisNanos:      rs.analysisNanos.Load(),
		TimeToWarmNanos:    rs.timeToWarmNanos.Load(),
	}
	if rs.failed != nil {
		st.Failed = rs.failed.Error()
	}
	rs.mu.Unlock()
	st.ColdBuckets = st.TotalBuckets - st.WarmBuckets
	if p := rs.pendingRecords.Load(); p > 0 {
		st.PendingRecords = uint64(p)
	}
	return st
}

// restoreSnapshot returns the shard's current restore status: the live one
// while restoring, the final one after, nil when the shard never
// instant-restored.
func (sh *shard) restoreSnapshot() *RestoreShardStatus {
	if rs := sh.restore.Load(); rs != nil {
		return rs.snapshot()
	}
	return sh.restoreStats.Load()
}

// restoring reports whether the shard is still warming. The restore pointer is
// cleared a moment after the sweep is done — after WaitRestored has returned —
// so this reads what WaitRestored waits for, under rs.mu, not the pointer.
func (sh *shard) restoring() bool {
	rs := sh.restore.Load()
	if rs == nil {
		return false
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return !rs.sweepDone
}

// Restoring reports whether an instant restore is still warming any shard.
func (s *Store) Restoring() bool {
	for _, sh := range s.shards {
		if sh.restoring() {
			return true
		}
	}
	return false
}

// RestoreStatus reports instant-restore progress. Nil when the store was not
// instant-restored; after the store is fully warm it keeps returning the
// final per-shard statistics (time-to-warm, warm split) with Restoring=false.
func (s *Store) RestoreStatus() *RestoreStatus {
	out := &RestoreStatus{Mode: "instant"}
	any := false
	for _, sh := range s.shards {
		if rs := sh.restore.Load(); rs != nil {
			any = true
			out.Restoring = out.Restoring || sh.restoring()
			out.Shards = append(out.Shards, *rs.snapshot())
			continue
		}
		if st := sh.restoreStats.Load(); st != nil {
			any = true
			out.Shards = append(out.Shards, *st)
		}
	}
	if !any {
		return nil
	}
	return out
}

// WaitRestored blocks until every shard of an instant restore is fully warm,
// returning the first shard's failure if the restore cannot complete. It
// returns nil immediately for stores that were not instant-restored.
func (s *Store) WaitRestored() error {
	for _, sh := range s.shards {
		if rs := sh.restore.Load(); rs != nil {
			if err := rs.waitDone(); err != nil {
				return err
			}
		}
	}
	return nil
}
