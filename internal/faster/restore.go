package faster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/hashfn"
	"repro/internal/hlog"
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
	// SuffixRecords is the committed-version record count the analysis pass
	// found in the log suffix; PendingRecords of them are not yet re-linked.
	SuffixRecords  uint64 `json:"suffix_records"`
	PendingRecords uint64 `json:"pending_records"`
	// ReplayedRecords counts suffix records re-linked into warm buckets;
	// InvalidatedRecords counts post-prefix (v+1) records the analysis pass
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
// suffix; every hash bucket starts cold. A background analysis pass reads the
// suffix once, page-granular: committed records are filed per-bucket in a
// directory, post-prefix (v+1) records are invalidated and their slots
// unwound exactly as a full replay would (the order is equivalent — see
// DESIGN "Instant restore"). A bucket warms by replaying its directory entry
// in log order; operations on a cold bucket block until their bucket is warm
// (a bounded one-time cost), and a sweeper warms the rest, densest first.
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
	// analyzed flips once the analysis pass has examined the whole suffix;
	// no bucket can be proven warm before that, so ensureWarm waits on it.
	analyzed bool
	failed   error
	// pending is the analysis directory: bucket -> suffix record addresses
	// in log order. warming guards per-bucket exclusivity between on-demand
	// warms and the sweeper.
	pending map[uint32][]uint64
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

// newRestoreState prepares (but does not start) a shard's instant restore.
// Called from recoverShard after the index is loaded; the analysis goroutine
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
		pending:   make(map[uint32][]uint64),
		warming:   make(map[uint32]bool),
		finished:  make(chan struct{}),
	}
	rs.cond = sync.NewCond(&rs.mu)
	rs.pendingRecords.Store(0)
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

// run is the restore goroutine: analyze the suffix once, then sweep the
// remaining cold buckets warm.
func (rs *restoreState) run() {
	defer close(rs.finished)
	sh := rs.sh

	err := rs.analyze()
	if err == nil {
		// Clamp fuzzy index entries at/past the recovered end only now: the
		// analysis pass evaluated its v+1 unwind conditions against the
		// unclamped index, exactly as the interleaved full replay does.
		sh.clampIndex(rs.end)
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
	if failed != nil {
		// The restore cannot fall back (the store is already serving this
		// commit); leave the pointer set so operations surface the failure.
		sh.flight.Emit(obs.FlightSweep, sh.id, uint64(rs.version), rs.token, "", rs.coldRemaining(), uint64(rs.pendingRecords.Load()))
		return
	}
	sh.flight.Emit(obs.FlightSweep, sh.id, uint64(rs.version), rs.token, "", rs.coldRemaining(), uint64(rs.pendingRecords.Load()))

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

// analyze reads the log suffix [scanStart, end) once, page-granular: records
// of version <= v are filed in the per-bucket directory (in log order);
// records of version v+1 are invalidated on the device and their index slots
// unwound, exactly as replayLog does. Invalidation must happen now, not
// lazily: a commit taken after restore, followed by a crash, must not find
// resurrectable v+1 records on the device.
func (rs *restoreState) analyze() error {
	sh := rs.sh
	t0 := nowNanos()
	var keyBuf []byte
	var replayErr error
	err := sh.log.ScanPages(rs.scanStart, rs.end, func(addr uint64, rec hlog.RecordRef) bool {
		if rs.aborted.Load() {
			replayErr = errRestoreAborted
			return false
		}
		keyBuf = rec.Key(keyBuf[:0])
		h := hashfn.Hash64(keyBuf)
		if !isFutureVersion(rec.Version(), rs.version) {
			b := uint32(h & sh.index.mask)
			rs.pending[b] = append(rs.pending[b], addr)
			rs.suffixRecords.Add(1)
			rs.pendingRecords.Add(1)
			return true
		}
		slot := sh.index.findOrCreateSlot(h)
		if err := sh.log.PersistInvalid(addr); err != nil {
			replayErr = fmt.Errorf("faster: restore invalidate %d: %w", addr, err)
			return false
		}
		rs.invalidated.Add(1)
		sh.metrics.restoreInvalidated.Inc()
		if entryAddr(slot.Load()) >= addr {
			prev := rec.Prev()
			if prev >= hlog.FirstAddress {
				slot.Store(tagOf(h) | prev)
			} else {
				slot.Store(0)
			}
		}
		return true
	})
	rs.analysisNanos.Store(nowNanos() - t0)
	if err != nil {
		return fmt.Errorf("faster: restore analysis: %w", err)
	}
	return replayErr
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
	for !rs.analyzed && rs.failed == nil {
		rs.cond.Wait()
	}
	for {
		if rs.failed != nil {
			err := rs.failed
			rs.mu.Unlock()
			return err
		}
		if rs.isWarm(b) {
			rs.mu.Unlock()
			return nil
		}
		if !rs.warming[b] {
			break
		}
		rs.cond.Wait()
	}
	addrs, ok := rs.pending[b]
	if !ok {
		// No suffix records route here: the recovered index entry is already
		// complete. Mark warm without leaving the lock.
		rs.markWarmLocked(b, 0, false)
		rs.mu.Unlock()
		rs.cond.Broadcast()
		return nil
	}
	rs.warming[b] = true
	rs.mu.Unlock()

	err := rs.replayBucket(addrs)

	rs.mu.Lock()
	delete(rs.warming, b)
	if err != nil {
		if rs.failed == nil {
			rs.failed = err
		}
		err = rs.failed
		rs.mu.Unlock()
		rs.cond.Broadcast()
		return err
	}
	rs.markWarmLocked(b, len(addrs), false)
	rs.mu.Unlock()
	rs.cond.Broadcast()
	return nil
}

// replayBucket re-links one bucket's suffix records in log order. Called
// without the mutex held; per-bucket exclusivity comes from the warming map,
// and no operation can run inside this bucket yet (they are all blocked in
// ensureWarm), so the plain slot stores cannot race a CAS.
func (rs *restoreState) replayBucket(addrs []uint64) error {
	sh := rs.sh
	var keyBuf []byte
	for _, addr := range addrs {
		rec, err := sh.log.ReadRecordCopy(addr)
		if err != nil {
			return fmt.Errorf("faster: restore warm read %d: %w", addr, err)
		}
		keyBuf = rec.Key(keyBuf[:0])
		h := hashfn.Hash64(keyBuf)
		slot := sh.index.findOrCreateSlot(h)
		slot.Store(tagOf(h) | addr)
	}
	return nil
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
// then marks the untouched (record-free) buckets warm in bulk.
func (rs *restoreState) sweep() {
	sh := rs.sh
	sinceEmit := 0
	for _, b := range rs.sweepOrder {
		if rs.aborted.Load() {
			rs.mu.Lock()
			if rs.failed == nil {
				rs.failed = errRestoreAborted
			}
			rs.mu.Unlock()
			rs.cond.Broadcast()
			return
		}
		rs.mu.Lock()
		if rs.failed != nil {
			rs.mu.Unlock()
			return
		}
		if rs.isWarm(b) || rs.warming[b] {
			rs.mu.Unlock()
			continue
		}
		addrs, ok := rs.pending[b]
		if !ok {
			rs.markWarmLocked(b, 0, true)
			rs.mu.Unlock()
			rs.cond.Broadcast()
			continue
		}
		rs.warming[b] = true
		rs.mu.Unlock()

		err := rs.replayBucket(addrs)

		rs.mu.Lock()
		delete(rs.warming, b)
		if err != nil {
			if rs.failed == nil {
				rs.failed = err
			}
			rs.mu.Unlock()
			rs.cond.Broadcast()
			return
		}
		rs.markWarmLocked(b, len(addrs), true)
		rs.mu.Unlock()
		rs.cond.Broadcast()
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
// error; the goroutine exits at its next check or when the closing log fails
// its reads.
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
