package faster

import (
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/hlog"
	"repro/internal/obs"
)

// shard is one CPR domain of a Store: the original single-store internals —
// latch-free hash index, HybridLog, epoch manager, pending-I/O bookkeeping
// and the five-phase checkpoint state machine — instantiated once per
// partition. Each shard runs its own instance of Fig. 9a and makes its own
// capture durable; Store.Commit drives all of them to a common version and
// Store.finishCommit writes the one commit record.
type shard struct {
	id int

	cfg    Config
	epochs *epoch.Manager
	log    *hlog.Log
	index  *index

	// state packs the shard's phase (high 8 bits) and version (low 32 bits).
	state atomic.Uint64
	// futureFrom[v&1] is commit v's log_start: the tail before v published
	// prepare on any shard (see isFuture).
	futureFrom [2]atomic.Uint64

	ckptMu sync.Mutex
	ckpt   *checkpointCtx // non-nil while a commit is active on this shard

	sessionMu sync.Mutex
	sessions  map[string]*shardSession

	// lastIndex/lastLis/lastLie identify the most recent fuzzy index
	// checkpoint (its blob's name), carried into a log-only commit's section
	// of the record (Sec. 6.3). Written only from the single active checkpoint
	// goroutine.
	lastIndex        string
	lastLis, lastLie uint64

	// recordMu is the store's lock around amending a commit record.
	recordMu *sync.Mutex

	// recoveredScanStart is the address from which this shard's own recovery
	// (or promotion) rewrote log state on the device — see Store.ResyncFrom.
	// Zero when the shard was opened fresh. Written single-threaded at
	// recovery/promotion time.
	recoveredScanStart uint64

	// replicaDead tracks records shipped ahead of their commit (replica mode
	// only; see markReplicaDead). The replication applier serializes every
	// access externally.
	replicaDead map[uint64]bool

	// restore is non-nil while an instant restore is warming this shard's
	// buckets (Config.InstantRestore); the operation path checks it with a
	// single pointer load. restoreStats keeps the final restore statistics
	// after the shard is fully warm (restore-status survives completion).
	restore      atomic.Pointer[restoreState]
	restoreStats atomic.Pointer[RestoreShardStatus]

	metrics storeMetrics        // shared across shards: store-wide operation counts
	flight  *obs.FlightRecorder // nil-safe; events tagged with sh.id
}

// openShard creates one shard at version 1. cfg must already be the shard's
// private configuration (own device, prefixed metrics view — see
// Store.shardConfig).
func openShard(cfg Config, id int, metrics storeMetrics, recordMu *sync.Mutex) (*shard, error) {
	em := epoch.New()
	em.Instrument(cfg.Metrics)
	em.InstrumentFlight(cfg.Flight, id)
	l, err := hlog.New(hlog.Config{
		PageBits:        cfg.PageBits,
		MemPages:        cfg.MemPages,
		MutableFraction: cfg.MutableFraction,
		Device:          cfg.Device,
		Epochs:          em,
		IOWorkers:       cfg.IOWorkers,
		Metrics:         cfg.Metrics,
		VerifyReads:     cfg.VerifyReads,
		Flight:          cfg.Flight,
		FlightShard:     id,
	})
	if err != nil {
		return nil, err
	}
	idx, err := newIndex(cfg.IndexBuckets, 0)
	if err != nil {
		l.Close()
		return nil, err
	}
	sh := &shard{
		id:       id,
		cfg:      cfg,
		epochs:   em,
		log:      l,
		index:    idx,
		sessions: make(map[string]*shardSession),
		metrics:  metrics,
		flight:   cfg.Flight,
		recordMu: recordMu,
	}
	cfg.Metrics.GaugeFunc("faster_version", func() int64 { return int64(sh.Version()) })
	cfg.Metrics.GaugeFunc("faster_phase", func() int64 { return int64(sh.Phase()) })
	cfg.Metrics.GaugeFunc("faster_sessions", func() int64 { return int64(sh.sessionCount()) })
	sh.state.Store(packState(Rest, 1))
	return sh, nil
}

// close shuts down the shard's background I/O, cancelling any in-flight
// instant restore first (blocked operations wake with an error; the restore
// goroutine exits on its next abort check or when the closed log fails its
// reads).
func (sh *shard) close() {
	rs := sh.restore.Load()
	if rs != nil {
		rs.abort()
	}
	sh.log.Close()
	if rs != nil && rs.started {
		<-rs.finished
	}
}

// Phase returns the shard's current CPR phase.
func (sh *shard) Phase() Phase { p, _ := unpackState(sh.state.Load()); return p }

// Version returns the shard's current CPR version.
func (sh *shard) Version() uint32 { _, v := unpackState(sh.state.Load()); return v }

// isFuture reports whether a record of on-record version recVer at addr belongs
// to v+1 relative to commit v. The 13-bit version alone says so of a record
// written 8192·k commits earlier too; but a v+1 record is written only after
// commit v began, so it lies at or above the commit's log_start.
func (sh *shard) isFuture(recVer uint16, addr uint64, v uint32) bool {
	return recVer == recVersion(v+1) && addr >= sh.futureFrom[v&1].Load()
}

func (sh *shard) sessionCount() int {
	sh.sessionMu.Lock()
	defer sh.sessionMu.Unlock()
	return len(sh.sessions)
}

// waitForRest spins until the shard is at rest, driving epoch progress so an
// in-flight commit can advance even if all sessions are idle.
func (sh *shard) waitForRest() {
	for {
		if p, _ := unpackState(sh.state.Load()); p == Rest {
			return
		}
		g := sh.epochs.Acquire()
		g.Refresh()
		g.Release()
	}
}
