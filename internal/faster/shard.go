package faster

import (
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/hlog"
	"repro/internal/obs"
)

// shard is one data partition of a Store: a latch-free hash index and a
// HybridLog on its own device, with its own I/O pool. It runs no protocol of
// its own: its log is registered with the store's epoch manager, the store's
// one CPR state machine commits every shard at once, and each shard's capture
// becomes its section of the one commit record.
type shard struct {
	id int

	cfg   Config
	log   *hlog.Log
	index *index

	// futureFrom[v&1] is commit v's log_start on this shard: the tail before
	// the commit published prepare (see isFuture).
	futureFrom [2]atomic.Uint64

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
	// after the shard is fully warm (RestoreStatus survives completion).
	restore      atomic.Pointer[restoreState]
	restoreStats atomic.Pointer[RestoreShardStatus]

	metrics storeMetrics        // shared across shards: store-wide operation counts
	flight  *obs.FlightRecorder // nil-safe; events tagged with sh.id
}

// openShard creates one empty shard whose log is registered with em. cfg must
// already be the shard's private configuration (own device, prefixed metrics
// view — see Store.shardConfig).
func openShard(cfg Config, id int, em *epoch.Manager, metrics storeMetrics, recordMu *sync.Mutex) (*shard, error) {
	l, err := hlog.New(hlog.Config{
		PageBits:        cfg.PageBits,
		MemPages:        cfg.MemPages,
		MutableFraction: cfg.MutableFraction,
		Device:          cfg.Device,
		Epochs:          em,
		Metrics:         cfg.Metrics,
		VerifyReads:     cfg.VerifyReads,
		Flight:          cfg.Flight,
		FlightShard:     id,
	})
	if err != nil {
		return nil, err
	}
	idx, err := newIndex(cfg.IndexBuckets)
	if err != nil {
		l.Close()
		return nil, err
	}
	return &shard{
		id:       id,
		cfg:      cfg,
		log:      l,
		index:    idx,
		metrics:  metrics,
		flight:   cfg.Flight,
		recordMu: recordMu,
	}, nil
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

// isFuture reports whether a record of on-record version recVer at addr belongs
// to v+1 relative to commit v. The 13-bit version alone says so of a record
// written 8192·k commits earlier too; but a v+1 record is written only after
// commit v began, so it lies at or above the commit's log_start.
func (sh *shard) isFuture(recVer uint16, addr uint64, v uint32) bool {
	return recVer == recVersion(v+1) && addr >= sh.futureFrom[v&1].Load()
}
