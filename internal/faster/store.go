package faster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/epoch"
	"repro/internal/hashfn"
	"repro/internal/hlog"
	"repro/internal/obs"
	"repro/internal/storage"
)

// nowNanos is the wall clock used by the durability-lag bookkeeping.
func nowNanos() int64 { return time.Now().UnixNano() }

// Phase is a state of the CPR commit state machine (Fig. 9a).
type Phase uint8

// The five phases of a FASTER CPR commit.
const (
	Rest Phase = iota
	Prepare
	InProgress
	WaitPending
	WaitFlush
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case Rest:
		return "rest"
	case Prepare:
		return "prepare"
	case InProgress:
		return "in-progress"
	case WaitPending:
		return "wait-pending"
	case WaitFlush:
		return "wait-flush"
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// CommitKind selects how a checkpoint captures volatile records (App. D).
type CommitKind uint8

const (
	// FoldOver shifts the read-only offset to the tail: fully incremental,
	// but post-commit updates pay read-copy-update until the working set
	// migrates back to the mutable region.
	FoldOver CommitKind = iota
	// Snapshot writes the volatile log region to a separate artifact and
	// re-opens the region for in-place updates immediately after.
	Snapshot
)

// String implements fmt.Stringer.
func (k CommitKind) String() string {
	if k == Snapshot {
		return "snapshot"
	}
	return "fold-over"
}

// VersionTransfer selects how prepare→in-progress hand-off of records is
// coordinated (Sec. 6.5 / App. C).
type VersionTransfer uint8

const (
	// FineGrained uses bucket-level shared/exclusive latches (Alg. 4/5).
	FineGrained VersionTransfer = iota
	// CoarseGrained uses the safe-read-only offset as the eligibility
	// marker; conflicting operations go pending instead of latching.
	CoarseGrained
)

// String implements fmt.Stringer.
func (v VersionTransfer) String() string {
	if v == CoarseGrained {
		return "coarse"
	}
	return "fine"
}

// RMWOps defines read-modify-write semantics for a store (the paper's
// running per-key "sum" is AddUint64). Both methods run on the operation path
// and the store copies their result into the log at once, so they need not —
// and, to keep the path allocation-free, should not — allocate it.
type RMWOps interface {
	// Initial returns the value for an RMW on a missing key. It may return
	// input (or a prefix of it).
	Initial(input []byte) []byte
	// Update computes the new value from the current one. cur is a private
	// copy in a session-owned buffer: Update may overwrite it and return it
	// (or a slice of it, or append to it). It must not retain cur or input.
	Update(cur, input []byte) []byte
}

// AddUint64 implements RMWOps over little-endian 8-byte counters, matching
// the paper's RMW workload (increment by an input array entry).
type AddUint64 struct{}

// Initial implements RMWOps: input as an 8-byte counter (zero-extended).
func (AddUint64) Initial(input []byte) []byte {
	if len(input) >= 8 {
		return input[:8]
	}
	var out [8]byte
	copy(out[:], input)
	return out[:]
}

// Update implements RMWOps, adding input to cur in place.
func (AddUint64) Update(cur, input []byte) []byte {
	binary.LittleEndian.PutUint64(cur, binary.LittleEndian.Uint64(cur)+binary.LittleEndian.Uint64(input))
	return cur[:8]
}

// Config parameterizes a Store.
type Config struct {
	// Shards partitions the store's data — each shard with its own hash
	// index, HybridLog, device and I/O pool — routed by key-hash high bits
	// (default 1). The CPR protocol is not partitioned: one epoch manager and
	// one state machine commit every shard under one token, so a session
	// demarcates a single commit point whatever the shard count.
	Shards int
	// IndexBuckets is the number of main hash buckets (power of two), split
	// across shards. The paper's default is #keys/2 with 7 entries per bucket.
	IndexBuckets int
	// PageBits, MemPages, MutableFraction configure the HybridLog. MemPages
	// is a store-wide budget: a multi-shard store divides it across shards.
	PageBits        uint
	MemPages        int
	MutableFraction float64
	// Device backs the HybridLog. Defaults to an in-memory device.
	// Only valid for a single-shard store; use DeviceFactory otherwise.
	Device storage.Device
	// DeviceFactory supplies one device per shard (required if a multi-shard
	// store should not default to per-shard in-memory devices). Mutually
	// exclusive with Device.
	DeviceFactory func(shard int) (storage.Device, error)
	// Checkpoints stores commit artifacts: one commit record per commit and
	// the index and snapshot blobs it names. Defaults to an in-memory store.
	Checkpoints storage.CheckpointStore
	// RMW supplies read-modify-write semantics. Defaults to AddUint64.
	RMW RMWOps
	// Kind selects fold-over or snapshot commits.
	Kind CommitKind
	// Transfer selects fine- or coarse-grained version transfer.
	Transfer VersionTransfer
	// Metrics receives the store's instrumentation (and the log's, epoch
	// manager's and I/O pool's). Defaults to a fresh enabled registry; pass
	// obs.NewNop() to disable collection. Every name is registered once at any
	// shard count: the shards' logs and I/O pools count into the same counters
	// and histograms, and each gauge is the store's (summed over the shards).
	Metrics *obs.Registry
	// Flight, when non-nil, records the causal commit-lifecycle event stream
	// (epoch bumps, phase transitions, artifact writes, log flushes, ...) for
	// every shard. Nil disables the flight recorder at zero hot-path cost; the
	// phase timeline (Store.Tracer) is computed from it and is then empty.
	Flight *obs.FlightRecorder
	// ReqTrace, when non-nil, is the request tracer shared by the layers
	// serving this store (kvserver request hops, repl ship/announce spans).
	// The store itself only carries it — per-request spans are emitted by the
	// serving layer, which owns request boundaries. Nil disables request
	// tracing at one pointer test per call site.
	ReqTrace *obs.RequestTracer
	// Replica opens the store as a replication target: recovery replays
	// non-destructively (records shipped ahead of their commit are hidden in
	// memory instead of invalidated on the device, because the next installed
	// commit makes them live) and ApplyCommitted may advance the visible
	// state. See internal/repl and Store.Promote.
	Replica bool
	// Deprecated: ignored. Recover has one mode, the full replay; this field,
	// Store.WaitRestored, Store.RestoreStatus and RestoreStatus stay only
	// until the benchmark module stops naming them.
	InstantRestore bool
}

// RestoreStatus is what Store.RestoreStatus returned for an instant restore.
//
// Deprecated: nothing fills it; Store.RestoreStatus returns nil.
type RestoreStatus struct {
	Shards []struct{ OnDemandWarms, BlockedOps, ReplayedRecords uint64 }
}

// RestoreStatus returns nil: no store is instant-restored.
//
// Deprecated: recovery replays the whole suffix before Recover returns.
func (s *Store) RestoreStatus() *RestoreStatus { return nil }

// WaitRestored returns nil: a recovered store is warm when Recover returns.
//
// Deprecated: there is nothing to wait for.
func (s *Store) WaitRestored() error { return nil }

func (c *Config) fill() error {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 0 {
		return fmt.Errorf("faster: Shards %d must be positive", c.Shards)
	}
	if c.Device != nil && c.DeviceFactory != nil {
		return fmt.Errorf("faster: Device and DeviceFactory are mutually exclusive")
	}
	if c.Shards > 1 && c.Device != nil {
		return fmt.Errorf("faster: Shards > 1 needs one device per shard; set DeviceFactory instead of Device")
	}
	if c.IndexBuckets == 0 {
		c.IndexBuckets = 1 << 16
	}
	if c.IndexBuckets&(c.IndexBuckets-1) != 0 {
		return fmt.Errorf("faster: IndexBuckets %d must be a power of two", c.IndexBuckets)
	}
	if c.Checkpoints == nil {
		c.Checkpoints = storage.NewMemCheckpointStore()
	}
	if c.RMW == nil {
		c.RMW = AddUint64{}
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return nil
}

// storeMetrics holds the store's hot-path metric handles, resolved once at
// Open so operations never touch the registry. All shards share one set: a
// partitioned store reports store-wide operation counts.
type storeMetrics struct {
	reads, upserts, rmws, deletes *obs.Counter
	pendings                      *obs.Counter // operations that went pending
	ioReads                       *obs.Counter // cold-record fetches issued
	commits                       *obs.Counter
	commitBytes                   *obs.Counter
	commitNs                      *obs.Histogram
	commitFailures                *obs.Counter // commits aborted by I/O failure
	recoverySkips                 *obs.Counter // commits skipped as unverifiable
	lagOps                        *obs.Histogram
	lagNs                         *obs.Histogram
}

func newStoreMetrics(reg *obs.Registry) storeMetrics {
	return storeMetrics{
		reads:          reg.Counter("faster_reads_total"),
		upserts:        reg.Counter("faster_upserts_total"),
		rmws:           reg.Counter("faster_rmws_total"),
		deletes:        reg.Counter("faster_deletes_total"),
		pendings:       reg.Counter("faster_pending_ops_total"),
		ioReads:        reg.Counter("faster_io_reads_total"),
		commits:        reg.Counter("faster_commits_total"),
		commitBytes:    reg.Counter("faster_commit_bytes_total"),
		commitNs:       reg.Histogram("faster_commit_ns"),
		commitFailures: reg.Counter("faster_commit_failures_total"),
		recoverySkips:  reg.Counter("faster_recovery_skipped_commits_total"),
		// Durability lag, observed per session at every completed commit:
		// how far the session's issued operations ran ahead of its committed
		// point t_i, in operations and in wall time since its commit point was
		// demarcated.
		lagOps: reg.Histogram("faster_session_lag_ops"),
		lagNs:  reg.Histogram("faster_session_lag_ns"),
	}
}

// Store is a FASTER instance with CPR durability, its data partitioned into
// one or more shards. All operations happen through Sessions (Sec. 5.2), which
// route by key hash; Commit triggers an asynchronous CPR checkpoint of every
// shard; Recover rebuilds a store from its latest commit. One epoch framework
// and one five-phase state machine drive the protocol for every shard count.
type Store struct {
	cfg        Config
	shards     []*shard
	shardShift uint // 64 - log2(Shards) when Shards is a power of two

	// epochs is the store's epoch table: one entry per session, bumped by the
	// state machine and by every shard's log.
	epochs *epoch.Manager
	// state packs the CPR phase (bits 32 and up) and version (low 32 bits).
	state atomic.Uint64

	// mu guards the session registry and serializes session registration
	// against commit admission (lock order: mu, then ckptMu).
	mu               sync.Mutex
	sessions         map[string]*Session
	recoveredSerials map[string]uint64

	// active is the running commit, from Commit until its result is
	// published; ckptMu orders its clearing with the results.
	active      atomic.Pointer[checkpointCtx]
	ckptMu      sync.Mutex
	results     commitResults
	latestToken string        // newest commit completed, recovered or installed here ("" if none)
	latestVer   uint32        // and its version
	commitSeq   atomic.Uint64 // token counter

	// hookMu guards commitHooks (see OnCommit; fired after every completed
	// commit, used by the replication shipper) and artifactHooks (see
	// OnCommitArtifact; produce sections of each commit's record).
	hookMu        sync.Mutex
	commitHooks   []func(CommitResult)
	artifactHooks []func(CommitResult) (string, []byte, error)

	metrics storeMetrics

	// report describes how the store was recovered (nil when opened fresh).
	report *RecoveryReport
}

// RecoveryReport returns the report from the Recover call that produced this
// store: the commit recovered and any newer commits skipped as unverifiable.
// It is nil for a store created with Open.
func (s *Store) RecoveryReport() *RecoveryReport { return s.report }

func packState(p Phase, v uint32) uint64   { return uint64(p)<<32 | uint64(v) }
func unpackState(s uint64) (Phase, uint32) { return Phase(s >> 32), uint32(s) }

func newStore(cfg Config) *Store {
	s := &Store{
		cfg:              cfg,
		epochs:           epoch.New(),
		sessions:         make(map[string]*Session),
		recoveredSerials: make(map[string]uint64),
		metrics:          newStoreMetrics(cfg.Metrics),
	}
	s.epochs.Instrument(cfg.Metrics)
	s.epochs.InstrumentFlight(cfg.Flight, -1)
	s.state.Store(packState(Rest, 1))
	if n := cfg.Shards; n&(n-1) == 0 {
		s.shardShift = 64 - uint(bits.Len(uint(n))-1)
	}
	return s
}

// shardConfig derives shard i's private configuration — its own device and a
// 1/N share of the index and log-memory budgets. The metrics registry and the
// checkpoint store are shared: blobName puts the shard in a blob's name.
func (s *Store) shardConfig(i int) (Config, error) {
	sc := s.cfg
	sc.DeviceFactory = nil
	if s.cfg.DeviceFactory != nil {
		d, err := s.cfg.DeviceFactory(i)
		if err != nil {
			return Config{}, fmt.Errorf("faster: shard %d device: %w", i, err)
		}
		sc.Device = d
	}
	if sc.Device == nil {
		sc.Device = storage.NewMemDevice()
	}
	n := s.cfg.Shards
	sc.IndexBuckets = shardShare(s.cfg.IndexBuckets, n, 64)
	if sc.IndexBuckets&(sc.IndexBuckets-1) != 0 {
		sc.IndexBuckets = 1 << bits.Len(uint(sc.IndexBuckets)) // non-power-of-two shard count: round up
	}
	sc.MemPages = shardShare(s.cfg.MemPages, n, hlog.MinMemPages)
	return sc, nil
}

// shardShare is one shard's share of a store-wide budget split n ways: never
// below floor, unless the whole budget is.
func shardShare(total, n, floor int) int { return max(total/n, min(total, floor)) }

// Open creates a Store ready for use at version 1.
func Open(cfg Config) (*Store, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := newStore(cfg)
	for i := 0; i < cfg.Shards; i++ {
		sc, err := s.shardConfig(i)
		if err == nil {
			var sh *shard
			sh, err = openShard(sc, i, s.epochs, s.metrics)
			if err == nil {
				s.shards = append(s.shards, sh)
				continue
			}
		}
		s.Close()
		return nil, err
	}
	s.registerStoreGauges()
	s.registerLagGauges()
	return s, nil
}

// registerStoreGauges exposes the state machine, the session count and
// the shards' I/O queues, each once per store.
func (s *Store) registerStoreGauges() {
	reg := s.cfg.Metrics
	reg.GaugeFunc("faster_shards", func() int64 { return int64(len(s.shards)) })
	reg.GaugeFunc("faster_version", func() int64 { return int64(s.Version()) })
	reg.GaugeFunc("faster_phase", func() int64 { return int64(s.Phase()) })
	reg.GaugeFunc("faster_sessions", func() int64 { return int64(s.SessionCount()) })
	sum := func(f func(*shard) int64) func() int64 {
		return func() (n int64) {
			for _, sh := range s.shards {
				n += f(sh)
			}
			return n
		}
	}
	reg.GaugeFunc("storage_io_inflight", sum(func(sh *shard) int64 { return sh.log.IOPool().InFlight() }))
	reg.GaugeFunc("storage_io_queue_depth", sum(func(sh *shard) int64 { return sh.log.IOPool().QueueDepth() }))
}

// Close shuts down background I/O. Outstanding sessions become invalid.
func (s *Store) Close() {
	for _, sh := range s.shards {
		sh.log.Close()
	}
}

// shardOf routes a key hash to its shard. High bits are used so the
// per-shard index distribution stays uniform (buckets select on low bits).
func (s *Store) shardOf(hash uint64) int {
	if len(s.shards) == 1 {
		return 0
	}
	if s.shardShift != 0 {
		return int(hash >> s.shardShift)
	}
	return int((hash >> 32) % uint64(len(s.shards)))
}

// Phase returns the CPR phase. While a commit is writing its record (the
// machine back at rest in v+1, the record not yet durable) it reports
// wait-flush, so polling Phase() == Rest observes completed commits only.
func (s *Store) Phase() Phase {
	p, v := unpackState(s.state.Load())
	if ck := s.active.Load(); p == Rest && ck != nil && ck.version != v {
		return WaitFlush
	}
	return p
}

// Version returns the current CPR version.
func (s *Store) Version() uint32 { _, v := unpackState(s.state.Load()); return v }

// NumShards reports the store's shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// Log exposes shard 0's HybridLog (diagnostics and experiments; the only
// log of a single-shard store). See ShardLog for the others.
func (s *Store) Log() *hlog.Log { return s.shards[0].log }

// ShardLog exposes shard i's HybridLog.
func (s *Store) ShardLog(i int) *hlog.Log { return s.shards[i].log }

// LogBytes reports the total live log volume ([Begin, Tail)) across shards.
func (s *Store) LogBytes() int64 {
	var n int64
	for _, sh := range s.shards {
		n += int64(sh.log.Tail() - sh.log.Begin())
	}
	return n
}

// Metrics returns the store's metrics registry (never nil after Open, though
// it may be the nop registry).
func (s *Store) Metrics() *obs.Registry { return s.cfg.Metrics }

// Tracer returns the store's CPR phase timeline: a view of its flight
// recorder, empty when the store has none.
func (s *Store) Tracer() *obs.Tracer { return s.cfg.Flight.Tracer() }

// Flight returns the store's flight recorder (nil when not configured).
func (s *Store) Flight() *obs.FlightRecorder { return s.cfg.Flight }

// RequestTracer returns the store's request tracer (nil when not configured).
func (s *Store) RequestTracer() *obs.RequestTracer { return s.cfg.ReqTrace }

// ShardOfKey reports which shard serves key — the same route its operations
// take. Surfaced so serving layers can annotate dispatch spans without
// re-deriving the hash split.
func (s *Store) ShardOfKey(key []byte) int { return s.shardOf(hashfn.Hash64(key)) }

// DumpFlight snapshots the flight recorder and writes it — the JSON
// obs.FlightDump, CRC-framed — as the artifact "flight-<reason>" in the
// checkpoint store, overwriting any earlier dump with the same reason. Call it
// from a panic handler or a crash point; read it with `fasterctl flight -dump`
// (or storage.ReadArtifactChecked). A nil recorder is a no-op.
func (s *Store) DumpFlight(reason string) error {
	if s.cfg.Flight == nil {
		return nil
	}
	buf, err := json.Marshal(s.cfg.Flight.Dump())
	if err != nil {
		return err
	}
	return storage.WriteArtifactChecked(s.cfg.Checkpoints, "flight-"+reason, buf)
}

// SessionLag is one live session's durability lag: how far its issued
// operations run ahead of its committed prefix t_i.
type SessionLag struct {
	ID string `json:"id"`
	// IssuedSerial is the session's latest issued operation serial;
	// CommittedSerial is its durable commit point t_i.
	IssuedSerial    uint64 `json:"issued_serial"`
	CommittedSerial uint64 `json:"committed_serial"`
	// LagOps = IssuedSerial - CommittedSerial.
	LagOps uint64 `json:"lag_ops"`
	// LagNanos is the wall-clock age of the uncommitted suffix: time since
	// the oldest issued-but-uncommitted state changed (0 when fully durable).
	LagNanos int64 `json:"lag_ns"`
}

// SessionLags reports the durability lag of every live session, sorted by
// session ID.
func (s *Store) SessionLags() []SessionLag {
	now := nowNanos()
	s.mu.Lock()
	out := make([]SessionLag, 0, len(s.sessions))
	for id, sess := range s.sessions {
		out = append(out, sess.lag(id, now))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// maxSessionLag scans live sessions for the largest lag (ops and ns) — the
// faster_session_lag_*_max gauges.
func (s *Store) maxSessionLag() (ops uint64, ns int64) {
	now := nowNanos()
	s.mu.Lock()
	for id, sess := range s.sessions {
		l := sess.lag(id, now)
		if l.LagOps > ops {
			ops = l.LagOps
		}
		if l.LagNanos > ns {
			ns = l.LagNanos
		}
	}
	s.mu.Unlock()
	return ops, ns
}

// noteCommitted records a completed commit's session points in the
// durability-lag metrics and advances each session's committed watermark
// (finishCommit calls it before the result becomes visible).
func (s *Store) noteCommitted(res CommitResult) {
	now := nowNanos()
	token := res.Token // one shared cell for every session's covering token
	s.mu.Lock()
	for id, pt := range res.Serials {
		sess, ok := s.sessions[id]
		if !ok {
			continue
		}
		s.metrics.lagOps.ObserveValue(sess.serial.Load() - pt)
		if d := sess.demarcAtNanos.Load(); d != 0 && now > d {
			s.metrics.lagNs.ObserveValue(uint64(now - d))
		}
		sess.committedSerial.Store(pt)
		sess.committedAtNanos.Store(now)
		sess.committedToken.Store(&token)
	}
	s.mu.Unlock()
}

// registerLagGauges exposes the worst-case live durability lag. Registered at
// store level for every shard count (the lag is a session property, not a
// shard property).
func (s *Store) registerLagGauges() {
	reg := s.cfg.Metrics
	reg.GaugeFunc("faster_session_lag_ops_max", func() int64 {
		ops, _ := s.maxSessionLag()
		return int64(ops)
	})
	reg.GaugeFunc("faster_session_lag_ns_max", func() int64 {
		_, ns := s.maxSessionLag()
		return ns
	})
}

// OnCommitArtifact registers fn as a commit attachment: at every commit, once
// every shard's capture is durable and before the commit record is written, fn is
// invoked with the commit's result and returns a name and a payload, which
// become a section of the record (Attachment reads it back). An empty name
// attaches nothing. An error from fn fails the commit with nothing on disk
// that recovery would take for it, so a commit that exists carries its
// attachments (the ingestion log's watermark depends on this). fn runs on the
// commit's finishing goroutine and must not block on session progress.
func (s *Store) OnCommitArtifact(fn func(CommitResult) (name string, payload []byte, err error)) {
	s.hookMu.Lock()
	s.artifactHooks = append(s.artifactHooks, fn)
	s.hookMu.Unlock()
}

// commitAttachments runs the registered attachment hooks for a commit whose
// every shard's capture is durable and collects what they return.
func (s *Store) commitAttachments(res CommitResult) (map[string][]byte, error) {
	s.hookMu.Lock()
	hooks := s.artifactHooks
	s.hookMu.Unlock()
	out := make(map[string][]byte, len(hooks))
	for _, fn := range hooks {
		name, payload, err := fn(res)
		if err != nil {
			return nil, fmt.Errorf("faster: commit %s attachment: %w", res.Token, err)
		}
		if name != "" {
			out[name] = payload
		}
	}
	return out, nil
}

// SessionCount reports the number of live sessions.
func (s *Store) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// waitForRest spins until the store is at rest, driving epoch progress so an
// in-flight commit can advance even when all sessions are idle.
func (s *Store) waitForRest() {
	for {
		if p, _ := unpackState(s.state.Load()); p == Rest {
			return
		}
		g := s.epochs.Acquire()
		g.Refresh()
		g.Release()
	}
}

// recVersion returns the 13-bit on-record version for store version v.
func recVersion(v uint32) uint16 { return uint16(v) & hlog.MaxVersion }
