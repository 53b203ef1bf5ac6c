package faster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/hlog"
	"repro/internal/obs"
	"repro/internal/storage"
)

// nowNanos is the wall clock used by the durability-lag bookkeeping.
func nowNanos() int64 { return time.Now().UnixNano() }

// Phase is a state of the CPR commit state machine (Fig. 9a).
type Phase = core.Phase

// The five phases of a FASTER CPR commit.
const (
	Rest        = core.Rest
	Prepare     = core.Prepare
	InProgress  = core.InProgress
	WaitPending = core.WaitPending
	WaitFlush   = core.WaitFlush
)

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
	// IndexBuckets is the number of main hash buckets (power of two). The
	// paper's default is #keys/2 with 7 entries per bucket.
	IndexBuckets int
	// PageBits and MemPages configure the HybridLog.
	PageBits uint
	MemPages int
	// Device backs the HybridLog. Defaults to an in-memory device.
	Device storage.Device
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
	// obs.NewNop() to disable collection.
	Metrics *obs.Registry
	// Flight, when non-nil, records the causal commit-lifecycle event stream
	// (epoch bumps, phase transitions, artifact writes, log flushes, ...).
	// Nil disables the flight recorder at zero hot-path cost; the phase
	// timeline (Store.Tracer) is computed from it and is then empty.
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
	// Deprecated: ignored. Open has one recovery mode, the full replay; this
	// field, Store.WaitRestored, Store.RestoreStatus and RestoreStatus stay
	// only until the benchmark module stops naming them.
	InstantRestore bool
	// Deprecated: ignored; a store is one index and one log. It stays, with
	// DeviceFactory, Store.ShardLog and Store.ResyncFrom, only until the
	// benchmark module stops naming it.
	Shards int
	// Deprecated: the store opens DeviceFactory(0) when Device is nil.
	DeviceFactory func(shard int) (storage.Device, error)
}

// RestoreStatus is what Store.RestoreStatus returned for an instant restore.
//
// Deprecated: nothing fills it; Store.RestoreStatus returns nil.
type RestoreStatus struct {
	Shards []struct{ OnDemandWarms, BlockedOps, ReplayedRecords uint64 }
}

// RestoreStatus returns nil: no store is instant-restored.
//
// Deprecated: recovery replays the whole suffix before Open returns.
func (s *Store) RestoreStatus() *RestoreStatus { return nil }

// WaitRestored returns nil: a recovered store is warm when Open returns.
//
// Deprecated: there is nothing to wait for.
func (s *Store) WaitRestored() error { return nil }

func (c *Config) fill() error {
	if c.Device == nil && c.DeviceFactory != nil {
		d, err := c.DeviceFactory(0)
		if err != nil {
			return fmt.Errorf("faster: device: %w", err)
		}
		c.Device = d
	}
	if c.Device == nil {
		c.Device = storage.NewMemDevice()
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
// Open so operations never touch the registry.
type storeMetrics struct {
	ops         [4]*obs.Counter // issued operations, by opKind
	pendings    *obs.Counter    // operations that went pending
	ioReads     *obs.Counter    // cold-record fetches issued
	commits     *obs.Counter
	commitBytes *obs.Counter
	commitNs    *obs.Histogram
	lagOps      *obs.Histogram
	lagNs       *obs.Histogram
}

func newStoreMetrics(reg *obs.Registry) storeMetrics {
	return storeMetrics{
		ops: [...]*obs.Counter{opRead: reg.Counter("faster_reads_total"), opUpsert: reg.Counter("faster_upserts_total"),
			opRMW: reg.Counter("faster_rmws_total"), opDelete: reg.Counter("faster_deletes_total")},
		pendings:    reg.Counter("faster_pending_ops_total"),
		ioReads:     reg.Counter("faster_io_reads_total"),
		commits:     reg.Counter("faster_commits_total"),
		commitBytes: reg.Counter("faster_commit_bytes_total"),
		commitNs:    reg.Histogram("faster_commit_ns"),
		// Durability lag, observed per session at every completed commit:
		// how far the session's issued operations ran ahead of its committed
		// point t_i, in operations and in wall time since its commit point was
		// demarcated.
		lagOps: reg.Histogram("faster_session_lag_ops"),
		lagNs:  reg.Histogram("faster_session_lag_ns"),
	}
}

// Store is a FASTER instance with CPR durability: one latch-free hash index
// and one HybridLog. All operations happen through Sessions (Sec. 5.2);
// Commit triggers an asynchronous CPR checkpoint; Open rebuilds a store
// from its latest commit. One epoch framework and one five-phase state machine
// drive the protocol.
type Store struct {
	cfg   Config
	log   *hlog.Log
	index *index

	// epochs is the store's epoch table: one entry per session, bumped by the
	// state machine and by the log.
	epochs *epoch.Manager
	// machine is the store's CPR state machine: its phase and version, the
	// sessions, admission and the results of the newest commits.
	machine *core.Machine[*Session, CommitResult]
	// pendingV counts the running commit's pending version-v operations; the
	// commit leaves wait-pending when it reaches zero.
	pendingV atomic.Int64
	// kind and withIndex are the running commit's, set at its admission.
	kind      CommitKind
	withIndex bool
	// futureFrom[v&1] is commit v's log_start: the tail before the commit
	// published prepare (see isFuture).
	futureFrom [2]atomic.Uint64
	// settled is the newest version v whose return to rest every thread has
	// seen (the trigger of that epoch bump raises it): an op of version v or
	// older updates a record older than itself in place, a newer one copies it
	// (see update).
	settled atomic.Uint32

	// mu guards the recovered serials and the latest commit.
	mu               sync.Mutex
	recoveredSerials map[string]uint64
	latestToken      string // newest commit completed, recovered or installed here ("" if none)
	latestVer        uint32 // and its version

	// lastIndex/lastLis/lastLie identify the most recent fuzzy index
	// checkpoint (its blob's name), carried into a log-only commit's record
	// (Sec. 6.3). Written only by the one running commit, recovery and a
	// replica's install.
	lastIndex        string
	lastLis, lastLie uint64

	// recoveredScanStart is the address from which this store's own recovery
	// (or promotion) rewrote log state on the device — see RewrittenFrom. Zero
	// when the store was opened fresh. Written single-threaded at
	// recovery/promotion time.
	recoveredScanStart uint64

	// replicaDead tracks records shipped ahead of their commit (replica mode
	// only; see markReplicaDead). The replication applier serializes every
	// access externally.
	replicaDead map[uint64]bool

	// hookMu guards commitHooks (see OnCommit; fired after every completed
	// commit, used by the replication shipper) and artifactHooks (see
	// OnCommitArtifact; produce sections of each commit's record).
	hookMu        sync.Mutex
	commitHooks   []func(CommitResult)
	artifactHooks []func(CommitResult) (string, []byte, error)

	metrics storeMetrics

	// report describes how the store was recovered (nil when opened empty).
	report *RecoveryReport
}

// RecoveryReport returns what Open recovered: the commit and any newer
// commits skipped as unverifiable. It is nil only when Open found no commit
// and started the store empty.
func (s *Store) RecoveryReport() *RecoveryReport { return s.report }

func newStore(cfg Config) *Store {
	s := &Store{
		cfg:              cfg,
		epochs:           epoch.New(),
		recoveredSerials: make(map[string]uint64),
		metrics:          newStoreMetrics(cfg.Metrics),
	}
	s.epochs.Instrument(cfg.Metrics)
	s.epochs.InstrumentFlight(cfg.Flight)
	s.machine = core.NewMachine(s.epochs, cfg.Flight, core.Hooks[*Session, CommitResult]{
		Name:       (*Session).ID,
		Serial:     (*Session).Serial,
		Prepare:    (*Session).enterPrepare,
		Point:      (*Session).point,
		Demarcated: s.demarcated,
		Flush:      s.flush,
	})
	return s
}

// openData creates the store's empty log, registered with its epoch manager,
// and its empty index.
func (s *Store) openData() error {
	l, err := hlog.New(hlog.Config{
		PageBits: s.cfg.PageBits,
		MemPages: s.cfg.MemPages,
		Device:   s.cfg.Device,
		Epochs:   s.epochs,
		Metrics:  s.cfg.Metrics,
		Flight:   s.cfg.Flight,
	})
	if err != nil {
		return err
	}
	if s.index, err = newIndex(s.cfg.IndexBuckets); err != nil {
		l.Close()
		return err
	}
	s.log = l
	return nil
}

// registerStoreGauges exposes the state machine and the log's I/O queue.
func (s *Store) registerStoreGauges() {
	reg := s.cfg.Metrics
	reg.GaugeFunc("faster_version", func() int64 { return int64(s.Version()) })
	reg.GaugeFunc("faster_phase", func() int64 { return int64(s.Phase()) })
	reg.GaugeFunc("storage_io_queue_depth", func() int64 { return s.log.IOPool().QueueDepth() })
}

// Close shuts down background I/O. Outstanding sessions become invalid.
func (s *Store) Close() { s.log.Close() }

// isFuture reports whether a record of on-record version recVer at addr belongs
// to v+1 relative to commit v. The 13-bit version alone says so of a record
// written 8192·k commits earlier too; but a v+1 record is written only after
// commit v began, so it lies at or above the commit's log_start.
func (s *Store) isFuture(recVer uint16, addr uint64, v uint32) bool {
	return recVer == recVersion(v+1) && addr >= s.futureFrom[v&1].Load()
}

// Phase returns the CPR phase. While a commit is writing its record (the
// machine back at rest in v+1, the record not yet durable) it reports
// wait-flush, so polling Phase() == Rest observes completed commits only.
func (s *Store) Phase() Phase { return s.machine.Phase() }

// Version returns the current CPR version.
func (s *Store) Version() uint32 { return s.machine.Version() }

// Log exposes the store's HybridLog: its offsets for STATS, its durable bytes
// for the replication shipper, diagnostics and experiments.
func (s *Store) Log() *hlog.Log { return s.log }

// ShardLog returns the store's one log, for every i.
//
// Deprecated: use Log; it stays only until the benchmark module stops naming
// it.
func (s *Store) ShardLog(int) *hlog.Log { return s.log }

// LogBytes reports the live log volume ([Begin, Tail)).
func (s *Store) LogBytes() int64 { return int64(s.log.Tail() - s.log.Begin()) }

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
	var out []SessionLag
	s.machine.Each(func(sess *Session) { out = append(out, sess.lag(now)) })
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// maxSessionLag scans live sessions for the largest lag (ops and ns) — the
// faster_session_lag_*_max gauges.
func (s *Store) maxSessionLag() (ops uint64, ns int64) {
	now := nowNanos()
	s.machine.Each(func(sess *Session) {
		l := sess.lag(now)
		ops, ns = max(ops, l.LagOps), max(ns, l.LagNanos)
	})
	return ops, ns
}

// noteCommitted records a completed commit's points of the sessions still
// registered in the durability-lag metrics and advances each one's committed
// watermark (flush calls it before the result becomes visible).
func (s *Store) noteCommitted(points map[*Session]uint64, token string) {
	now := nowNanos()
	s.machine.Each(func(sess *Session) {
		pt, ok := points[sess]
		if !ok {
			return
		}
		s.metrics.lagOps.ObserveValue(sess.serial.Load() - pt)
		if d := sess.demarcAtNanos.Load(); d != 0 && now > d {
			s.metrics.lagNs.ObserveValue(uint64(now - d))
		}
		sess.committedSerial.Store(pt)
		sess.committedAtNanos.Store(now)
		sess.committedToken.Store(&token) // one shared cell for every session
	})
}

// registerLagGauges exposes the worst-case live durability lag.
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
// the capture is durable and before the commit record is written, fn is
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
// capture is durable and collects what they return.
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
func (s *Store) SessionCount() int { return s.machine.Count() }

// recVersion returns the 13-bit on-record version for store version v.
func recVersion(v uint32) uint16 { return uint16(v) & hlog.MaxVersion }
