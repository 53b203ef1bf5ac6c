// Package txdb implements the paper's custom in-memory transactional
// database (Sec. 4): a shared-everything store of fixed-size records using
// strict two-phase locking with the NO-WAIT deadlock-prevention policy, made
// durable by one of three pluggable engines the paper compares head-to-head:
//
//   - EngineCPR: concurrent prefix recovery (Algs. 1 and 2) — stable/live
//     record versions, an epoch-coordinated rest→prepare→in-progress→
//     wait-flush state machine, and asynchronous checkpoint capture.
//   - EngineCALC: the CALC baseline — identical two-version checkpointing
//     plus the atomic commit log appended by every transaction, which
//     defines CALC's virtual point of consistency. That append is the
//     serial bottleneck the paper measures (Fig. 10e); the checkpoint
//     machinery is shared with CPR for an apples-to-apples comparison,
//     matching the paper's own setup (Sec. 7.1: "Both CALC and CPR
//     implementations have two values ... for each record").
//   - EngineWAL: redo logging with group commit — single-value records, one
//     central log append per update transaction.
package txdb

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wal"
)

// EngineKind selects the durability engine.
type EngineKind uint8

// The three engines of Sec. 7.2.
const (
	EngineCPR EngineKind = iota
	EngineCALC
	EngineWAL
)

// String implements fmt.Stringer.
func (e EngineKind) String() string {
	switch e {
	case EngineCPR:
		return "CPR"
	case EngineCALC:
		return "CALC"
	case EngineWAL:
		return "WAL"
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// Phase is a state of the CPR commit state machine for the database (Fig. 4).
type Phase = core.Phase

// CPR commit phases (Sec. 4.1); wait-pending is FASTER's alone. WAL-mode
// databases stay in Rest forever.
const (
	Rest       = core.Rest
	Prepare    = core.Prepare
	InProgress = core.InProgress
	WaitFlush  = core.WaitFlush
)

// record is one database record: a lock word for strict 2PL, a CPR version,
// and live/stable values (stable is unused in WAL mode).
//
// lock protocol: 0 free, -1 exclusive, n>0 shared by n readers. NO-WAIT:
// acquisition failures abort the transaction immediately.
type record struct {
	lock    atomic.Int32
	version uint64 // guarded by lock
	live    []byte
	stable  []byte
	// lastWrite / stableWrite track which version last wrote the live /
	// stable value (guarded by lock); used by incremental checkpoints.
	lastWrite   uint64
	stableWrite uint64
}

func (r *record) tryLock(write bool) bool {
	if write {
		return r.lock.CompareAndSwap(0, -1)
	}
	for {
		l := r.lock.Load()
		if l < 0 {
			return false
		}
		if r.lock.CompareAndSwap(l, l+1) {
			return true
		}
	}
}

func (r *record) unlock(write bool) {
	if write {
		r.lock.Store(0)
		return
	}
	r.lock.Add(-1)
}

// Config parameterizes a DB.
type Config struct {
	// Records is the size of the key space [0, Records).
	Records int
	// ValueSize is the fixed per-record value size in bytes (default 8).
	ValueSize int
	// Engine selects the durability engine (default EngineCPR).
	Engine EngineKind
	// Checkpoints stores CPR/CALC checkpoint artifacts (default in-memory).
	Checkpoints storage.CheckpointStore
	// WALDevice backs the write-ahead log in EngineWAL mode (default
	// in-memory device).
	WALDevice storage.Device
	// Instrument enables sampled per-section timing for the breakdown
	// analysis experiments (Fig. 10e); it adds a small overhead.
	Instrument bool
	// Incremental captures only records written since the previous commit
	// (delta checkpoints, the Sec. 4.1 optimization). Applies to CPR and
	// CALC engines.
	Incremental bool
	// FullEvery forces a full capture every N-th commit when Incremental is
	// set, bounding recovery chains (default 8).
	FullEvery int
	// Metrics receives the database's instrumentation (and the epoch
	// manager's). Defaults to a fresh enabled registry; pass obs.NewNop() to
	// disable collection.
	Metrics *obs.Registry
	// Flight, when non-nil, receives commit-lifecycle flight events (shard -1:
	// the database is a single CPR domain). Nil disables recording, and the
	// phase timeline (DB.Tracer), which is computed from it, is then empty.
	Flight *obs.FlightRecorder
}

func (c *Config) fill() error {
	if c.Records <= 0 {
		return fmt.Errorf("txdb: Records must be positive")
	}
	if c.ValueSize == 0 {
		c.ValueSize = 8
	}
	if c.ValueSize < 0 {
		return fmt.Errorf("txdb: negative ValueSize")
	}
	if c.Checkpoints == nil {
		c.Checkpoints = storage.NewMemCheckpointStore()
	}
	if c.Engine == EngineWAL && c.WALDevice == nil {
		c.WALDevice = storage.NewMemDevice()
	}
	if c.FullEvery <= 0 {
		c.FullEvery = 8
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return nil
}

// dbMetrics holds the database's registry handles, resolved once at Open.
// Workers accumulate locally and flush deltas here on refresh (worker.go), so
// the registry is the single aggregation point for runners and introspection.
type dbMetrics struct {
	committed, conflicts, cprAborts     *obs.Counter
	execNs, tailNs, logWriteNs, abortNs *obs.Counter
	samples                             *obs.Counter
}

func newDBMetrics(reg *obs.Registry) dbMetrics {
	return dbMetrics{
		committed:  reg.Counter("txdb_txns_committed_total"),
		conflicts:  reg.Counter("txdb_txns_conflict_aborts_total"),
		cprAborts:  reg.Counter("txdb_txns_cpr_aborts_total"),
		execNs:     reg.Counter("txdb_exec_ns_total"),
		tailNs:     reg.Counter("txdb_tail_ns_total"),
		logWriteNs: reg.Counter("txdb_log_write_ns_total"),
		abortNs:    reg.Counter("txdb_abort_ns_total"),
		samples:    reg.Counter("txdb_instr_samples_total"),
	}
}

// DB is the in-memory transactional database. Transactions execute through
// per-client Workers (Alg. 1); Commit starts an asynchronous CPR/CALC
// checkpoint (Alg. 2) or forces a WAL group commit.
type DB struct {
	cfg     Config
	records []record
	values  []byte // backing storage for all live+stable values
	epochs  *epoch.Manager

	// machine is the database's CPR state machine (Alg. 2): its phase and
	// version, the workers, admission and the results of the newest commits.
	machine *core.Machine[*Worker, CommitResult]

	// CALC: the atomic commit log — a shared fetch-add counter plus a slot
	// store per committed transaction. The counter is the serial bottleneck.
	calcNext atomic.Uint64
	calcLog  []uint64

	// WAL engine.
	wal *wal.Log

	// chain names the captures the latest commit's record names (dbRecord),
	// which the next delta commit extends; written only by the running
	// commit's flush (the goroutine core.Machine.Flush starts) and by Open.
	chain []string

	metrics dbMetrics
}

// Open starts a database over cfg's Checkpoints (CPR, CALC) or WALDevice
// (WAL). A restart is recovery: for CPR and CALC, Open loads the most recent
// commit that verifies (Sec. 4.4: no UNDO processing needed — captured values
// are transactionally consistent), by FASTER's rule (storage.RecoverNewest):
// records newest first, falling back past one whose record or capture does not
// verify; a record of another shape, FASTER's records or an older layout are a
// hard error. Only a store with no record starts with all values zeroed at
// version 1, its tokens past every token an artifact there carries. For WAL,
// Open replays the log's whole transactions (none on an empty device), and
// the database logs after them.
func Open(cfg Config) (*DB, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	db := &DB{
		cfg:     cfg,
		records: make([]record, cfg.Records),
		epochs:  epoch.New(),
		metrics: newDBMetrics(cfg.Metrics),
	}
	db.machine = core.NewMachine(db.epochs, cfg.Flight, core.Hooks[*Worker, CommitResult]{
		Name:       func(w *Worker) string { return fmt.Sprintf("worker-%p", w) },
		Serial:     (*Worker).Seq,
		Point:      (*Worker).Seq, // t_T: transactions 1..seq are in the commit
		Demarcated: func(*commit) { db.machine.Flush(InProgress) },
		Flush:      db.flush,
	})
	db.epochs.Instrument(cfg.Metrics)
	db.epochs.InstrumentFlight(cfg.Flight)
	// One backing array halves allocator pressure and keeps values dense.
	per := cfg.ValueSize
	if cfg.Engine == EngineWAL {
		db.values = make([]byte, cfg.Records*per)
		for i := range db.records {
			db.records[i].live = db.values[i*per : (i+1)*per : (i+1)*per]
		}
	} else {
		db.values = make([]byte, 2*cfg.Records*per)
		for i := range db.records {
			db.records[i].live = db.values[2*i*per : (2*i+1)*per : (2*i+1)*per]
			db.records[i].stable = db.values[(2*i+1)*per : (2*i+2)*per : (2*i+2)*per]
		}
	}
	if cfg.Engine == EngineCALC {
		// A ring of one slot per record (the next power of two), up to 8 MiB.
		db.calcLog = make([]uint64, min(1<<bits.Len(uint(cfg.Records-1)), 1<<20))
	}
	var err error
	if cfg.Engine == EngineWAL {
		db.wal, err = wal.Open(cfg.WALDevice, func(rec wal.Record) {
			if rec.Key < uint64(cfg.Records) {
				copy(db.records[rec.Key].live, rec.Value)
			}
		})
	} else {
		_, err = storage.RecoverNewest(cfg.Checkpoints, &db.machine.Seq, cfg.Flight, db.recoverCommit)
	}
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("txdb: %w", err)
	}
	return db, nil
}

// Close releases background resources (the WAL flusher).
func (db *DB) Close() {
	if db.wal != nil {
		db.wal.Close()
	}
}

// Phase returns the database's current commit phase.
func (db *DB) Phase() Phase { return db.machine.Phase() }

// Version returns the database's current CPR version.
func (db *DB) Version() uint64 { return uint64(db.machine.Version()) }

// Engine returns the configured durability engine.
func (db *DB) Engine() EngineKind { return db.cfg.Engine }

// Metrics returns the database's metrics registry (never nil after Open).
func (db *DB) Metrics() *obs.Registry { return db.cfg.Metrics }

// Tracer returns the database's commit phase timeline: a view of its flight
// recorder, empty when the database has none.
func (db *DB) Tracer() *obs.Tracer { return db.cfg.Flight.Tracer() }

// Stats materializes the database-wide transaction counters from the
// registry. Workers flush their local tallies on refresh and close, so the
// result is exact once workers have closed (and at most one refresh interval
// stale while they run). Use Stats().Sub(before) to scope to one run.
func (db *DB) Stats() Stats {
	m := &db.metrics
	return Stats{
		Committed:     m.committed.Value(),
		Conflicts:     m.conflicts.Value(),
		CPRAborts:     m.cprAborts.Value(),
		ExecNanos:     int64(m.execNs.Value()),
		TailNanos:     int64(m.tailNs.Value()),
		LogWriteNanos: int64(m.logWriteNs.Value()),
		AbortNanos:    int64(m.abortNs.Value()),
		Samples:       m.samples.Value(),
	}
}

// ReadValue copies the committed live value of key into dst (diagnostics and
// tests; not transactional).
func (db *DB) ReadValue(key uint64, dst []byte) []byte {
	r := &db.records[key]
	for !r.tryLock(false) {
	}
	dst = append(dst[:0], r.live...)
	r.unlock(false)
	return dst
}
