// Package cpr is a from-scratch Go reproduction of "Concurrent Prefix
// Recovery: Performing CPR on a Database" (Prasaad, Chandramouli, Kossmann —
// SIGMOD 2019).
//
// CPR is a group-commit durability model for multi-threaded stores: instead
// of a single global commit point, every client session i receives a
// session-local commit point t_i such that all of its operations up to t_i
// are durable and none after. Commits are implemented with asynchronous
// incremental checkpoints coordinated by an epoch-based state machine — no
// write-ahead log and no serial bottleneck on the hot path.
//
// The package exposes the two CPR-enabled systems the paper builds:
//
//   - Store: FASTER, a larger-than-memory concurrent hash key-value store
//     (latch-free index + HybridLog record store) with CPR commits, sessions
//     and recovery. See OpenStore, RecoverStore.
//   - DB: an in-memory transactional database (strict 2PL, NO-WAIT) with
//     pluggable durability engines — CPR, and the CALC and WAL baselines the
//     paper compares against. See OpenDB, RecoverDB.
//
// Quickstart:
//
//	store, _ := cpr.OpenStore(cpr.StoreConfig{})
//	sess := store.StartSession()
//	sess.Upsert([]byte("k"), []byte("v"))
//	token, _ := store.Commit(cpr.CommitOptions{WithIndex: true})
//	res := store.WaitForCommit(token) // res.Serials[sess.ID()] = CPR point
//
// The experiment harness regenerating every figure of the paper lives in
// cmd/cprbench; see DESIGN.md for the experiment index and EXPERIMENTS.md
// for paper-vs-measured results.
package cpr

import (
	"repro/internal/faster"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/txdb"
)

// ---- FASTER with CPR (Secs. 5-6) ----

// Store is a FASTER instance with CPR durability.
type Store = faster.Store

// Session is a client session with session-local operation serial numbers.
type Session = faster.Session

// StoreConfig parameterizes a Store.
type StoreConfig = faster.Config

// CommitOptions configures one CPR commit of a Store.
type CommitOptions = faster.CommitOptions

// CommitResult reports a completed commit, including each session's CPR
// point.
type CommitResult = faster.CommitResult

// Status is a session operation's result.
type Status = faster.Status

// Session operation statuses.
const (
	Ok       = faster.Ok
	NotFound = faster.NotFound
	Pending  = faster.Pending
	Error    = faster.Error
)

// Commit capture strategies (App. D).
const (
	FoldOver = faster.FoldOver
	Snapshot = faster.Snapshot
)

// Version-transfer strategies (App. C).
const (
	FineGrained   = faster.FineGrained
	CoarseGrained = faster.CoarseGrained
)

// StorePhase is the FASTER CPR state machine phase.
type StorePhase = faster.Phase

// StoreRest is the rest (normal processing) phase of a Store.
const StoreRest = faster.Rest

// RMWOps defines read-modify-write semantics (see AddUint64). Update receives
// the current value as a private copy in a session-owned buffer: it may
// overwrite that copy and return it, so an implementation has no need to
// allocate; Initial may return its input. Neither may retain its arguments.
type RMWOps = faster.RMWOps

// AddUint64 is the paper's running-sum RMW over 8-byte counters; it adds in
// place and allocates nothing.
type AddUint64 = faster.AddUint64

// OpenStore creates an empty Store.
func OpenStore(cfg StoreConfig) (*Store, error) { return faster.Open(cfg) }

// RecoverStore rebuilds a Store from its most recent CPR commit. The config
// must reference the same device contents and checkpoint store the failed
// instance used; sessions re-establish with Store.ContinueSession.
func RecoverStore(cfg StoreConfig) (*Store, error) { return faster.Recover(cfg) }

// RecoverStoreWithReport is RecoverStore plus a RecoveryReport describing
// which commit was recovered and which newer commits (if any) were skipped as
// unverifiable.
func RecoverStoreWithReport(cfg StoreConfig) (*Store, *RecoveryReport, error) {
	return faster.RecoverWithReport(cfg)
}

// RecoveryReport describes the outcome of a Store recovery: the commit
// recovered and any newer commits skipped because their artifacts failed
// verification.
type RecoveryReport = faster.RecoveryReport

// SkippedCommit is one unrecoverable commit noted in a RecoveryReport.
type SkippedCommit = faster.SkippedCommit

// ErrNoCheckpoint is wrapped by RecoverStore when the checkpoint store holds
// no commit at all. Fall back to OpenStore only on this error (errors.Is);
// any other recovery error indicates existing data that must not be shadowed
// by a fresh store.
var ErrNoCheckpoint = faster.ErrNoCheckpoint

// ---- In-memory transactional database (Sec. 4) ----

// DB is the in-memory transactional database with pluggable durability.
type DB = txdb.DB

// DBConfig parameterizes a DB.
type DBConfig = txdb.Config

// Worker executes transactions for one client under strict 2PL NO-WAIT.
type Worker = txdb.Worker

// Txn is a multi-key transaction.
type Txn = txdb.Txn

// Op is one read or write access.
type Op = txdb.Op

// Durability engines of Sec. 7.2.
const (
	EngineCPR  = txdb.EngineCPR
	EngineCALC = txdb.EngineCALC
	EngineWAL  = txdb.EngineWAL
)

// Transaction outcomes.
const (
	Committed       = txdb.Committed
	AbortedConflict = txdb.AbortedConflict
	AbortedCPR      = txdb.AbortedCPR
)

// OpenDB creates a zeroed database.
func OpenDB(cfg DBConfig) (*DB, error) { return txdb.Open(cfg) }

// RecoverDB loads a database from its most recent commit that verifies (or,
// for EngineWAL, replays the log's whole transactions).
func RecoverDB(cfg DBConfig) (*DB, error) { return txdb.Recover(cfg) }

// ---- Observability (internal/obs) ----

// MetricsRegistry names and snapshots a set of lock-free metrics. Every Store
// and DB carries one (StoreConfig.Metrics / DBConfig.Metrics); pass
// NopMetrics() to disable collection.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is a point-in-time capture of a MetricsRegistry; snapshots
// subtract (Sub) to scope counters to an interval.
type MetricsSnapshot = obs.Snapshot

// PhaseTracer is the CPR phase timeline of a Store or DB (Tracer()): a view
// computed from its FlightRecorder, empty without one.
type PhaseTracer = obs.Tracer

// PhaseTimeline is what a PhaseTracer exports: the state-machine events plus
// per-machine phase spans.
type PhaseTimeline = obs.Timeline

// NewMetricsRegistry returns an empty, enabled registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NopMetrics returns a registry whose metrics are no-op sinks.
func NopMetrics() *MetricsRegistry { return obs.NewNop() }

// FlightRecorder is the always-on black box and the one place a
// commit-lifecycle event is written: lock-free rings of binary events
// (StoreConfig.Flight; nil disables). One commit's causal timeline filters out
// by its token; Store.DumpFlight persists the rings as a CRC-framed crash-dump
// artifact.
type FlightRecorder = obs.FlightRecorder

// FlightEvent is one decoded flight-recorder event.
type FlightEvent = obs.FlightEvent

// NewFlightRecorder returns a recorder holding capacity events in its event
// ring (rounded up to a power of two, minimum 64) beside the lifecycle ring.
func NewFlightRecorder(capacity int) *FlightRecorder {
	return obs.NewFlightRecorder(capacity)
}

// SessionLag is one session's durability lag: how far its issued serial
// runs ahead of its committed CPR point t_i (Store.SessionLags).
type SessionLag = faster.SessionLag

// ---- Storage substrates ----

// Device is a random-access block device backing the HybridLog or WAL.
type Device = storage.Device

// NewMemDevice returns a RAM-backed Device (the default SSD stand-in).
func NewMemDevice() *storage.MemDevice { return storage.NewMemDevice() }

// OpenFileDevice returns a Device backed by a file.
func OpenFileDevice(path string) (*storage.FileDevice, error) {
	return storage.OpenFileDevice(path)
}

// CheckpointStore holds commit artifacts.
type CheckpointStore = storage.CheckpointStore

// NewMemCheckpointStore returns an in-memory CheckpointStore.
func NewMemCheckpointStore() *storage.MemCheckpointStore {
	return storage.NewMemCheckpointStore()
}

// NewDirCheckpointStore returns a CheckpointStore over a directory.
func NewDirCheckpointStore(dir string) (*storage.DirCheckpointStore, error) {
	return storage.NewDirCheckpointStore(dir)
}

// ---- Fault injection & artifact integrity (internal/storage) ----

// FaultConfig parameterizes deterministic, seeded storage fault injection:
// transient and permanent I/O errors, torn writes, bit flips and latency
// spikes.
type FaultConfig = storage.FaultConfig

// FaultInjector owns a fault schedule shared by the devices and checkpoint
// stores wrapped with it.
type FaultInjector = storage.Injector

// NewFaultInjector creates an injector for cfg.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return storage.NewInjector(cfg) }

// NewFaultDevice wraps a Device with fault injection.
func NewFaultDevice(inner Device, inj *FaultInjector) *storage.FaultDevice {
	return storage.NewFaultDevice(inner, inj)
}

// NewFaultCheckpointStore wraps a CheckpointStore with fault injection.
func NewFaultCheckpointStore(inner CheckpointStore, inj *FaultInjector) *storage.FaultCheckpointStore {
	return storage.NewFaultCheckpointStore(inner, inj)
}

// ErrCorruptArtifact is wrapped by artifact reads whose checksum envelope
// fails verification (errors.Is).
var ErrCorruptArtifact = storage.ErrCorruptArtifact
