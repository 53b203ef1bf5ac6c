package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Fault injection wraps any Device / CheckpointStore with a deterministic,
// seeded fault schedule so the crash-recovery and self-healing paths can be
// driven, reproducibly, through every failure mode the integrity layer
// claims to survive:
//
//   - transient I/O errors  — fail this operation; a retry succeeds
//   - permanent failure     — every operation fails until Heal()
//   - torn writes           — a prefix of the data reaches the medium, then
//     the operation errors (crash mid-write)
//   - bit-flip corruption   — reads return data with one bit flipped
//   - latency spikes        — an operation stalls for a configured duration
//   - named crash points    — a callback fires at a precise instant (before /
//     mid- / after a named artifact write, or at the Nth device write) so a
//     test can snapshot state Clone()-style exactly there
//
// Decisions are drawn from a splitmix64 stream keyed by (Seed, operation
// index, fault kind): the schedule of decisions is a pure function of the
// seed, independent of wall time. Under concurrency the assignment of
// decisions to operations follows scheduling order, so a seed reproduces the
// same fault pressure, not necessarily the same victim ops.

// ErrInjectedPermanent is the error every operation returns after
// Injector.FailPermanently (until Heal). It is not transient: retries stop
// immediately and the caller must abort cleanly.
var ErrInjectedPermanent = errors.New("storage: permanent device failure (injected)")

// errInjectedTransient is wrapped by all retryable injected faults.
var errInjectedTransient = fmt.Errorf("%w (injected)", ErrTransient)

// FaultConfig parameterizes an Injector. Rates are probabilities in [0,1]
// evaluated per operation; zero disables that fault class.
type FaultConfig struct {
	// Seed keys the deterministic decision stream.
	Seed uint64
	// ReadErrorRate / WriteErrorRate inject transient failures on reads /
	// writes (both device I/O and checkpoint-store artifact I/O).
	ReadErrorRate  float64
	WriteErrorRate float64
	// TornWriteRate makes a write persist only a prefix and then fail
	// (transient, so a retry rewrites the range whole).
	TornWriteRate float64
	// BitFlipRate corrupts one bit of the data returned by a read.
	BitFlipRate float64
	// LatencyRate stalls an operation for Latency.
	LatencyRate float64
	Latency     time.Duration
	// Metrics, when non-nil, counts the injected transient errors and torn
	// writes (fault_injected_{transient,torn}_total); Flight records every
	// class.
	Metrics *obs.Registry
	// Flight, when non-nil, receives fault-injected and crash-point flight
	// events (shard -1: the injector wraps a whole medium, not one domain).
	Flight *obs.FlightRecorder
}

// Flight fault-class codes carried in FlightFaultInjected events' Arg1
// (named by obs.FlightFaultName).
const (
	faultClassTransient = 1 + iota
	faultClassTorn
	faultClassBitFlip
	faultClassLatency
)

// Injector holds the fault schedule shared by the FaultDevice /
// FaultCheckpointStore wrappers around one simulated medium.
type Injector struct {
	cfg       FaultConfig
	ops       atomic.Uint64
	writeOps  atomic.Uint64
	permanent atomic.Bool

	mu          sync.Mutex
	crashPoints map[string]func()
	writeCrash  map[uint64]func()

	transient, torn *obs.Counter
}

// NewInjector returns an injector with the given schedule.
func NewInjector(cfg FaultConfig) *Injector {
	in := &Injector{
		cfg:         cfg,
		crashPoints: make(map[string]func()),
		writeCrash:  make(map[uint64]func()),
	}
	if cfg.Metrics != nil {
		in.transient = cfg.Metrics.Counter("fault_injected_transient_total")
		in.torn = cfg.Metrics.Counter("fault_injected_torn_total")
	}
	return in
}

// FailPermanently makes every subsequent operation fail with
// ErrInjectedPermanent until Heal.
func (in *Injector) FailPermanently() { in.permanent.Store(true) }

// Heal clears a permanent failure.
func (in *Injector) Heal() { in.permanent.Store(false) }

// Ops reports how many operations have consulted the schedule (diagnostics).
func (in *Injector) Ops() uint64 { return in.ops.Load() }

// Arm registers a one-shot crash-point callback. FaultCheckpointStore fires
//
//	"before:<artifact>"  before any byte of the artifact is persisted
//	"torn:<artifact>"    with exactly a prefix of the artifact persisted
//	"after:<artifact>"   with the artifact fully persisted
//
// at the named artifact's write. The callback runs on the writing goroutine;
// a test typically clones the checkpoint store and then the device inside it
// (in that order — see MemCheckpointStore.Clone) to capture the crash image,
// after which execution continues as if the write completed normally.
func (in *Injector) Arm(point string, fn func()) {
	in.mu.Lock()
	in.crashPoints[point] = fn
	in.mu.Unlock()
}

// ArmDeviceWrite registers a one-shot crash point at the Nth device write
// (1-based) seen by any FaultDevice sharing this injector: the write persists
// only a prefix, fn fires, then the remainder is written so the live process
// continues intact while fn's snapshot holds a torn page.
func (in *Injector) ArmDeviceWrite(n uint64, fn func()) {
	in.mu.Lock()
	in.writeCrash[n] = fn
	in.mu.Unlock()
}

// take removes and returns the callback for point, if armed.
func (in *Injector) take(point string) func() {
	in.mu.Lock()
	fn := in.crashPoints[point]
	if fn != nil {
		delete(in.crashPoints, point)
	}
	in.mu.Unlock()
	return fn
}

// fire invokes point's callback if armed. The flight event is emitted before
// the callback so a crash dump taken inside the callback records its own
// trigger.
func (in *Injector) fire(point string) {
	if fn := in.take(point); fn != nil {
		in.cfg.Flight.Emit(obs.FlightCrashPoint, -1, 0, point, "", 0, 0)
		fn()
	}
}

// emitFault records one injected fault in the flight recorder. name (an
// artifact, for checkpoint-store faults) becomes the event token.
func (in *Injector) emitFault(class uint64, name string) {
	in.cfg.Flight.Emit(obs.FlightFaultInjected, -1, 0, name, "", class, 0)
}

// takeWriteCrash removes and returns the callback armed for device write n.
func (in *Injector) takeWriteCrash(n uint64) func() {
	in.mu.Lock()
	fn := in.writeCrash[n]
	if fn != nil {
		delete(in.writeCrash, n)
	}
	in.mu.Unlock()
	return fn
}

// Distinct decision streams per fault kind, so e.g. the torn-write schedule
// is independent of the transient-error schedule at the same op index.
const (
	streamReadErr = 1 + iota
	streamWriteErr
	streamTorn
	streamBitFlip
	streamLatency
)

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// decide draws the deterministic verdict for fault stream at op index op.
func (in *Injector) decide(op, stream uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	h := splitmix64(in.cfg.Seed ^ splitmix64(op*0x9E3779B97F4A7C15+stream))
	return float64(h>>11)/(1<<53) < rate
}

// rollBit picks the deterministic bit position to flip in a buffer of n bytes.
func (in *Injector) rollBit(op uint64, n int) (byteIdx int, bit uint) {
	h := splitmix64(in.cfg.Seed ^ splitmix64(op*0xBF58476D1CE4E5B9+streamBitFlip))
	return int(h % uint64(n)), uint((h >> 32) % 8)
}

// next allocates the next operation index.
func (in *Injector) next() uint64 { return in.ops.Add(1) }

// maybeStall applies a latency spike for op if scheduled.
func (in *Injector) maybeStall(op uint64) {
	if in.decide(op, streamLatency, in.cfg.LatencyRate) && in.cfg.Latency > 0 {
		in.emitFault(faultClassLatency, "")
		time.Sleep(in.cfg.Latency)
	}
}

// FaultDevice wraps a Device with the injector's schedule.
type FaultDevice struct {
	inner Device
	inj   *Injector
}

// NewFaultDevice wraps inner.
func NewFaultDevice(inner Device, inj *Injector) *FaultDevice {
	return &FaultDevice{inner: inner, inj: inj}
}

// ReadAt implements Device: may stall, fail transiently, or flip one bit of
// the returned data.
func (d *FaultDevice) ReadAt(p []byte, off int64) (int, error) {
	in := d.inj
	if in.permanent.Load() {
		return 0, ErrInjectedPermanent
	}
	op := in.next()
	in.maybeStall(op)
	if in.decide(op, streamReadErr, in.cfg.ReadErrorRate) {
		in.transient.Inc()
		in.emitFault(faultClassTransient, "")
		return 0, fmt.Errorf("read at %d: %w", off, errInjectedTransient)
	}
	n, err := d.inner.ReadAt(p, off)
	if err == nil && n > 0 && in.decide(op, streamBitFlip, in.cfg.BitFlipRate) {
		idx, bit := in.rollBit(op, n)
		p[idx] ^= 1 << bit
		in.emitFault(faultClassBitFlip, "")
	}
	return n, err
}

// WriteAt implements Device: may stall, fail transiently, or tear — persist
// a prefix and then fail (retry rewrites the range whole). An armed
// ArmDeviceWrite crash point persists a prefix, fires, then completes.
func (d *FaultDevice) WriteAt(p []byte, off int64) (int, error) {
	in := d.inj
	if in.permanent.Load() {
		return 0, ErrInjectedPermanent
	}
	wop := in.writeOps.Add(1)
	if fn := in.takeWriteCrash(wop); fn != nil {
		cut := len(p) / 2
		if _, err := d.inner.WriteAt(p[:cut], off); err != nil {
			return 0, err
		}
		fn()
		n, err := d.inner.WriteAt(p[cut:], off+int64(cut))
		return cut + n, err
	}
	op := in.next()
	in.maybeStall(op)
	if in.decide(op, streamWriteErr, in.cfg.WriteErrorRate) {
		in.transient.Inc()
		in.emitFault(faultClassTransient, "")
		return 0, fmt.Errorf("write at %d: %w", off, errInjectedTransient)
	}
	if len(p) > 1 && in.decide(op, streamTorn, in.cfg.TornWriteRate) {
		cut := len(p) / 2
		n, _ := d.inner.WriteAt(p[:cut], off)
		in.torn.Inc()
		in.emitFault(faultClassTorn, "")
		return n, fmt.Errorf("torn write at %d (%d of %d bytes): %w", off, n, len(p), errInjectedTransient)
	}
	return d.inner.WriteAt(p, off)
}

// Sync implements Device.
func (d *FaultDevice) Sync() error {
	if d.inj.permanent.Load() {
		return ErrInjectedPermanent
	}
	return d.inner.Sync()
}

// Size implements Device.
func (d *FaultDevice) Size() int64 { return d.inner.Size() }

// Close implements Device.
func (d *FaultDevice) Close() error { return d.inner.Close() }

// FaultCheckpointStore wraps a CheckpointStore with the injector's schedule.
// Writes are buffered and the fault verdict applies at Close, so a "torn
// write" persists a strict prefix of the artifact and then errors —
// modelling a crash mid-write — and never reports silent success.
type FaultCheckpointStore struct {
	inner CheckpointStore
	inj   *Injector
}

// NewFaultCheckpointStore wraps inner.
func NewFaultCheckpointStore(inner CheckpointStore, inj *Injector) *FaultCheckpointStore {
	return &FaultCheckpointStore{inner: inner, inj: inj}
}

type faultWriter struct {
	buf    bytes.Buffer
	store  *FaultCheckpointStore
	name   string
	closed bool
}

func (w *faultWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

func (w *faultWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	in := w.store.inj
	data := w.buf.Bytes()

	in.fire("before:" + w.name)
	if in.permanent.Load() {
		return fmt.Errorf("artifact %q: %w", w.name, ErrInjectedPermanent)
	}
	op := in.next()
	in.maybeStall(op)
	if in.decide(op, streamWriteErr, in.cfg.WriteErrorRate) {
		in.transient.Inc()
		in.emitFault(faultClassTransient, w.name)
		return fmt.Errorf("artifact %q: %w", w.name, errInjectedTransient)
	}
	if tornFn := in.take("torn:" + w.name); tornFn != nil {
		// Crash point: persist a strict prefix, fire (snapshots taken in the
		// callback see the torn artifact), then complete the write so the
		// live process continues as if the write had succeeded.
		if err := w.writeInner(data[:len(data)/2]); err != nil {
			return err
		}
		tornFn()
		if err := w.writeInner(data); err != nil {
			return err
		}
		in.fire("after:" + w.name)
		return nil
	}
	if len(data) > 1 && in.decide(op, streamTorn, in.cfg.TornWriteRate) {
		in.torn.Inc()
		in.emitFault(faultClassTorn, w.name)
		if err := w.writeInner(data[:len(data)/2]); err != nil {
			return err
		}
		return fmt.Errorf("artifact %q: torn write: %w", w.name, errInjectedTransient)
	}
	if err := w.writeInner(data); err != nil {
		return err
	}
	in.fire("after:" + w.name)
	return nil
}

// CloseWithError drops the buffered write: nothing reaches the inner store.
func (*faultWriter) CloseWithError(error) error { return nil }

func (w *faultWriter) writeInner(data []byte) error {
	f, err := w.store.inner.Create(w.name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		abandon(f, err)
		return err
	}
	return f.Close()
}

// Create implements CheckpointStore.
func (s *FaultCheckpointStore) Create(name string) (io.WriteCloser, error) {
	if s.inj.permanent.Load() {
		return nil, fmt.Errorf("artifact %q: %w", name, ErrInjectedPermanent)
	}
	return &faultWriter{store: s, name: name}, nil
}

// Open implements CheckpointStore: may stall, fail transiently, or flip one
// bit of the returned artifact.
func (s *FaultCheckpointStore) Open(name string) (io.ReadCloser, error) {
	in := s.inj
	if in.permanent.Load() {
		return nil, fmt.Errorf("artifact %q: %w", name, ErrInjectedPermanent)
	}
	op := in.next()
	in.maybeStall(op)
	if in.decide(op, streamReadErr, in.cfg.ReadErrorRate) {
		in.transient.Inc()
		in.emitFault(faultClassTransient, name)
		return nil, fmt.Errorf("artifact %q: %w", name, errInjectedTransient)
	}
	r, err := s.inner.Open(name)
	if err != nil || !in.decide(op, streamBitFlip, in.cfg.BitFlipRate) {
		return r, err
	}
	data, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		return nil, err
	}
	if len(data) > 0 {
		idx, bit := in.rollBit(op, len(data))
		data[idx] ^= 1 << bit
		in.emitFault(faultClassBitFlip, name)
	}
	return newChunkReader(data), nil
}

// List implements CheckpointStore.
func (s *FaultCheckpointStore) List() ([]string, error) {
	if s.inj.permanent.Load() {
		return nil, ErrInjectedPermanent
	}
	return s.inner.List()
}

// Remove implements CheckpointStore.
func (s *FaultCheckpointStore) Remove(name string) error {
	if s.inj.permanent.Load() {
		return ErrInjectedPermanent
	}
	return s.inner.Remove(name)
}
