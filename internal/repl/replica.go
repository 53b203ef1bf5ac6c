package repl

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/kvserver"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Config parameterizes a Replica.
type Config struct {
	// Upstream is the primary's replication listen address.
	Upstream string
	// StoreConfig configures the local store. Device and
	// Checkpoints select where shipped state lands; Replica is forced on.
	StoreConfig faster.Config
	// ReconnectEvery is the retry interval after a lost primary connection.
	// Defaults to 250ms.
	ReconnectEvery time.Duration
	// Logger receives connection errors; defaults to the standard logger.
	Logger *log.Logger
}

// Replica maintains a read-only store tracking a primary. Shipped log bytes
// and artifacts are staged invisibly — they touch only the device and the
// checkpoint store, never the visible index — and each opCommit installs one
// committed CPR prefix atomically under the install lock. Reads therefore
// always observe a state the primary committed.
//
// Replica implements kvserver.ReplicaBackend, so a kvserver.NewReplicaServer
// can serve its reads directly.
type Replica struct {
	cfg   Config
	store *faster.Store

	// mu orders installs (and promotion) against reads: ApplyCommitted
	// mutates the index and log offsets, so readers hold RLock.
	mu sync.RWMutex

	// have is the staged-coverage watermark: every device byte below it has
	// been received. Guarded by mu (written only by the applier goroutine;
	// read by ReplStats).
	have uint64

	applied        atomic.Uint32 // CPR version of the installed commit
	primaryVersion atomic.Uint32 // primary's latest committed version (opTail)
	primaryDurable atomic.Uint64
	upstreamClient atomic.Pointer[string] // primary's kvserver address, from opWelcome

	receivedBytes *obs.Counter

	startOnce   sync.Once
	promoteOnce sync.Once
	stop        chan struct{}
	done        chan struct{}
	promoted    atomic.Bool
}

// NewReplica opens (or recovers) the local replica store and starts pulling
// from the primary. The store is immediately readable: a fresh replica is
// empty until the first commit installs, a restarted one serves its last
// installed prefix while it catches up.
func NewReplica(cfg Config) (*Replica, error) {
	if cfg.Upstream == "" {
		return nil, fmt.Errorf("repl: Upstream required")
	}
	if cfg.ReconnectEvery <= 0 {
		cfg.ReconnectEvery = 250 * time.Millisecond
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(os.Stderr, "repl: ", log.LstdFlags)
	}
	sc := cfg.StoreConfig
	sc.Replica = true
	r := &Replica{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	// Resolve the device once: Open after a Recover that found no commit must
	// see the same one.
	if sc.Device == nil {
		sc.Device = storage.NewMemDevice()
	}
	store, err := faster.Recover(sc)
	if errors.Is(err, faster.ErrNoCheckpoint) {
		store, err = faster.Open(sc)
	}
	if err != nil {
		return nil, err
	}
	r.store = store
	r.applied.Store(store.LatestCommitVersion())
	r.have = max(store.Log().Durable(), hlog.FirstAddress)
	empty := ""
	r.upstreamClient.Store(&empty)
	reg := store.Metrics()
	r.receivedBytes = reg.Counter("repl_received_log_bytes_total")
	reg.GaugeFunc("repl_versions_behind", func() int64 { return int64(r.versionsBehind()) })
	reg.SetHelp("repl_versions_behind",
		"Committed CPR versions the replica trails its primary by; sustained growth fires the health engine's repl-lag-growing detector.")
	reg.GaugeFunc("repl_bytes_behind", func() int64 { return int64(r.bytesBehind()) })
	reg.SetHelp("repl_bytes_behind",
		"HybridLog bytes the replica trails the primary's durable frontier by.")
	go r.run()
	return r, nil
}

// Store exposes the underlying replica store.
func (r *Replica) Store() *faster.Store { return r.store }

// Read returns key's value in the installed committed prefix.
func (r *Replica) Read(key []byte) ([]byte, bool, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.store.ReadCommitted(key)
}

// RecoveredPoint returns session id's CPR point in the installed prefix.
func (r *Replica) RecoveredPoint(id string) uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.store.RecoveredPoint(id)
}

// Upstream returns the primary's client-facing address (for redirects).
func (r *Replica) Upstream() string { return *r.upstreamClient.Load() }

// ReplStats implements kvserver.ReplicaBackend.
func (r *Replica) ReplStats() *kvserver.ReplStats {
	role := "replica"
	if r.promoted.Load() {
		role = "primary"
	}
	return &kvserver.ReplStats{
		Role:           role,
		Upstream:       r.cfg.Upstream,
		AppliedVersion: r.applied.Load(),
		VersionsBehind: r.versionsBehind(),
		BytesBehind:    r.bytesBehind(),
	}
}

func (r *Replica) versionsBehind() uint32 {
	p, a := r.primaryVersion.Load(), r.applied.Load()
	if p <= a {
		return 0
	}
	return p - a
}

func (r *Replica) bytesBehind() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.primaryDurable.Load() - min(r.have, r.primaryDurable.Load())
}

// Promote stops replication and converts the store into a primary: the
// paper's recovery treatment applied at the last installed commit. Records
// shipped ahead of an uninstalled commit are invalidated durably, so the
// promoted store's state is exactly the newest prefix the primary committed
// and fully shipped. Returns the store, now writable; serve it with
// kvserver.Server.Promote.
func (r *Replica) Promote() (*faster.Store, error) {
	var err error
	r.promoteOnce.Do(func() {
		close(r.stop)
		<-r.done
		r.mu.Lock()
		defer r.mu.Unlock()
		err = r.store.Promote()
		if err == nil {
			r.promoted.Store(true)
			r.store.Flight().Emit(obs.FlightReplPromote, -1, uint64(r.applied.Load()), "", "", 0, 0)
		}
	})
	if !r.promoted.Load() && err == nil {
		err = fmt.Errorf("repl: promotion previously failed")
	}
	return r.store, err
}

// Close stops replication without promoting; the store stays open.
func (r *Replica) Close() {
	r.promoteOnce.Do(func() {
		close(r.stop)
		<-r.done
	})
}

// run is the reconnect loop.
func (r *Replica) run() {
	defer close(r.done)
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		if err := r.pull(); err != nil {
			select {
			case <-r.stop:
				return
			default:
				r.cfg.Logger.Printf("primary %s: %v", r.cfg.Upstream, err)
			}
		}
		select {
		case <-r.stop:
			return
		case <-time.After(r.cfg.ReconnectEvery):
		}
	}
}

// pull runs one primary connection: hello/welcome, then apply frames until
// the connection drops or the replica stops.
func (r *Replica) pull() error {
	conn, err := net.DialTimeout("tcp", r.cfg.Upstream, 10*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	// Unblock the frame reader when Promote/Close fires.
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		select {
		case <-r.stop:
			conn.Close()
		case <-stopWatch:
		}
	}()

	hello := wire.AppendU32(wire.Open(nil, opHello), r.applied.Load())
	r.mu.RLock()
	hello = wire.AppendU64(hello, r.have)
	r.mu.RUnlock()
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	if _, err := conn.Write(wire.Seal(hello)); err != nil {
		return err
	}
	// Every frame of the connection is read into rbuf; a payload is valid
	// until the next read, and what outlives it is copied out by its handler.
	var rbuf []byte
	op, payload, err := wire.Read(conn, &rbuf)
	if err != nil {
		return err
	}
	if op == opError {
		msg, _, _ := wire.TakeString(payload)
		return fmt.Errorf("primary rejected: %s", msg)
	}
	if op != opWelcome {
		return fmt.Errorf("expected welcome, got opcode %d", op)
	}
	if err := r.applyWelcome(payload); err != nil {
		return err
	}
	conn.SetDeadline(time.Time{}) //nolint:errcheck

	for {
		if err := r.applyNext(conn, &rbuf); err != nil {
			select {
			case <-r.stop:
				return nil
			default:
			}
			return err
		}
	}
}

// readFrame reads the stream's next frame into *rbuf. The primary heartbeats
// every ~100ms; a minute of silence means the connection is dead even if TCP
// has not noticed.
func readFrame(conn net.Conn, rbuf *[]byte) (byte, []byte, error) {
	conn.SetReadDeadline(time.Now().Add(time.Minute)) //nolint:errcheck
	return wire.Read(conn, rbuf)
}

// applyNext reads the stream's next frame into *rbuf and applies it.
func (r *Replica) applyNext(conn net.Conn, rbuf *[]byte) error {
	op, payload, err := readFrame(conn, rbuf)
	if err != nil {
		return err
	}
	switch op {
	case opChunk:
		return r.applyChunk(payload)
	case opArtifact:
		return r.applyArtifact(conn, rbuf, payload)
	case opCommit:
		return r.applyCommit(payload)
	case opTail:
		return r.applyTailInfo(payload)
	case opError:
		msg, _, _ := wire.TakeString(payload)
		return fmt.Errorf("primary error: %s", msg)
	}
	return fmt.Errorf("unknown opcode %d", op)
}

// applyWelcome records the primary's client address and rewinds the watermark
// to the primary's chosen stream start (a primary that itself recovered
// re-ships the range its recovery rewrote).
func (r *Replica) applyWelcome(payload []byte) error {
	addrB, rest, err := wire.TakeString(payload)
	if err != nil {
		return err
	}
	addr := string(addrB)
	r.upstreamClient.Store(&addr)
	latest, rest, err := wire.TakeU32(rest)
	if err != nil {
		return err
	}
	r.primaryVersion.Store(latest)
	var begin, start, durable uint64
	if begin, rest, err = wire.TakeU64(rest); err != nil {
		return err
	}
	if start, rest, err = wire.TakeU64(rest); err != nil {
		return err
	}
	if durable, _, err = wire.TakeU64(rest); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.have = min(r.have, start)
	r.primaryDurable.Store(durable)
	if lg := r.store.Log(); begin > lg.Begin() {
		lg.ShiftBegin(begin)
	}
	return nil
}

// applyChunk writes shipped log bytes to the device, through the log:
// it keeps checksums of pages it has verified, and a page written here is no
// longer the page it checked. Below the visible tail this overlaps state the
// store may read concurrently — that only happens on the resync path after a
// primary recovery, where the re-shipped range differs — so those writes take
// the install lock.
func (r *Replica) applyChunk(payload []byte) error {
	off, data, err := wire.TakeU64(payload)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	lg := r.store.Log()
	locked := off < lg.Tail()
	if locked {
		r.mu.Lock()
	}
	werr := lg.RestoreRange(off, data)
	if locked {
		r.mu.Unlock()
	}
	if werr != nil {
		return fmt.Errorf("stage @%d: %w", off, werr)
	}
	r.receivedBytes.Add(uint64(len(data)))
	r.mu.Lock()
	r.have = max(r.have, off+uint64(len(data)))
	r.mu.Unlock()
	return nil
}

// errRestarted refuses a retry of an artifact write: the frames the failed
// attempt consumed are gone from the stream.
var errRestarted = errors.New("the write failed after part of the artifact was received")

// applyArtifact writes the artifact whose first frame carried payload through
// storage.WriteArtifactStream, reading its next frames off conn as it goes,
// and publishes it at the empty frame that ends it. Any other frame in the
// middle, the end of the connection, or a failed write publishes nothing: the
// name keeps what it held, and the connection fails.
func (r *Replica) applyArtifact(conn net.Conn, rbuf *[]byte, payload []byte) error {
	nameB, data, err := wire.TakeString(payload)
	if err != nil {
		return err
	}
	name := string(nameB)
	began := false
	_, err = storage.WriteArtifactStream(r.store.Checkpoints(), name, func(w io.Writer) error {
		if began {
			return errRestarted
		}
		began = true
		for len(data) > 0 {
			if _, err := w.Write(data); err != nil {
				return err
			}
			op, next, err := readFrame(conn, rbuf)
			if err != nil {
				return err
			}
			nextName, rest, err := wire.TakeString(next)
			if op != opArtifact || err != nil || string(nextName) != name {
				return fmt.Errorf("interrupted by a frame of opcode %d", op)
			}
			data = rest
		}
		return nil
	}, nil, 0)
	if err != nil {
		return fmt.Errorf("artifact %s: %w", name, err)
	}
	return nil
}

// applyCommit installs a fully-shipped commit, making its prefix visible.
func (r *Replica) applyCommit(payload []byte) error {
	tokenB, rest, err := wire.TakeString(payload)
	if err != nil {
		return err
	}
	token := string(tokenB)
	version, rest, err := wire.TakeU32(rest)
	if err != nil {
		return err
	}
	end, _, err := wire.TakeU64(rest)
	if err != nil {
		return err
	}
	r.mu.RLock()
	have := r.have
	r.mu.RUnlock()
	if have < end {
		return fmt.Errorf("commit %s needs bytes to %d, staged %d", token, end, have)
	}
	if version <= r.applied.Load() {
		return nil // already installed (reconnect replay)
	}
	r.mu.Lock()
	err = r.store.ApplyCommitted(token)
	r.mu.Unlock()
	if err != nil {
		return fmt.Errorf("install %s: %w", token, err)
	}
	r.applied.Store(version)
	if pv := r.primaryVersion.Load(); version > pv {
		r.primaryVersion.Store(version)
	}
	r.store.Flight().Emit(obs.FlightReplInstall, -1, uint64(version), token, "", 0, 0)
	return nil
}

// applyTailInfo updates lag accounting from a heartbeat.
func (r *Replica) applyTailInfo(payload []byte) error {
	latest, rest, err := wire.TakeU32(payload)
	if err != nil {
		return err
	}
	if latest > r.primaryVersion.Load() {
		r.primaryVersion.Store(latest)
	}
	d, _, err := wire.TakeU64(rest)
	if err != nil {
		return err
	}
	r.primaryDurable.Store(d)
	return nil
}
