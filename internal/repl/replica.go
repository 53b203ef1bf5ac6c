package repl

import (
	"errors"
	"fmt"
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
	// StoreConfig configures the local store. Device/DeviceFactory and
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

	// have[i] is shard i's staged-coverage watermark: every device byte
	// below it has been received. Guarded by mu (written only by the
	// applier goroutine; read by ReplStats).
	have []uint64

	applied        atomic.Uint32 // CPR version of the installed commit
	primaryVersion atomic.Uint32 // primary's latest committed version (opTail)
	primaryDurable []atomic.Uint64
	upstreamClient atomic.Pointer[string] // primary's kvserver address, from opWelcome

	receivedBytes *obs.Counter
	installs      *obs.Counter

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
	if sc.Device != nil && sc.Shards > 1 {
		return nil, fmt.Errorf("repl: Shards > 1 needs DeviceFactory, not Device")
	}
	r := &Replica{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	// Resolve the per-shard devices once: Recover may open a shard per
	// candidate commit, and Open after it, and all must see one device.
	if sc.Device == nil {
		devices := make([]storage.Device, max(sc.Shards, 1))
		for i := range devices {
			if sc.DeviceFactory == nil {
				devices[i] = storage.NewMemDevice()
				continue
			}
			dev, err := sc.DeviceFactory(i)
			if err != nil {
				return nil, err
			}
			devices[i] = dev
		}
		sc.DeviceFactory = func(i int) (storage.Device, error) { return devices[i], nil }
	}
	store, err := faster.Recover(sc)
	if errors.Is(err, faster.ErrNoCheckpoint) {
		store, err = faster.Open(sc)
	}
	if err != nil {
		return nil, err
	}
	r.store = store
	r.applied.Store(installedVersion(store))
	r.have = make([]uint64, store.NumShards())
	r.primaryDurable = make([]atomic.Uint64, store.NumShards())
	for i := range r.have {
		d := store.ShardLog(i).Durable()
		if d < hlog.FirstAddress {
			d = hlog.FirstAddress
		}
		r.have[i] = d
	}
	empty := ""
	r.upstreamClient.Store(&empty)
	reg := store.Metrics()
	r.receivedBytes = reg.Counter("repl_received_log_bytes_total")
	r.installs = reg.Counter("repl_installs_total")
	reg.GaugeFunc("repl_applied_version", func() int64 { return int64(r.applied.Load()) })
	reg.GaugeFunc("repl_versions_behind", func() int64 { return int64(r.versionsBehind()) })
	reg.SetHelp("repl_versions_behind",
		"Committed CPR versions the replica trails its primary by; sustained growth fires the health engine's repl-lag-growing detector.")
	reg.GaugeFunc("repl_bytes_behind", func() int64 { return int64(r.bytesBehind()) })
	reg.SetHelp("repl_bytes_behind",
		"HybridLog bytes the replica trails the primary's durable frontier by.")
	go r.run()
	return r, nil
}

// installedVersion is the version of the last installed commit: the store's
// current version minus one (a store at Rest in version v+1 has v committed),
// or 0 for a fresh store.
func installedVersion(s *faster.Store) uint32 {
	v := s.Version()
	if v <= 1 {
		return 0
	}
	return v - 1
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
	var total uint64
	for i := range r.have {
		if d := r.primaryDurable[i].Load(); d > r.have[i] {
			total += d - r.have[i]
		}
	}
	return total
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

	n := r.store.NumShards()
	hello := wire.AppendU32(wire.Open(nil, opHello), r.applied.Load())
	hello = wire.AppendU32(hello, uint32(n))
	r.mu.RLock()
	for i := 0; i < n; i++ {
		hello = wire.AppendU64(hello, r.have[i])
	}
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

	staging := make(map[string]*artifactBuf)
	for {
		if err := r.applyNext(conn, &rbuf, staging); err != nil {
			select {
			case <-r.stop:
				return nil
			default:
			}
			return err
		}
	}
}

// applyNext reads the stream's next frame into *rbuf and applies it.
func (r *Replica) applyNext(conn net.Conn, rbuf *[]byte, staging map[string]*artifactBuf) error {
	// The primary heartbeats every ~100ms; a minute of silence means the
	// connection is dead even if TCP has not noticed.
	conn.SetReadDeadline(time.Now().Add(time.Minute)) //nolint:errcheck
	op, payload, err := wire.Read(conn, rbuf)
	if err != nil {
		return err
	}
	switch op {
	case opChunk:
		return r.applyChunk(payload)
	case opArtifact:
		return r.applyArtifact(payload, staging)
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

// applyWelcome records the primary's client address and rewinds watermarks
// to the primary's chosen stream starts (a primary that itself recovered
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
	shards, rest, err := wire.TakeU32(rest)
	if err != nil {
		return err
	}
	if int(shards) != r.store.NumShards() {
		return fmt.Errorf("welcome shard count %d, local %d", shards, r.store.NumShards())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < int(shards); i++ {
		var begin, start, durable uint64
		if begin, rest, err = wire.TakeU64(rest); err != nil {
			return err
		}
		if start, rest, err = wire.TakeU64(rest); err != nil {
			return err
		}
		if durable, rest, err = wire.TakeU64(rest); err != nil {
			return err
		}
		if start < r.have[i] {
			r.have[i] = start
		}
		r.primaryDurable[i].Store(durable)
		lg := r.store.ShardLog(i)
		if begin > lg.Begin() {
			lg.ShiftBegin(begin)
		}
	}
	return nil
}

// applyChunk writes shipped log bytes to the shard's device, through the log:
// it keeps checksums of pages it has verified, and a page written here is no
// longer the page it checked. Below the visible tail this overlaps state the
// store may read concurrently — that only happens on the resync path after a
// primary recovery, where the re-shipped range differs — so those writes take
// the install lock.
func (r *Replica) applyChunk(payload []byte) error {
	shard32, rest, err := wire.TakeU32(payload)
	if err != nil {
		return err
	}
	off, data, err := wire.TakeU64(rest)
	if err != nil {
		return err
	}
	i := int(shard32)
	if i < 0 || i >= r.store.NumShards() {
		return fmt.Errorf("chunk for shard %d of %d", i, r.store.NumShards())
	}
	if len(data) == 0 {
		return nil
	}
	lg := r.store.ShardLog(i)
	locked := off < lg.Tail()
	if locked {
		r.mu.Lock()
	}
	werr := lg.RestoreRange(off, data)
	if locked {
		r.mu.Unlock()
	}
	if werr != nil {
		return fmt.Errorf("stage shard %d @%d: %w", i, off, werr)
	}
	r.receivedBytes.Add(uint64(len(data)))
	r.mu.Lock()
	if end := off + uint64(len(data)); end > r.have[i] {
		r.have[i] = end
	}
	r.mu.Unlock()
	return nil
}

type artifactBuf struct {
	data []byte
	got  int
}

// applyArtifact assembles a chunked artifact and persists it when complete.
func (r *Replica) applyArtifact(payload []byte, staging map[string]*artifactBuf) error {
	nameB, rest, err := wire.TakeString(payload)
	if err != nil {
		return err
	}
	name := string(nameB)
	total, rest, err := wire.TakeU32(rest)
	if err != nil {
		return err
	}
	off, data, err := wire.TakeU32(rest)
	if err != nil {
		return err
	}
	buf := staging[name]
	if buf == nil {
		buf = &artifactBuf{data: make([]byte, total)}
		staging[name] = buf
	}
	if int(off)+len(data) > len(buf.data) {
		return fmt.Errorf("artifact %s overflows (%d+%d > %d)", name, off, len(data), len(buf.data))
	}
	copy(buf.data[off:], data)
	buf.got += len(data)
	if buf.got < len(buf.data) {
		return nil
	}
	delete(staging, name)
	if name == "latest" || name == "cpr-latest" {
		// The pointer artifacts of older layouts. No current primary ships
		// them and nothing reads one as a pointer, but the name is input from
		// outside: a stored "latest" in a directory that has no manifest yet
		// would make local recovery refuse it as a pre-manifest layout.
		return nil
	}
	return storage.WriteArtifact(r.store.Checkpoints(), name, buf.data)
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
	if len(rest) < 1 {
		return fmt.Errorf("commit %s: truncated kind", token)
	}
	rest = rest[1:] // kind: informational here
	shards, rest, err := wire.TakeU32(rest)
	if err != nil {
		return err
	}
	if int(shards) != r.store.NumShards() {
		return fmt.Errorf("commit %s shard count %d, local %d", token, shards, r.store.NumShards())
	}
	ends := make([]uint64, shards)
	r.mu.RLock()
	for i := range ends {
		var floor uint64
		if ends[i], rest, err = wire.TakeU64(rest); err != nil {
			break
		}
		if floor, rest, err = wire.TakeU64(rest); err != nil {
			break
		}
		if err == nil && r.have[i] < floor {
			err = fmt.Errorf("commit %s needs shard %d bytes to %d, staged %d", token, i, floor, r.have[i])
		}
	}
	r.mu.RUnlock()
	if err != nil {
		return err
	}
	if version <= r.applied.Load() {
		return nil // already installed (reconnect replay)
	}
	r.mu.Lock()
	err = r.store.ApplyCommitted(token)
	if err == nil {
		for i := range ends {
			// Snapshot restores extend the device past the shipped range.
			if t := r.store.ShardLog(i).Tail(); t > r.have[i] {
				r.have[i] = t
			}
			if ends[i] > r.have[i] {
				r.have[i] = ends[i]
			}
		}
	}
	r.mu.Unlock()
	if err != nil {
		return fmt.Errorf("install %s: %w", token, err)
	}
	r.applied.Store(version)
	if pv := r.primaryVersion.Load(); version > pv {
		r.primaryVersion.Store(version)
	}
	r.installs.Inc()
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
	shards, rest, err := wire.TakeU32(rest)
	if err != nil {
		return err
	}
	if int(shards) != len(r.primaryDurable) {
		return fmt.Errorf("tail shard count %d, local %d", shards, len(r.primaryDurable))
	}
	for i := 0; i < int(shards); i++ {
		var d uint64
		if d, rest, err = wire.TakeU64(rest); err != nil {
			return err
		}
		r.primaryDurable[i].Store(d)
	}
	return nil
}
