// Package epoch implements the epoch-protection framework of Sec. 3 of the
// CPR paper (Prasaad et al., SIGMOD 2019), the loose-synchronization building
// block used by every CPR commit protocol in this repository.
//
// A Manager maintains a shared atomic counter E (the current epoch). Every
// participating thread T owns an entry in a shared epoch table holding its
// thread-local copy E_T, refreshed periodically. An epoch c is safe when all
// registered threads have a strictly higher local epoch. Threads may register
// trigger actions with BumpEpoch: the action fires exactly once, after the
// bumped epoch becomes safe — i.e. after every registered thread has
// refreshed and therefore observed any global state written before the bump.
package epoch

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// MaxThreads is the capacity of the epoch table. Each registered Guard
// occupies one entry until released.
const MaxThreads = 512

const cacheLine = 64

// entry is one slot of the shared epoch table. Entries are padded to a cache
// line so refreshes by different threads do not false-share.
type entry struct {
	local atomic.Uint64 // thread-local epoch; 0 means the slot is free
	_     [cacheLine - 8]byte
}

// action is a registered trigger: fn runs once epoch is safe.
type action struct {
	epoch uint64
	fn    func()
}

// Manager is a shared epoch table plus a drain list of trigger actions.
// The zero value is not usable; call New.
type Manager struct {
	current atomic.Uint64 // E

	table [MaxThreads]entry
	used  atomic.Int32 // slots [0, used) have been acquired at some time; scans stop there

	drainCount atomic.Int32 // fast-path check: non-zero iff drain may be non-empty
	drainMu    sync.Mutex
	drain      []action

	// Observability (set once by Instrument/InstrumentFlight before
	// concurrent use; nil-safe).
	bumps       *obs.Counter
	drains      *obs.Counter
	scans       *obs.Counter
	drainNs     *obs.Histogram
	flight      *obs.FlightRecorder
	flightShard int
}

// Instrument registers the manager's metrics with reg:
//
//	epoch_bumps_total   epoch increments
//	epoch_drains_total  trigger actions fired
//	epoch_scans_total   table scans looking for actions to fire (none while
//	                    no action waits)
//	epoch_drain_ns      latency from bump to the action firing (all threads
//	                    refreshed past the bumped epoch)
//	epoch_current/epoch_safe/epoch_registered  live table state
//
// Call it once, before the manager is shared across goroutines.
func (m *Manager) Instrument(reg *obs.Registry) {
	m.bumps = reg.Counter("epoch_bumps_total")
	m.drains = reg.Counter("epoch_drains_total")
	m.scans = reg.Counter("epoch_scans_total")
	m.drainNs = reg.Histogram("epoch_drain_ns")
	reg.GaugeFunc("epoch_current", func() int64 { return int64(m.current.Load()) })
	reg.SetHelp("epoch_current", "Current (most recently bumped) epoch.")
	reg.GaugeFunc("epoch_safe", func() int64 { return int64(m.Safe()) })
	reg.SetHelp("epoch_safe",
		"Safe-to-reclaim epoch (every registered thread has refreshed past it).")
	reg.GaugeFunc("epoch_registered", func() int64 { return int64(m.Registered()) })
	reg.GaugeFunc("epoch_pending_drains", func() int64 { return int64(m.drainCount.Load()) })
	reg.SetHelp("epoch_pending_drains",
		"Trigger actions queued behind an unsafe epoch; nonzero with no drains firing is the health engine's epoch-drain-stuck signal.")
	reg.SetHelp("epoch_drains_total", "Epoch trigger actions fired (drains executed).")
}

// InstrumentFlight attaches a flight recorder: every epoch bump emits an
// epoch-bump event and every drained trigger an epoch-drain event, tagged
// with shard. Call it once, before the manager is shared across goroutines.
// A nil recorder is a no-op.
func (m *Manager) InstrumentFlight(fr *obs.FlightRecorder, shard int) {
	m.flight = fr
	m.flightShard = shard
}

// New returns a Manager with the current epoch initialized to 1 so that a
// zero local-epoch value can mean "slot free".
func New() *Manager {
	m := &Manager{}
	m.current.Store(1)
	return m
}

// Guard is a registered thread's handle into the epoch table. A Guard is not
// safe for concurrent use; it belongs to the goroutine that acquired it.
type Guard struct {
	m    *Manager
	slot int
}

// Acquire registers the calling goroutine in the epoch table and returns its
// Guard. It panics if the table is full, which indicates a configuration
// error (more concurrent sessions than MaxThreads).
func (m *Manager) Acquire() *Guard {
	e := m.current.Load()
	for i := range m.table {
		if m.table[i].local.Load() == 0 && m.table[i].local.CompareAndSwap(0, e) {
			for u := m.used.Load(); int(u) <= i; u = m.used.Load() {
				m.used.CompareAndSwap(u, int32(i+1))
			}
			return &Guard{m: m, slot: i}
		}
	}
	panic("epoch: table full; raise MaxThreads or release unused guards")
}

// Refresh copies the current epoch into the guard's table entry and, only
// while trigger actions are waiting, scans the table and runs those that became
// ready (LightEpoch's protect-and-drain). With nothing to drain it is one load
// and one store: whoever registers an action scans after publishing it, so an
// entry stored here before that scan is seen by it, and one stored after sees
// the action's count.
func (g *Guard) Refresh() {
	g.m.table[g.slot].local.Store(g.m.current.Load())
	if g.m.drainCount.Load() > 0 {
		g.m.drainReady()
	}
}

// Suspend declares that the guard's thread holds no references until its next
// Refresh (LightEpoch's Suspend): it keeps its slot but holds back no epoch.
func (g *Guard) Suspend() {
	g.m.table[g.slot].local.Store(^uint64(0)) // above every epoch: Safe skips it
	if g.m.drainCount.Load() > 0 {
		g.m.drainReady()
	}
}

// Release removes the guard from the epoch table. Any actions that become
// ready as a result are triggered. The guard must not be used afterwards.
func (g *Guard) Release() {
	g.m.table[g.slot].local.Store(0)
	if g.m.drainCount.Load() > 0 {
		g.m.drainReady()
	}
	g.m = nil
}

// Current returns the current global epoch E.
func (m *Manager) Current() uint64 { return m.current.Load() }

// Safe computes the maximal safe epoch E_s — one below the smallest local
// epoch in the table — scanning the slots ever acquired. A guard acquired
// during a bump may enter one epoch behind, so the value is not monotonic.
func (m *Manager) Safe() uint64 {
	minLocal := m.current.Load()
	for i := range m.table[:m.used.Load()] {
		if v := m.table[i].local.Load(); v != 0 && v < minLocal {
			minLocal = v
		}
	}
	return minLocal - 1
}

// BumpEpoch increments the current epoch from e to e+1 and registers fn to
// run after epoch e becomes safe — that is, after every registered thread has
// refreshed its local epoch to at least e+1 and has therefore observed any
// global state stored before this call. If no threads are registered, fn runs
// immediately. fn may itself call BumpEpoch.
func (m *Manager) BumpEpoch(fn func()) {
	prev := m.current.Add(1) - 1
	m.bumps.Inc()
	m.flight.Emit(obs.FlightEpochBump, m.flightShard, 0, "", "", prev, 0)
	if fn == nil {
		return
	}
	if m.drainNs != nil || m.flight != nil {
		inner := fn
		t0 := time.Now()
		fn = func() {
			d := time.Since(t0)
			m.drains.Inc()
			m.drainNs.Observe(d)
			m.flight.Emit(obs.FlightEpochDrain, m.flightShard, 0, "", "", prev, uint64(d.Nanoseconds()))
			inner()
		}
	}
	m.drainMu.Lock()
	m.drain = append(m.drain, action{epoch: prev, fn: fn})
	m.drainMu.Unlock()
	m.drainCount.Add(1)
	m.drainReady()
}

// Bump increments the current epoch without registering an action.
func (m *Manager) Bump() { m.BumpEpoch(nil) }

// drainReady computes E_s and fires every drain-list action whose epoch is
// now safe. Actions are removed under the lock (so each runs exactly once) but
// invoked outside it (so an action may bump the epoch and register further
// actions).
func (m *Manager) drainReady() {
	m.scans.Inc()
	safe := m.Safe()
	var ready []action
	m.drainMu.Lock()
	kept := m.drain[:0]
	for _, a := range m.drain {
		if a.epoch <= safe {
			ready = append(ready, a)
		} else {
			kept = append(kept, a)
		}
	}
	m.drain = kept
	m.drainMu.Unlock()
	if len(ready) > 0 {
		m.drainCount.Add(int32(-len(ready)))
		for _, a := range ready {
			a.fn()
		}
	}
}

// Registered reports how many guards are currently registered. Intended for
// tests and diagnostics.
func (m *Manager) Registered() int {
	n := 0
	for i := range m.table[:m.used.Load()] {
		if m.table[i].local.Load() != 0 {
			n++
		}
	}
	return n
}

// Site names one of the seven places in the store where a race between
// sessions once lived. A test may set a scheduling hook there (SetYieldHook) to
// reorder the threads; unset, a site costs one load and one branch.
type Site uint8

const (
	SiteRefresh    Site = iota // a session syncs its view of the CPR state machine
	SiteDispatch               // an operation picks its CPR path
	SiteInstall                // between an update's decision and its compare-and-swap
	SitePark                   // an operation leaves the session's working record
	SiteLatch                  // a bucket latch is about to be taken
	SiteRecordLock             // a record's in-place latch is about to be taken
	SiteFrameReuse             // a log frame is cleared for its next page
	NumSites
)

var yieldHook atomic.Pointer[func(Site)]

// YieldAt runs the scheduling hook, if one is set.
func YieldAt(site Site) {
	if h := yieldHook.Load(); h != nil {
		(*h)(site)
	}
}

// SetYieldHook sets the scheduling hook, nil for none. Only tests call it.
func SetYieldHook(fn func(Site)) {
	p := &fn
	if fn == nil {
		p = nil
	}
	yieldHook.Store(p)
}
