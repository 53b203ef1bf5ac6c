package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/epoch"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Phase is a state of the CPR commit state machine. The database walks rest →
// prepare → in-progress → wait-flush (Fig. 4); FASTER adds wait-pending
// between the last two (Fig. 9a). The codes are the flight recorder's.
type Phase uint8

// The phases, in the order a commit walks them.
const (
	Rest Phase = iota
	Prepare
	InProgress
	WaitPending
	WaitFlush
)

// String implements fmt.Stringer.
func (p Phase) String() string { return obs.FlightPhaseName(uint64(p)) }

// ErrCommitInProgress is returned when a commit is requested while another
// has not completed.
var ErrCommitInProgress = errors.New("a CPR commit is already in progress")

// MaxResults is how many completed commits stay retrievable by token: each
// result holds a per-participant map, and an autocommitting server completes
// a commit every few hundred milliseconds for as long as it runs.
const MaxResults = 64

// The state word packs the phase (bits 32 and up) and the version.
func pack(p Phase, v uint32) uint64   { return uint64(p)<<32 | uint64(v) }
func unpack(w uint64) (Phase, uint32) { return Phase(w >> 32), uint32(w) }

// View is a participant's view of the machine: the phase and version it last
// synchronised with.
type View struct {
	Phase   Phase
	Version uint32
}

// Hooks are what an engine adds to the machine.
type Hooks[P comparable, R any] struct {
	// Name names a participant in flight events. Serial is its latest serial,
	// which is also the commit point of a participant that leaves before it
	// demarcates.
	Name   func(P) string
	Serial func(P) uint64
	// Prepare is a participant's prepare-entry work, done before it
	// acknowledges prepare; nil when there is none.
	Prepare func(P)
	// Point fixes a participant's commit point as it enters in-progress.
	Point func(P) uint64
	// Demarcated runs once every participant has demarcated: it walks the
	// engine's phases from in-progress to Flush.
	Demarcated func(*Commit[P, R])
	// Flush is the wait-flush phase, on a goroutine of its own: it captures
	// the version, returns the machine to rest (Rest) and ends the commit
	// (Done).
	Flush func(*Commit[P, R])
}

// Commit is the running commit.
type Commit[P comparable, R any] struct {
	Token   string
	Version uint32
	Started time.Time

	coord  *Coordinator[P]
	onDone func(R)
	// done is closed once the commit's result is published; res is final
	// from then on.
	done chan struct{}
	res  R
}

// Points returns each participant's commit point. Call it from Flush.
func (c *Commit[P, R]) Points() map[P]uint64 { return c.coord.Points() }

// Machine is one CPR commit state machine: the state word its participants
// read on every refresh, the participant set, admission of one commit at a
// time, and the results of the newest commits by token. P is a participant
// (a session or worker pointer), R an engine's commit result.
type Machine[P comparable, R any] struct {
	epochs *epoch.Manager
	flight *obs.FlightRecorder
	hooks  Hooks[P, R]
	word   atomic.Uint64

	// mu guards the participant set and serializes registration against
	// admission, so a commit's participants are the set as it was.
	mu           sync.Mutex
	participants map[P]struct{}

	// active is the running commit, from admission until its result is
	// published; resMu orders its clearing with the results.
	active  atomic.Pointer[Commit[P, R]]
	resMu   sync.Mutex
	results map[string]R
	ring    [MaxResults]string // tokens retained; slot n%MaxResults is the oldest
	n       int

	// Seq is the token counter (storage.NextToken).
	Seq atomic.Uint64
}

// NewMachine returns a machine at rest in version 1.
func NewMachine[P comparable, R any](epochs *epoch.Manager, flight *obs.FlightRecorder, hooks Hooks[P, R]) *Machine[P, R] {
	m := &Machine[P, R]{epochs: epochs, flight: flight, hooks: hooks,
		participants: make(map[P]struct{}), results: make(map[string]R, MaxResults)}
	m.Reset(1)
	return m
}

// Reset puts the machine at rest in version v: a recovered or installed
// commit's successor.
func (m *Machine[P, R]) Reset(v uint32) { m.word.Store(pack(Rest, v)) }

// State returns the phase and version the word holds.
func (m *Machine[P, R]) State() (Phase, uint32) { return unpack(m.word.Load()) }

// Version returns the current version.
func (m *Machine[P, R]) Version() uint32 { _, v := m.State(); return v }

// Phase returns the current phase. While a commit ends after the return to
// rest (the machine at rest in v+1, the result not yet published) it reports
// wait-flush, so polling Phase() == Rest observes completed commits only.
func (m *Machine[P, R]) Phase() Phase {
	p, v := m.State()
	if c := m.active.Load(); p == Rest && c != nil && c.Version != v {
		return WaitFlush
	}
	return p
}

// Running reports whether the running commit is of version v.
func (m *Machine[P, R]) Running(v uint32) bool {
	c := m.active.Load()
	return c != nil && c.Version == v
}

// Register adds the participant newP builds from the view it starts with.
// A participant registers only at rest, so while a commit runs Register
// waits, driving the epoch so the commit advances when every participant is
// idle, and yielding the processor to the participants the commit waits for:
// one that yields (a scheduling hook, CompletePending) would otherwise get it
// back only when the waiter is preempted. A caller that owns a participant
// must keep refreshing it meanwhile from another goroutine, or the commit
// waits for it forever.
func (m *Machine[P, R]) Register(newP func(View) P) P {
	for {
		m.mu.Lock()
		if p, v := m.State(); p == Rest {
			q := newP(View{p, v})
			m.participants[q] = struct{}{}
			m.mu.Unlock()
			return q
		}
		m.mu.Unlock()
		for p, _ := m.State(); p != Rest; p, _ = m.State() {
			g := m.epochs.Acquire()
			g.Refresh()
			g.Release()
			runtime.Gosched()
		}
	}
}

// Leave removes a participant whose view is v. One that leaves the running
// commit before demarcating contributes everything it issued: it can issue
// nothing further.
func (m *Machine[P, R]) Leave(p P, v View) {
	m.mu.Lock()
	delete(m.participants, p)
	m.mu.Unlock()
	if c := m.active.Load(); c != nil {
		same, serial := v.Version == c.Version, m.hooks.Serial(p)
		m.flight.Emit(obs.FlightDrop, -1, uint64(c.Version), c.Token, m.hooks.Name(p), serial, 0)
		c.coord.Drop(p, same && v.Phase >= Prepare, same && v.Phase >= InProgress, serial)
	}
}

// Each calls fn for every participant, under the registration lock.
func (m *Machine[P, R]) Each(fn func(P)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := range m.participants {
		fn(p)
	}
}

// Count returns the number of participants.
func (m *Machine[P, R]) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.participants)
}

// Refresh brings participant p's view v up to the word, doing its entry work
// for each phase it enters: on prepare the engine's work and the
// acknowledgment, on in-progress the demarcation of its commit point (Sec.
// 2). A view of an older version resets to rest first, then enters the
// running commit's phases: skipping them would lose p's acknowledgments.
func (m *Machine[P, R]) Refresh(p P, v *View) {
	gp, gv := m.State()
	if gv != v.Version {
		v.Version, v.Phase = gv, Rest
	}
	if v.Phase == Rest && gp >= Prepare {
		if c := m.active.Load(); c != nil && c.Version == v.Version {
			if m.hooks.Prepare != nil {
				m.hooks.Prepare(p)
			}
			m.flight.Emit(obs.FlightAckPrepare, -1, uint64(c.Version), c.Token, m.hooks.Name(p), m.hooks.Serial(p), 0)
			c.coord.AckPrepare(p)
		}
		v.Phase = Prepare
	}
	if v.Phase == Prepare && gp >= InProgress {
		v.Phase = InProgress
		if c := m.active.Load(); c != nil && c.Version == v.Version {
			pt := m.hooks.Point(p)
			m.flight.Emit(obs.FlightDemarcate, -1, uint64(c.Version), c.Token, m.hooks.Name(p), pt, 0)
			c.coord.Demarcate(p, pt)
		}
	}
	v.Phase = max(v.Phase, gp)
}

// Begin admits a commit of the current version with the registered
// participants and publishes prepare. admit, run before the publication,
// does the engine's admission work; onDone, if set, gets the result. It
// returns the commit's token, or ErrCommitInProgress while another commit has
// not completed.
func (m *Machine[P, R]) Begin(onDone func(R), admit func(*Commit[P, R])) (string, error) {
	m.mu.Lock()
	if m.active.Load() != nil {
		m.mu.Unlock()
		return "", ErrCommitInProgress
	}
	c := &Commit[P, R]{Token: storage.NextToken(&m.Seq), Version: m.Version(), Started: time.Now(),
		onDone: onDone, done: make(chan struct{})}
	c.coord = NewCoordinator[P](func() { m.publish(c, Prepare, InProgress) }, func() { m.hooks.Demarcated(c) })
	for p := range m.participants {
		c.coord.Add(p)
	}
	if admit != nil {
		admit(c)
	}
	m.active.Store(c)
	m.flight.Emit(obs.FlightCommitStart, -1, uint64(c.Version), c.Token, "", 0, 0)
	m.publish(c, Rest, Prepare)
	m.mu.Unlock()
	// With zero participants the seal completes both transitions at once.
	c.coord.Seal()
	return c.Token, nil
}

// publish stores a phase the participants must acknowledge, records the
// transition, and bumps the epoch. Nothing waits on the drain (the
// acknowledgments drive the machine); the action is there so that the epoch
// manager measures how long the publication took to reach every thread.
func (m *Machine[P, R]) publish(c *Commit[P, R], from, to Phase) {
	m.word.Store(pack(to, c.Version))
	m.emitPhase(c, from, to)
	m.epochs.BumpEpoch(func() {})
}

func (m *Machine[P, R]) emitPhase(c *Commit[P, R], from, to Phase) {
	m.flight.Emit(obs.FlightPhase, -1, uint64(c.Version), c.Token, "", uint64(from), uint64(to))
}

// Advance moves the running commit from phase from to phase to, once: it
// returns the commit when this call moved it, nil otherwise.
func (m *Machine[P, R]) Advance(from, to Phase) *Commit[P, R] {
	c := m.active.Load()
	if c == nil || !m.word.CompareAndSwap(pack(from, c.Version), pack(to, c.Version)) {
		return nil
	}
	m.emitPhase(c, from, to)
	return c
}

// Flush advances the running commit from phase from to wait-flush, once, and
// starts the engine's Flush.
func (m *Machine[P, R]) Flush(from Phase) {
	if c := m.Advance(from, WaitFlush); c != nil {
		go m.hooks.Flush(c)
	}
}

// Rest returns the machine to rest in version v+1 once c's capture is taken.
// The transition is recorded first, so whoever sees the commit done finds all
// of them on the timeline. trigger, if set, runs once every thread has seen
// the return.
func (m *Machine[P, R]) Rest(c *Commit[P, R], trigger func()) {
	if trigger == nil {
		trigger = func() {}
	}
	m.emitPhase(c, WaitFlush, Rest)
	m.word.Store(pack(Rest, c.Version+1))
	m.epochs.BumpEpoch(trigger)
}

// Done ends commit c with result res: err decides between the commit-done
// event, carrying bytes, and commit-fail; then the result is published
// (TryResult, WaitForCommit, Phase), the next commit may begin, and onDone
// runs.
func (m *Machine[P, R]) Done(c *Commit[P, R], res R, err error, bytes uint64) {
	if err == nil {
		m.flight.Emit(obs.FlightCommitDone, -1, uint64(c.Version), c.Token, "", bytes, 0)
	} else {
		m.flight.Emit(obs.FlightCommitFail, -1, uint64(c.Version), c.Token, "", 0, 0)
	}
	c.res = res
	m.resMu.Lock()
	m.put(c.Token, res)
	m.active.Store(nil)
	m.resMu.Unlock()
	close(c.done)
	if c.onDone != nil {
		c.onDone(res)
	}
}

// Record keeps the result of a commit that ran outside the machine.
func (m *Machine[P, R]) Record(token string, res R) {
	m.resMu.Lock()
	m.put(token, res)
	m.resMu.Unlock()
}

// put keeps res under token, dropping the oldest of MaxResults.
func (m *Machine[P, R]) put(token string, res R) {
	slot := &m.ring[m.n%MaxResults]
	delete(m.results, *slot)
	*slot = token
	m.n++
	m.results[token] = res
}

// TryResult returns a completed commit's result without blocking. ok is
// false while the commit runs, or when the token is unknown or too old.
func (m *Machine[P, R]) TryResult(token string) (res R, ok bool) {
	m.resMu.Lock()
	defer m.resMu.Unlock()
	res, ok = m.results[token]
	return res, ok
}

// WaitForCommit blocks until the commit identified by token completes and
// returns its result; ok is false when the token is unknown or too old.
func (m *Machine[P, R]) WaitForCommit(token string) (res R, ok bool) {
	m.resMu.Lock()
	if c := m.active.Load(); c != nil && c.Token == token {
		m.resMu.Unlock()
		<-c.done
		return c.res, true
	}
	res, ok = m.results[token]
	m.resMu.Unlock()
	return res, ok
}
