package faster

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/hashfn"
	"repro/internal/hlog"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Status is the result of a session operation.
type Status uint8

// Operation results.
const (
	// Ok: the operation completed.
	Ok Status = iota
	// NotFound: a read or delete found no live record for the key.
	NotFound
	// Pending: the operation was queued (async I/O or CPR hand-off); it
	// completes during a later CompletePending call.
	Pending
	// Error: the operation failed (I/O error); see the callback's error.
	Error
)

// String implements fmt.Stringer.
func (st Status) String() string {
	switch st {
	case Ok:
		return "ok"
	case NotFound:
		return "not-found"
	case Pending:
		return "pending"
	}
	return "error"
}

type opKind uint8

const (
	opRead opKind = iota
	opUpsert
	opRMW
	opDelete
)

// pendingOp carries an operation: issued, in the session's working record, or
// parked, in a freelist record whose key, input and io keep their buffers
// across reuse — awaiting async I/O for a cold record, or held back by the CPR
// protocol (fuzzy region, latch conflict, version hand-off).
type pendingOp struct {
	kind    opKind
	key     []byte
	input   []byte // upsert value or RMW input
	val     []byte // a read's result: the session's scratch buffer (see finishRead)
	hash    uint64
	version uint32 // CPR version this operation belongs to
	serial  uint64

	latched bool // holds a shared latch on the key's bucket (fine-grained)
	counted bool // counted in the active checkpoint's pending-v tally

	awaitingIO bool
	ioAddr     uint64
	ioRec      hlog.RecordRef // a view over io's buffer
	ioErr      error
	// io is the record's cold-read state, created by its first queueRead; its
	// completion goes to the session the record is parked on.
	io *hlog.ColdRead
	// diskResume, when non-zero, is the next unexamined chain address on
	// storage: everything above it on this key's chain has already been
	// checked (the on-storage part of a chain is immutable, so the check
	// history stays valid across retries).
	diskResume uint64

	readCB func(val []byte, st Status)
}

// Session is a client session (Sec. 5.2): a single-goroutine handle issuing
// operations with strictly increasing serial numbers. It is one participant of
// the store's CPR protocol — one epoch entry, one view of the state machine,
// one commit point per commit — and holds its parked operations and their
// cold reads.
type Session struct {
	store *Store
	id    string
	guard *epoch.Guard

	phase   Phase  // local view of the store's phase
	version uint32 // local view of the store's version

	// serial is the serial of the most recently issued operation. Atomic so
	// the durability-lag scans (Store.SessionLags, commit completion) can read
	// it from other goroutines; the owning goroutine is still the only writer.
	serial atomic.Uint64

	// committedSerial/committedAtNanos track the session's durable prefix
	// t_i: updated by Store.noteCommitted whenever a commit completes, read by
	// the durability-lag metrics. demarcAtNanos is when the session last fixed
	// a CPR point, giving the wall-time component of the lag histograms.
	committedSerial  atomic.Uint64
	committedAtNanos atomic.Int64
	demarcAtNanos    atomic.Int64

	// committedToken names the commit that last advanced committedSerial —
	// the covering commit for a durability wait, cross-linking a request's
	// durwait span to the flight recorder's commit timeline. Atomic pointer:
	// written by Store.noteCommitted, read from serving goroutines.
	committedToken atomic.Pointer[string]

	// abortedSerial, when non-zero, is the serial of an operation that
	// detected the CPR shift mid-execution and therefore belongs to v+1.
	// Consumed by enterInProgress.
	abortedSerial uint64

	opsSinceRefresh int
	closed          bool

	// cur is the operation being issued and opFree recycles parked ones, so
	// neither allocates; scratch holds the current-value copy an RMW works on
	// and the value a read hands out; seen, the value a read-copy-update copied
	// (see rcu); failed counts parked ops that ended in Error until
	// CompletePending reports them. Session ops are single-goroutine by
	// contract, so none of these needs locking.
	cur     pendingOp
	opFree  []*pendingOp
	scratch []byte
	seen    []byte
	failed  int

	// pending holds the parked operations, retried by CompletePending.
	pending []*pendingOp
	// ioQueue holds the first device reads of cold fetches issued but not yet
	// handed to the I/O pool; flushIO hands them over as one run.
	ioQueue []storage.IORequest
	// compMu guards completed: async I/O completions are appended by pool
	// workers and drained by CompletePending. A slice (not a channel) so a
	// slow session can never block the shared I/O pool — that would deadlock
	// sessions submitting new requests into a jammed pool.
	compMu    sync.Mutex
	completed []*pendingOp
	drained   []*pendingOp // completeOnce's side of the completed double buffer
	// ready is len(completed), readable without compMu: a session spinning in
	// CompletePending does not take the lock the I/O workers deliver under
	// until there is something to take.
	ready atomic.Int32
}

// opFreeMax bounds the freelist so a burst of pending-heavy batches cannot
// pin an unbounded set of retired op buffers.
const opFreeMax = 64

// refreshInterval is how many operations a session performs between epoch
// refreshes (the paper's "k times" in Alg. 1).
const refreshInterval = 64

func newGUID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("faster: guid: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// StartSession registers a new client session. If a CPR commit is in flight,
// the call waits for it to finish so the commit's participant set stays
// fixed.
func (s *Store) StartSession() *Session {
	return s.startSession(newGUID(), 0)
}

// ContinueSession re-establishes a session after failure (Sec. 5.2). It
// returns the session and the serial number of its recovered CPR point: all
// operations up to that serial are durable; the client replays the rest.
func (s *Store) ContinueSession(id string) (*Session, uint64) {
	s.mu.Lock()
	serial := s.recoveredSerials[id]
	s.mu.Unlock()
	return s.startSession(id, serial), serial
}

func (s *Store) startSession(id string, serial uint64) *Session {
	for {
		if sess, ok := s.tryStartSession(id, serial); ok {
			return sess
		}
		// A commit is running; its participant set was snapshotted. Spin
		// until it finishes (commits are short relative to session setup).
		s.waitForRest()
	}
}

// tryStartSession registers the session while the store is at rest. Commit
// admission holds s.mu too, so a commit's participant set is the registry as
// it was.
func (s *Store) tryStartSession(id string, serial uint64) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	phase, version := unpackState(s.state.Load())
	if phase != Rest {
		return nil, false
	}
	sess := &Session{store: s, id: id, guard: s.epochs.Acquire(), phase: phase, version: version}
	sess.serial.Store(serial)
	// Everything issued so far (the recovered prefix) is durable by
	// definition; the lag clock starts now.
	sess.committedSerial.Store(serial)
	sess.committedAtNanos.Store(nowNanos())
	s.sessions[id] = sess
	return sess, true
}

// ID returns the session's GUID.
func (sess *Session) ID() string { return sess.id }

// Serial returns the serial number of the most recently issued operation.
func (sess *Session) Serial() uint64 { return sess.serial.Load() }

// CommittedSerial returns the session's durable commit point t_i: every
// operation with serial <= t_i survives failure.
func (sess *Session) CommittedSerial() uint64 { return sess.committedSerial.Load() }

// CommittedToken returns the token of the commit that last advanced this
// session's commit point ("" before the first covering commit). A durability
// wait that observes its serial covered attributes the wait to this token.
func (sess *Session) CommittedToken() string {
	if p := sess.committedToken.Load(); p != nil {
		return *p
	}
	return ""
}

// lag computes the session's durability lag at wall-clock instant now (a
// nowNanos value). Callers hold store.mu (the session registry lock).
func (sess *Session) lag(id string, now int64) SessionLag {
	issued := sess.serial.Load()
	committed := sess.committedSerial.Load()
	l := SessionLag{ID: id, IssuedSerial: issued, CommittedSerial: committed}
	if issued > committed {
		l.LagOps = issued - committed
		if at := sess.committedAtNanos.Load(); at != 0 && now > at {
			l.LagNanos = now - at
		}
	}
	return l
}

// StopSession completes pending work and unregisters the session.
func (sess *Session) StopSession() {
	if sess.closed {
		return
	}
	sess.CompletePending(true)
	st := sess.store
	st.mu.Lock()
	delete(st.sessions, sess.id)
	st.mu.Unlock()
	if ck := st.active.Load(); ck != nil {
		ck.dropParticipant(sess)
	}
	sess.guard.Release()
	sess.closed = true
}

// Refresh updates the session's epoch entry and synchronizes its view of the
// store's CPR state machine, performing phase-entry work (Sec. 6.2): latching
// pending requests on prepare entry and demarcating the CPR point on
// in-progress entry.
func (sess *Session) Refresh() {
	epoch.YieldAt(epoch.SiteRefresh)
	gp, gv := unpackState(sess.store.state.Load())
	if gv != sess.version {
		// The previous commit completed since our last refresh (and a new
		// one may already be active): reset to rest of the new version, then
		// process any phase entries of the active commit below — skipping
		// them would lose this session's acknowledgments.
		sess.version = gv
		sess.phase = Rest
	}
	if sess.phase == Rest && gp >= Prepare {
		sess.enterPrepare()
	}
	if sess.phase == Prepare && gp >= InProgress {
		sess.enterInProgress()
	}
	if gp > sess.phase {
		sess.phase = gp
	}
	sess.guard.Refresh()
	sess.opsSinceRefresh = 0
}

// enterPrepare performs prepare-entry work: every outstanding pending
// request of the commit version acquires a shared latch on its bucket
// (fine-grained transfer) and is counted toward the commit's pending tally.
func (sess *Session) enterPrepare() {
	ck := sess.store.active.Load()
	if ck == nil || ck.version != sess.version {
		sess.phase = Prepare
		return
	}
	fine := sess.store.cfg.Transfer == FineGrained
	for _, op := range sess.pending {
		if op.version != sess.version || op.counted {
			continue
		}
		if fine && !op.latched {
			// No exclusive latch of this commit can exist yet (they appear
			// only in in-progress, which requires every session to have
			// passed prepare), but one of the previous commit can: its
			// holder's view lags, and it may be waiting inside the log for a
			// page — for this session's epoch among others. So refresh while
			// waiting (a parked op holds no reference into the log).
			for !sess.store.index.trySharedLatch(op.hash) {
				sess.guard.Refresh()
			}
			op.latched = true
		}
		op.counted = true
		ck.pendingV.Add(1)
	}
	sess.phase = Prepare
	sess.store.cfg.Flight.Emit(obs.FlightAckPrepare, -1, uint64(ck.version), ck.token, sess.id, sess.serial.Load(), 0)
	ck.coord.AckPrepare(sess)
}

// enterInProgress demarcates the session's CPR point: all operations with
// serial <= the recorded value are part of the commit, none after.
func (sess *Session) enterInProgress() {
	ck := sess.store.active.Load()
	sess.phase = InProgress
	if ck == nil || ck.version != sess.version {
		return
	}
	cpr := sess.serial.Load()
	if sess.abortedSerial != 0 && sess.abortedSerial <= cpr {
		// The operation that detected the shift belongs to v+1.
		cpr = sess.abortedSerial - 1
	}
	sess.abortedSerial = 0
	sess.demarcAtNanos.Store(nowNanos())
	sess.store.cfg.Flight.Emit(obs.FlightDemarcate, -1, uint64(ck.version), ck.token, sess.id, cpr, 0)
	ck.coord.Demarcate(sess, cpr)
}

func (sess *Session) maybeRefresh() {
	sess.opsSinceRefresh++
	if sess.opsSinceRefresh >= refreshInterval {
		sess.Refresh()
	}
}

// park moves the operation in the session's working record, left Pending, to a
// freelist record that owns copies of its key and input, so the caller may
// reuse its buffers once the call returns, and queues its cold read, if any.
func (sess *Session) park(op *pendingOp) {
	epoch.YieldAt(epoch.SitePark)
	var p *pendingOp
	if n := len(sess.opFree); n > 0 {
		p, sess.opFree[n-1], sess.opFree = sess.opFree[n-1], nil, sess.opFree[:n-1]
	} else {
		p = new(pendingOp)
	}
	key, input, io := p.key, p.input, p.io
	*p = *op
	p.key, p.input, p.io = append(key[:0], op.key...), append(input[:0], op.input...), io
	if p.awaitingIO {
		sess.queueRead(p)
	}
	sess.pending = append(sess.pending, p)
}

// targetVersion returns the CPR version new work belongs to: v+1 once the
// session has demarcated its commit point for v.
func (sess *Session) targetVersion() uint32 {
	if sess.phase >= InProgress {
		return sess.version + 1
	}
	return sess.version
}

// --- public operations ---

// maxPendingSoft is the pending-list size beyond which issue drains
// completions before running new work, bounding in-flight state (the paper's
// clients bound their in-flight buffers similarly, Sec. 7.3.4).
const maxPendingSoft = 4096

// issue runs a fresh operation in the session's working record (fields reset
// one by one, key and input aliasing the caller's) under the next serial,
// parking it if needed; a read's value comes back.
func (sess *Session) issue(kind opKind, key, input []byte, cb func([]byte, Status)) ([]byte, Status) {
	sess.maybeRefresh()
	op := &sess.cur
	op.kind, op.key, op.input, op.hash, op.readCB, op.val = kind, key, input, hashfn.Hash64(key), cb, nil
	op.latched, op.counted, op.awaitingIO = false, false, false
	op.serial, op.version = sess.serial.Add(1), sess.targetVersion()
	if !sess.store.log.Fits(len(key), max(len(input), 8)) {
		// A key of 0 or over 65 535 bytes, or a value no page holds.
		if cb != nil {
			cb(nil, Error)
		}
		return nil, Error
	}
	if len(sess.pending) >= maxPendingSoft {
		sess.completeOnce()
	}
	st := sess.doOp(op)
	if st == Pending {
		sess.store.metrics.pendings.Inc()
		sess.park(op)
		return nil, Pending
	}
	return op.val, st
}

// Upsert blindly writes value for key.
func (sess *Session) Upsert(key, value []byte) Status {
	sess.store.metrics.upserts.Inc()
	_, st := sess.issue(opUpsert, key, value, nil)
	return st
}

// RMW applies the store's RMWOps with input to key's value.
func (sess *Session) RMW(key, input []byte) Status {
	sess.store.metrics.rmws.Inc()
	_, st := sess.issue(opRMW, key, input, nil)
	return st
}

// Delete removes key (writes a tombstone).
func (sess *Session) Delete(key []byte) Status {
	sess.store.metrics.deletes.Inc()
	_, st := sess.issue(opDelete, key, nil, nil)
	return st
}

// Read returns the value for key. If the record is cold (on storage), or its
// value is longer than 8 bytes and the record is in the fuzzy region, the
// read goes pending: the value is delivered to cb (which may be nil) during
// a later CompletePending. The value — returned or passed to cb — is the
// session's own buffer, valid until the session's next call (for cb: until it
// returns); a caller that keeps it copies it. FASTER fills the caller's output
// the same way; a fresh slice per read was half the memory of a read-heavy
// process.
func (sess *Session) Read(key []byte, cb func(val []byte, st Status)) ([]byte, Status) {
	sess.store.metrics.reads.Inc()
	return sess.issue(opRead, key, nil, cb)
}

// CompletePending drains async I/O completions and retries parked
// operations. With wait=true it loops until no operation
// remains pending (refreshing epochs while waiting so global progress
// continues, and yielding the processor to the I/O workers after a pass that
// completed nothing). It returns how many parked operations have ended in
// Error since the previous call: a failed write has no callback to say so.
func (sess *Session) CompletePending(wait bool) int {
	last := len(sess.pending)
	for {
		sess.completeOnce()
		remaining := len(sess.pending)
		if !wait || remaining == 0 {
			failed := sess.failed
			sess.failed = 0
			return failed
		}
		if remaining == last {
			runtime.Gosched()
		}
		last = remaining
		sess.Refresh()
	}
}

// flushIO hands the queued cold reads to the I/O pool: one locked append and
// one worker wake-up for the run.
func (sess *Session) flushIO() {
	sess.store.log.SubmitReads(sess.ioQueue)
	clear(sess.ioQueue)
	sess.ioQueue = sess.ioQueue[:0]
}

// completeOnce performs one drain-and-retry pass over the session's pending
// operations. Cold reads queued before the pass are handed over on
// entry, the ones its retries queue (the next record of a chain) on exit.
func (sess *Session) completeOnce() {
	sess.flushIO()
	// Drain I/O completions, handing the pool workers the other buffer.
	if sess.ready.Load() > 0 {
		sess.compMu.Lock()
		done := sess.completed
		sess.completed = sess.drained[:0]
		sess.ready.Store(0)
		sess.compMu.Unlock()
		for i, op := range done {
			op.awaitingIO = false
			done[i] = nil
		}
		sess.drained = done
	}
	// Retry every parked op that is not awaiting I/O; a finished one (its
	// callback, if any, has run) is retired to the freelist.
	kept := sess.pending[:0]
	for _, op := range sess.pending {
		if op.awaitingIO {
			kept = append(kept, op)
			continue
		}
		st := sess.doOp(op)
		if st == Pending {
			kept = append(kept, op)
			continue
		}
		if st == Error {
			sess.failed++
		}
		if len(sess.opFree) < opFreeMax {
			op.readCB, op.val = nil, nil
			sess.opFree = append(sess.opFree, op)
		}
	}
	// Zero dropped slots so finished ops are not pinned here.
	for i := len(kept); i < len(sess.pending); i++ {
		sess.pending[i] = nil
	}
	sess.pending = kept
	sess.flushIO()
}

// PendingCount reports the number of parked operations (diagnostics).
func (sess *Session) PendingCount() int { return len(sess.pending) }

// finish releases the CPR resources (latch, tally) a completed op holds.
func (sess *Session) finish(op *pendingOp) {
	if op.latched {
		sess.store.index.releaseSharedLatch(op.hash)
		op.latched = false
	}
	if op.counted {
		op.counted = false
		if ck := sess.store.active.Load(); ck != nil && ck.pendingV.Add(-1) == 0 {
			ck.checkPendingDone()
		}
	}
}

// regions of the HybridLog relative to a record address.
type region uint8

const (
	regNone region = iota
	regMutable
	regFuzzy
	regSafeRO
	regDisk
)

// findResult is the outcome of a hash-chain traversal: entry is the slot word
// the walk started from, and so what an install decided on this result must
// expect to find in the slot still — 0 when the key's tag has no entry, slot
// then being the free slot the probe passed (nil if none).
type findResult struct {
	slot  *atomic.Uint64
	entry uint64
	rec   hlog.RecordRef
	addr  uint64
	reg   region
}

// find walks the hash chain for op's key from the word the index probe
// returned. With skipFuture set, records of version op.version+1 are skipped: a
// version-v operation completing during the shift must not observe v+1 state
// (Sec. 6.2.3). When the walk reaches storage, the result region is regDisk:
// if the op already fetched that exact address, its private copy is attached;
// otherwise the caller must issue I/O for result.addr. An entry without an
// address — no entry at all, for a fresh key — is regNone before any log
// offset is loaded.
func (sess *Session) find(op *pendingOp, skipFuture bool) findResult {
	sh := sess.store
	slot, entry := sh.index.probe(op.hash, 0)
	addr := entryAddr(entry)
	if addr < hlog.FirstAddress {
		return findResult{slot: slot, entry: entry, reg: regNone}
	}
	head := sh.log.Head()
	ro := sh.log.ReadOnly()
	sro := sh.log.SafeReadOnly()
	begin := sh.log.Begin()
	for addr >= begin && addr >= hlog.FirstAddress {
		if addr < head {
			if op.ioRec.Valid() && op.ioAddr == addr {
				rec := op.ioRec
				if !rec.Invalid() &&
					!(skipFuture && sh.isFuture(rec.Version(), addr, op.version)) &&
					rec.KeyEquals(op.key) {
					return findResult{slot: slot, entry: entry, rec: rec, addr: addr, reg: regDisk}
				}
				addr = rec.Prev()
				op.ioRec = hlog.RecordRef{}
				op.diskResume = addr // chain above addr fully examined
				continue
			}
			if op.diskResume != 0 && addr > op.diskResume {
				// Skip the already-examined immutable prefix of the chain.
				addr = op.diskResume
				continue
			}
			return findResult{slot: slot, entry: entry, addr: addr, reg: regDisk}
		}
		rec := sh.log.Record(addr)
		if !rec.Invalid() &&
			!(skipFuture && sh.isFuture(rec.Version(), addr, op.version)) &&
			rec.KeyEquals(op.key) {
			reg := regSafeRO
			switch {
			case addr >= ro:
				reg = regMutable
			case addr >= sro:
				reg = regFuzzy
			}
			return findResult{slot: slot, entry: entry, rec: rec, addr: addr, reg: reg}
		}
		addr = rec.Prev()
	}
	return findResult{slot: slot, entry: entry, reg: regNone}
}

// issueIO asks for an async read of the record at addr and goes Pending. The
// read is queued from a parked record — at once for a retry, by park for the
// op being issued — so its completion lands there.
func (sess *Session) issueIO(op *pendingOp, addr uint64) Status {
	sess.store.metrics.ioReads.Inc()
	op.awaitingIO, op.ioAddr = true, addr
	if op != &sess.cur {
		sess.queueRead(op)
	}
	return Pending
}

// queueRead queues the read a parked op asked for; the queue goes to the I/O
// pool every storage.RunLen reads and whenever completeOnce runs. The op's
// cold-read state is not touched again until completeOnce has drained this
// read's completion.
func (sess *Session) queueRead(op *pendingOp) {
	if op.io == nil {
		op.io = &hlog.ColdRead{Done: func(rec hlog.RecordRef, err error) {
			op.ioRec, op.ioErr = rec, err
			sess.compMu.Lock()
			sess.completed = append(sess.completed, op)
			sess.ready.Add(1)
			sess.compMu.Unlock()
		}}
	}
	sess.ioQueue = sess.store.log.QueueRead(sess.ioQueue, op.ioAddr, op.io)
	if len(sess.ioQueue) >= storage.RunLen { // what one pool worker takes per wake-up
		sess.flushIO()
	}
}

// install is the one way a record reaches the index: append it at the log tail
// with the chain behind expected as its Prev, then swing slot from expected to
// it. expected is the slot word the caller's decision — the value, that the
// record is still live — was made on; the slot is never re-read, so a record
// published since that observation fails the compare-and-swap: the new record
// is orphaned (invalid) and the caller decides again. When the probe found no
// entry of the key's tag (expected 0, slot the free slot it passed, if any),
// the appended record's entry is created there: an entry of the tag created
// meanwhile fails it the same way. from, when set, is the mutable record the
// value was computed from.
func (sess *Session) install(hash uint64, slot *atomic.Uint64, expected uint64, version uint32, key, value []byte, tombstone bool, from *findResult) bool {
	epoch.YieldAt(epoch.SiteInstall)
	index := sess.store.index
	addr, rec := sess.store.log.Append(sess.guard, entryAddr(expected), recVersion(version), key, value,
		max(len(value), 8)) // keep small values in-place updatable
	if tombstone {
		rec.SetTombstone()
	}
	var ok bool
	switch entry := tagOf(hash) | addr; {
	case from != nil:
		// A copy of a record an update in place may still change: swapped in
		// under its latch, and only while it holds the value copied (see
		// update). Append may have refreshed this thread: if the record is no
		// longer mutable, a flush may be reading it, and the op re-runs.
		if from.addr < sess.store.log.ReadOnly() {
			break
		}
		epoch.YieldAt(epoch.SiteRecordLock)
		from.rec.Lock()
		ok = from.rec.HoldsValue(sess.seen) && slot.CompareAndSwap(expected, expected&^entryAddrMask|addr)
		from.rec.Unlock()
	case expected != 0:
		ok = slot.CompareAndSwap(expected, expected&^entryAddrMask|addr)
	case slot != nil:
		ok = index.claim(hash, slot, entry)
	default: // no free slot in the chain: extend it
		_, e := index.probe(hash, entry)
		ok = e == entry
	}
	if !ok {
		rec.SetInvalid()
	}
	return ok
}
