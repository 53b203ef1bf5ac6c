package kvserver

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/faster"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Server serves a CPR-enabled FASTER store over TCP. Each accepted
// connection runs a handler goroutine that owns one store session; idle
// connections still refresh their epoch entries periodically so in-flight
// commits can complete.
//
// The serving loop is allocation-free in steady state: frames are read into
// a per-connection reusable buffer, batch payloads are decoded arena-style
// (keys and values as sub-slices of the frame buffer), the session runs each op
// in its own working record and serves read values from its own buffer,
// and replies are gathered into a reusable buffer behind a coalescing writer.
type Server struct {
	// conns accepts and tracks the connections; its Close expires their reads,
	// so a handler hangs up at a frame boundary.
	conns *wire.Conns

	mu      sync.Mutex
	store   *faster.Store
	replica ReplicaBackend // non-nil while serving in replica mode

	// om holds the per-op latency-decomposition histogram handles, resolved
	// from the served store's registry (re-resolved on Promote). A connection
	// binds store, om and replica once, at its Hello (see backend).
	om opMetrics

	// AutoCommit, when positive, triggers a log-only commit at this cadence.
	AutoCommit time.Duration
	// IdleTimeout, when positive, reaps connections that go this long without
	// sending a frame: the connection is closed and its FASTER session
	// released, so abandoned clients stop pinning epoch entries and session
	// state. A reaped client reconnects into the same logical session via
	// Hello with its session ID. Zero disables reaping. Set before Serve.
	IdleTimeout time.Duration
	// Logger receives connection errors; defaults to the standard logger.
	Logger *log.Logger
	// ReplStats, when set, attaches a replication block to OpStats responses
	// (the replication server's progress on a primary; set automatically by
	// NewReplicaServer on a replica).
	ReplStats func() *ReplStats
	// Health, when set, attaches the health engine's verdict to OpStats
	// responses (wired to health.Engine.Verdict by cprserver when
	// -health-interval is on). Set before Serve.
	Health func() *health.Verdict

	// replyBytes is the reply buffer's byte cap, DefaultCoalesceBytes; tests
	// shrink it to split a batch's replies over several frames.
	replyBytes int
}

// Per-connection write coalescing (the MaxSyncLag idiom applied to reply
// frames): buffered replies are flushed to the socket beyond 64 KiB or 128
// reply frames, whichever trips first, and always before the connection blocks
// waiting for more requests — so a reply's lag behind its request is bounded by
// the pipeline the client itself keeps in flight.
const (
	DefaultCoalesceBytes = 64 << 10
	DefaultCoalesceOps   = 128
)

// ReplicaBackend is the read-only view a replica-mode server serves from
// (implemented by repl.Replica). Its methods must be internally synchronized
// against the replica's installs.
type ReplicaBackend interface {
	// Read returns key's value in the replica's installed prefix.
	Read(key []byte) (val []byte, found bool, err error)
	// RecoveredPoint returns the installed CPR point for a session ID.
	RecoveredPoint(id string) uint64
	// Upstream returns the primary's client-facing address for redirects
	// (may be empty when unknown).
	Upstream() string
	// Store exposes the replica's underlying store (stats snapshots).
	Store() *faster.Store
	// ReplStats describes the replica's replication progress.
	ReplStats() *ReplStats
}

// NewServer wraps an open store.
func NewServer(store *faster.Store) *Server {
	return &Server{
		store:      store,
		conns:      wire.NewConns(wire.ExpireRead),
		om:         resolveOpMetrics(store.Metrics()),
		Logger:     log.New(os.Stderr, "kvserver: ", log.LstdFlags),
		replyBytes: DefaultCoalesceBytes,
	}
}

// NewReplicaServer serves the read-only replica rb: reads come from the
// installed committed prefix, writes are rejected with StatusRedirect, and a
// Hello with a known session ID reports that session's installed CPR point.
// Promote later switches the same server to full primary service.
func NewReplicaServer(rb ReplicaBackend) *Server {
	s := NewServer(rb.Store())
	s.replica = rb
	s.ReplStats = rb.ReplStats
	return s
}

// Promote switches a replica-mode server to primary service over store (the
// replica's store after faster.Store.Promote). Open replica connections are
// closed so their clients reconnect into real sessions and learn their
// prefix-consistent CPR points; the auto-committer starts if configured.
func (s *Server) Promote(store *faster.Store) {
	s.mu.Lock()
	wasReplica := s.replica != nil
	s.store = store
	s.om = resolveOpMetrics(store.Metrics())
	s.replica = nil
	s.mu.Unlock()
	if wasReplica && s.AutoCommit > 0 {
		s.conns.Go(s.autoCommitter)
	}
	s.conns.Each(wire.CloseConn)
}

// backend returns what is served now: the store, its op metrics and, in
// replica mode, the replica backend. Promote swaps them and closes every open
// connection, so a connection keeps for its lifetime what it got at Hello.
func (s *Server) backend() (*faster.Store, opMetrics, ReplicaBackend) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store, s.om, s.replica
}

// Serve listens on addr (e.g. "127.0.0.1:0") and blocks accepting
// connections until Close. It returns the bound address via Addr.
func (s *Server) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if _, _, rb := s.backend(); rb == nil && s.AutoCommit > 0 {
		// A replica never commits on its own; Promote starts the committer.
		s.conns.Go(s.autoCommitter)
	}
	return s.conns.Serve(ln, s.handle)
}

// Addr returns the bound listen address (after Serve started).
func (s *Server) Addr() net.Addr { return s.conns.Addr() }

// Close stops the listener and waits for every in-flight handler to drain:
// handlers notice the closed flag at their next frame boundary, flush any
// coalesced replies, and close their own connections — a reply frame is
// never torn mid-write by shutdown. Reads blocked mid-frame are woken via an
// expired read deadline (tearing a *read* is safe; nothing was promised to
// the peer yet). The auto-committer stops with them.
func (s *Server) Close() { s.conns.Close() }

func (s *Server) autoCommitter() {
	t := time.NewTicker(s.AutoCommit)
	defer t.Stop()
	for {
		select {
		case <-s.conns.Done():
			return
		case <-t.C:
			// Log-only fold-over commits at the configured cadence; skipped
			// while another commit is still in flight.
			store, _, _ := s.backend()
			store.Commit(faster.CommitOptions{}) //nolint:errcheck
		}
	}
}

// idlePoll is how often an idle connection refreshes its session's epoch
// (and checks for server shutdown).
const idlePoll = 20 * time.Millisecond

// helloTimeout bounds how long a fresh connection may sit silent before its
// Hello; without it a dialed-but-mute client would pin a handler forever.
const helloTimeout = 30 * time.Second

// connState is a connection's reusable serving state: the store and op
// metrics it bound at Hello, buffered reader, coalescing writer, the
// frame/reply scratch buffers the zero-allocation loop reuses across requests,
// and the pending-read completion scratch the persistent readCB closure
// delivers into.
type connState struct {
	store *faster.Store
	om    opMetrics

	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	frame []byte // request frames are read into it (readFrameBuf)
	reply []byte // reply frames are built in place in it (openFrame)

	// unflushed counts per-op replies written into bw since the last flush
	// (the op-count half of the coalescing cap; batch frames count each
	// entry).
	unflushed int

	// Pending cold-read completion scratch: readCB (created once per
	// connection) copies the value here, execData consumes it.
	pendVal  []byte
	pendSt   faster.Status
	pendDone bool
	readCB   func(val []byte, st faster.Status)
}

// flushConn pushes coalesced replies to the socket and records the flush in
// the coalescing counters.
func (s *Server) flushConn(cs *connState) error {
	if cs.bw.Buffered() == 0 {
		cs.unflushed = 0
		return nil
	}
	cs.conn.SetWriteDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	if err := cs.bw.Flush(); err != nil {
		return err
	}
	cs.om.coalescedFlushes.Inc()
	cs.om.coalescedReplies.Add(uint64(cs.unflushed))
	cs.unflushed = 0
	return nil
}

// waitReadable blocks until the connection has readable bytes, polling at
// idlePoll so the session (if any) keeps refreshing its epoch entry —
// otherwise an idle client would stall every commit — and so server shutdown
// (or the stop condition) is noticed promptly. The deadline only ever gates
// the peek, which consumes nothing on timeout. A positive cap bounds the
// total wait.
func (s *Server) waitReadable(cs *connState, sess *faster.Session, cap time.Duration, stop func() bool) error {
	var deadline time.Time
	if cap > 0 {
		deadline = time.Now().Add(cap)
	}
	for {
		if s.conns.Closed() || (stop != nil && stop()) {
			return net.ErrClosed
		}
		cs.conn.SetReadDeadline(time.Now().Add(idlePoll)) //nolint:errcheck
		if _, err := cs.br.Peek(1); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if sess != nil {
					sess.Refresh()
					sess.CompletePending(false)
				}
				if cap > 0 && time.Now().After(deadline) {
					return err
				}
				continue
			}
			return err // connection closed
		}
		return nil
	}
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()

	cs := &connState{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 32<<10),
	}
	cs.bw = bufio.NewWriterSize(conn, s.replyBytes)
	cs.readCB = func(v []byte, st faster.Status) {
		cs.pendVal = append(cs.pendVal[:0], v...)
		cs.pendSt = st
		cs.pendDone = true
	}

	// The first frame must be Hello, binding the connection to a session.
	if err := s.waitReadable(cs, nil, helloTimeout, nil); err != nil {
		return
	}
	conn.SetReadDeadline(time.Now().Add(helloTimeout)) //nolint:errcheck
	op, _, payload, err := readFrameBuf(cs.br, &cs.frame)
	if err != nil || op != OpHello {
		return
	}
	clientID, rest, err := wire.TakeString(payload)
	if err != nil {
		return
	}
	// One version is spoken; the byte is an input check, not a negotiation. A
	// peer that omits it or offers another learns why and is hung up on before
	// any session exists.
	if len(rest) != 1 || rest[0] != ProtoV4 {
		why := fmt.Sprintf("this server speaks protocol v%d only; the hello offered % x", ProtoV4, rest)
		writeFrame(conn, OpHello, wire.AppendString([]byte{StatusError}, []byte(why))) //nolint:errcheck // hanging up either way
		return
	}
	id := string(clientID) // copy: payload aliases the reused frame buffer
	var rb ReplicaBackend
	if cs.store, cs.om, rb = s.backend(); rb != nil {
		s.handleReplica(cs, rb, id)
		return
	}
	var sess *faster.Session
	var cprPoint uint64
	if len(id) > 0 {
		sess, cprPoint = cs.store.ContinueSession(id)
	} else {
		sess = cs.store.StartSession()
	}
	defer sess.StopSession()
	if err := writeFrame(cs.bw, OpHello, helloReply(cprPoint, sess.ID())); err != nil {
		return
	}
	if err := s.flushConn(cs); err != nil {
		return
	}

	var at obs.ActiveTrace // per-connection scratch; armed per request by Begin
	for {
		// Coalescing invariant: replies may lag their requests by at most
		// DefaultCoalesceOps frames / replyBytes bytes while more requests are
		// already buffered (a pipelining client), and never lag past a quiet
		// boundary — the buffer is always flushed before blocking for input.
		if cs.br.Buffered() == 0 {
			if err := s.flushConn(cs); err != nil {
				return
			}
			if err := s.waitReadable(cs, sess, s.IdleTimeout, nil); err != nil {
				var ne net.Error
				if s.IdleTimeout > 0 && errors.As(err, &ne) && ne.Timeout() && !s.conns.Closed() {
					// Idle past the cap: reap the connection. The deferred
					// close + StopSession release the socket and the session's
					// epoch entry; the client's session state survives for a
					// reconnecting Hello.
					cs.om.idleReaps.Inc()
					s.Logger.Printf("conn %v: reaped after %v idle (session %s released)",
						conn.RemoteAddr(), s.IdleTimeout, sess.ID())
				}
				return
			}
		} else if cs.unflushed >= DefaultCoalesceOps || cs.bw.Buffered() >= s.replyBytes {
			if err := s.flushConn(cs); err != nil {
				return
			}
		}
		conn.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
		op, tc, payload, err := readFrameBuf(cs.br, &cs.frame)
		if err != nil {
			return // connection closed or protocol error
		}
		if err := s.dispatch(cs, sess, op, tc, payload, &at); err != nil {
			s.Logger.Printf("conn %v: %v", conn.RemoteAddr(), err)
			return
		}
	}
}

// helloReply is the payload of an accepted Hello's reply.
func helloReply(cprPoint uint64, sessionID string) []byte {
	return append(wire.AppendString(wire.AppendU64([]byte{StatusOK}, cprPoint), []byte(sessionID)), ProtoV4)
}

// dispatch wraps one request in a trace: the root span opens at frame receipt
// and closes after the response write, with queue/decode/exec/durwait/resp
// child spans recorded along the way. With no tracer configured the scratch
// stays disarmed and every span call is a single pointer test.
func (s *Server) dispatch(cs *connState, sess *faster.Session, op byte, tc obs.TraceContext, payload []byte, at *obs.ActiveTrace) error {
	rt := cs.store.RequestTracer()
	tRecv := time.Now().UnixNano()
	rt.Begin(at, tc, opName(op), sess.ID())
	if tc.IssuedUnixNanos > 0 {
		iss := tc.IssuedUnixNanos
		if iss > tRecv {
			iss = tRecv // client/server clock skew: clamp to zero length
		}
		at.Span(obs.SpanQueue, iss, tRecv, 0, 0, "")
		cs.om.queueNs.ObserveValue(uint64(tRecv - iss))
	}
	err := s.dispatchOp(cs, sess, op, payload, at, tRecv)
	rt.Finish(at, tRecv, time.Now().UnixNano())
	return err
}

func (s *Server) dispatchOp(cs *connState, sess *faster.Session, op byte, payload []byte, at *obs.ActiveTrace, tRecv int64) error {
	cs.conn.SetWriteDeadline(time.Unix(0, tRecv).Add(30 * time.Second)) //nolint:errcheck
	switch op {
	case OpBatch:
		return s.execBatch(cs, sess, payload, at, tRecv)
	case OpCommit:
		if len(payload) < 1 {
			return fmt.Errorf("commit: missing flags")
		}
		return s.awaitDurable(cs, sess, op, payload[0] != 0, at)
	case OpWaitDurable:
		return s.awaitDurable(cs, sess, op, false, at)
	case OpTrace:
		return s.writeTraceDump(cs.bw, cs.store, payload)
	case OpStats:
		return s.writeStats(cs.bw, cs.store)
	case OpFlight:
		return s.writeFlight(cs.bw, cs.store, payload)
	}
	return fmt.Errorf("unknown opcode %d", op)
}

// durableWaitCap bounds a COMMIT or WAITDUR: past it the request is answered
// StatusError.
const durableWaitCap = 25 * time.Second

// awaitDurable serves COMMIT and WAITDUR: it blocks until the session's
// committed point t_i covers every op the connection issued before the
// request, refreshing the session and completing its pending ops on each pass
// so the covering commit can advance. WAITDUR rides whatever commit gets there
// (the auto-committer's, another session's). COMMIT starts one, asked
// withIndex, on arrival and again whenever none is running while the session
// is not covered — so a COMMIT that joined a commit in which its session had
// already demarcated starts the next one — and also waits for the last commit
// it started to end. The reply is the committed serial and the covering
// commit's token, under StatusError when the server closes, the wait passes
// durableWaitCap, or a commit this request started fails: always a whole
// frame, never a torn one.
func (s *Server) awaitDurable(cs *connState, sess *faster.Session, op byte, withIndex bool, at *obs.ActiveTrace) error {
	// Push earlier pipelined replies out before a potentially long wait.
	if err := s.flushConn(cs); err != nil {
		return err
	}
	target := sess.Serial()
	start := time.Now()
	status := StatusOK
	started := "" // the commit this request started, until it ends
	for pass := 0; ; pass++ {
		if started != "" {
			if res, done := cs.store.TryResult(started); done {
				if res.Err != nil {
					status = StatusError
					break
				}
				started = ""
			}
		}
		covered := sess.CommittedSerial() >= target
		if op == OpCommit && started == "" && (pass == 0 || !covered) {
			token, err := cs.store.Commit(faster.CommitOptions{WithIndex: withIndex})
			if err == nil {
				started = token
			} else if err != faster.ErrCommitInProgress {
				status = StatusError
				break
			}
		}
		if started == "" && covered {
			break
		}
		if s.conns.Closed() || time.Since(start) > durableWaitCap {
			status = StatusError
			break
		}
		sess.Refresh()
		sess.CompletePending(false)
		time.Sleep(100 * time.Microsecond)
	}
	tWait, tDone := start.UnixNano(), time.Now().UnixNano()
	committed, token := sess.CommittedSerial(), sess.CommittedToken()
	at.Span(obs.SpanDurWait, tWait, tDone, target, committed, token)
	cs.om.durwaitNs.ObserveValue(uint64(tDone - tWait))
	frame := append(openFrame(cs.reply, op, obs.TraceContext{}), status)
	frame = wire.AppendString(wire.AppendU64(frame, committed), []byte(token))
	cs.reply = frame[:0]
	_, err := cs.bw.Write(wire.Seal(frame))
	cs.unflushed++
	at.Span(obs.SpanRespWrite, tDone, time.Now().UnixNano(), uint64(len(frame)-wire.Hdr), 0, "")
	return err
}

// execData runs one data op of a BATCH on the connection's session and maps
// what the store said to a wire status. A Pending op is driven to completion
// first; a cold read's value arrives through the connection's persistent
// callback scratch, so the steady-state path allocates nothing;
// CompletePending counts a write that fails there. out is the value a GET
// found (nil otherwise), valid until the session's next op.
func (s *Server) execData(cs *connState, sess *faster.Session, op byte, key, val []byte) (out []byte, status byte) {
	var st faster.Status
	switch op {
	case OpGet:
		cs.pendDone = false
		out, st = sess.Read(key, cs.readCB)
	case OpSet:
		st = sess.Upsert(key, val)
	case OpRMW:
		st = sess.RMW(key, val)
	case OpDelete:
		st = sess.Delete(key)
	}
	if st == faster.Pending {
		st = faster.Ok
		if sess.CompletePending(true) > 0 {
			st = faster.Error
		}
		if op == OpGet {
			if !cs.pendDone {
				return nil, StatusError
			}
			out, st = cs.pendVal, cs.pendSt
		}
	}
	switch st {
	case faster.Ok:
		return out, StatusOK
	case faster.NotFound:
		return nil, StatusNotFound
	}
	return nil, StatusError
}

// execBatch serves one BATCH frame: ops are decoded arena-style from the
// frame buffer, issued in order, and their replies gathered in the same order
// into the reused reply buffer; the in-memory steady state allocates nothing
// per op. The clock
// is read once before the ops and once after them (faster_op_exec_ns takes the
// ops at their mean in one update), between them only for exec spans while the
// trace has room; a read after the first is one vDSO call (time.Since), not
// two. A reply run past the coalescing byte cap leaves as its own frame (inside
// the timed window), bounding buffered reply memory for huge batches.
func (s *Server) execBatch(cs *connState, sess *faster.Session, payload []byte, at *obs.ActiveTrace, tRecv int64) error {
	r, err := newBatchReader(payload)
	if err != nil {
		return err
	}
	om := &cs.om
	om.batches.Inc()
	om.batchDepth.ObserveValue(uint64(r.count))
	sess.Refresh() // one epoch refresh up front: a commit never waits a whole batch for this session
	start := time.Now()
	tBatch := start.UnixNano()
	at.Span(obs.SpanDecode, tRecv, tBatch, uint64(r.count), 0, "")
	byteCap := s.replyBytes
	reply := openBatchReply(cs.reply)
	count := 0 // entries in the current reply run
	sent := 0  // reply frames already emitted (split batches)
	t0 := tBatch
	for i := 0; i < r.count; i++ {
		op, seq, key, val, err := r.next()
		if err != nil {
			cs.reply = reply[:0]
			return err
		}
		out, status := s.execData(cs, sess, op, key, val)
		if op == OpGet {
			reply = appendBatchValueResult(reply, seq, status, out)
		} else {
			reply = appendBatchSerialResult(reply, seq, status, sess.Serial())
		}
		if at.Remaining() > 2 { // the batch and resp-write spans take the last two slots
			t1 := tBatch + int64(time.Since(start))
			at.Span(obs.SpanExec, t0, t1, sess.Serial(), 0, "")
			t0 = t1
		}
		count++
		if len(reply) >= byteCap {
			if _, err := cs.bw.Write(sealBatchReply(reply, count)); err != nil {
				cs.reply = reply[:0]
				return err
			}
			cs.unflushed += count
			sent++
			reply = openBatchReply(reply)
			count = 0
		}
	}
	tEnd := tBatch + int64(time.Since(start))
	om.execNs.ObserveN(uint64(tEnd-tBatch)/uint64(max(r.count, 1)), uint64(r.count))
	at.Span(obs.SpanBatch, tBatch, tEnd, uint64(r.count), uint64(len(reply)), "")
	if count > 0 || sent == 0 {
		_, err := cs.bw.Write(sealBatchReply(reply, count))
		cs.unflushed += count
		at.Span(obs.SpanRespWrite, tEnd, tBatch+int64(time.Since(start)), uint64(len(reply)), 0, "")
		cs.reply = reply[:0]
		return err
	}
	cs.reply = reply[:0]
	return nil
}

// replyJSON is the tail of every introspection reply: doc as a u32-prefixed
// JSON document under StatusOK, or — when unavailable names why there is no
// document, or doc does not marshal — StatusError with the reason.
func replyJSON(w io.Writer, op byte, doc any, unavailable string) error {
	status, body := StatusOK, []byte(unavailable)
	if unavailable != "" {
		status = StatusError
	} else if buf, err := json.Marshal(doc); err != nil {
		status = StatusError
	} else {
		body = buf
	}
	return writeFrame(w, op, wire.AppendValue([]byte{status}, body))
}

// writeTraceDump sends the OpTrace response: the request tracer's retained
// slow-request span trees plus global replication spans as JSON.
func (s *Server) writeTraceDump(w io.Writer, store *faster.Store, payload []byte) error {
	n := 16
	if len(payload) >= 2 {
		n = int(binary.LittleEndian.Uint16(payload))
	}
	rt := store.RequestTracer()
	if rt == nil {
		return replyJSON(w, OpTrace, nil, "request tracer disabled")
	}
	return replyJSON(w, OpTrace, rt.Dump(n, store.Flight()), "")
}

// writeFlight sends the OpFlight response: the store's flight-recorder
// contents as an obs.FlightDump JSON document, filtered to events whose
// commit token matches the requested token when one is given.
func (s *Server) writeFlight(w io.Writer, store *faster.Store, payload []byte) error {
	var token string
	if len(payload) > 0 {
		tok, _, err := wire.TakeString(payload)
		if err != nil {
			return err
		}
		token = string(tok)
	}
	fr := store.Flight()
	if fr == nil {
		return replyJSON(w, OpFlight, nil, "flight recorder disabled")
	}
	dump := fr.Dump()
	dump.Events = obs.FilterFlightEvents(dump.Events, token)
	return replyJSON(w, OpFlight, dump, "")
}

// writeStats marshals and sends the OpStats response for store.
func (s *Server) writeStats(w io.Writer, store *faster.Store) error {
	snap := StatsSnapshot{
		V:        StatsVersion,
		Version:  store.Version(),
		Phase:    store.Phase().String(),
		Sessions: store.SessionCount(),
		Metrics:  store.Metrics().Snapshot(),
	}
	lg := store.Log()
	snap.Log = LogStats{Begin: lg.Begin(), Head: lg.Head(), SafeReadOnly: lg.SafeReadOnly(),
		ReadOnly: lg.ReadOnly(), Durable: lg.Durable(), Tail: lg.Tail()}
	if s.ReplStats != nil {
		snap.Repl = s.ReplStats()
	}
	if s.Health != nil {
		snap.Health = s.Health()
	}
	snap.SessionLags = store.SessionLags()
	return replyJSON(w, OpStats, snap, "")
}

// handleReplica runs a connection against the replica backend: reads are
// served from the installed committed prefix; writes get StatusRedirect with
// the primary's address. The loop ends (closing the connection) when the
// server is promoted, so clients reconnect into real sessions. Replies are
// written straight through (no coalescing): replica read traffic is not
// pipelined by the fallback client, and promotion must not strand buffered
// replies.
func (s *Server) handleReplica(cs *connState, rb ReplicaBackend, clientID string) {
	conn := cs.conn
	if err := writeFrame(conn, OpHello, helloReply(rb.RecoveredPoint(clientID), clientID)); err != nil {
		return
	}
	promoted := func() bool { _, _, rb := s.backend(); return rb == nil }
	for {
		if err := s.waitReadable(cs, nil, 0, promoted); err != nil {
			return
		}
		conn.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
		op, _, payload, err := readFrameBuf(cs.br, &cs.frame)
		if err != nil {
			return
		}
		if promoted() {
			return // promoted mid-stream: force the client to reconnect
		}
		if err := s.dispatchReplica(conn, rb, op, payload); err != nil {
			s.Logger.Printf("replica conn %v: %v", conn.RemoteAddr(), err)
			return
		}
	}
}

func (s *Server) dispatchReplica(conn net.Conn, rb ReplicaBackend, op byte, payload []byte) error {
	conn.SetWriteDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	switch op {
	case OpBatch:
		return s.replicaBatch(conn, rb, payload)
	case OpCommit, OpWaitDurable:
		// Durability waits belong on the primary; tell the client where to go.
		return writeFrame(conn, op, wire.AppendString([]byte{StatusRedirect}, []byte(rb.Upstream())))
	case OpStats:
		return s.writeStats(conn, rb.Store())
	case OpFlight:
		return s.writeFlight(conn, rb.Store(), payload)
	case OpTrace:
		return s.writeTraceDump(conn, rb.Store(), payload)
	}
	return fmt.Errorf("unknown opcode %d", op)
}

// replicaBatch serves a BATCH frame in replica mode: a read-only batch is
// served from the installed prefix; a batch containing any write is
// redirected whole — mixing served reads with redirected writes would tear
// the client's pipeline in half.
func (s *Server) replicaBatch(conn net.Conn, rb ReplicaBackend, payload []byte) error {
	scan, err := newBatchReader(payload)
	if err != nil {
		return err
	}
	for i := 0; i < scan.count; i++ {
		op, _, _, _, err := scan.next()
		if err != nil {
			return err
		}
		if op != OpGet {
			return writeFrame(conn, OpBatch,
				wire.AppendString([]byte{StatusRedirect}, []byte(rb.Upstream())))
		}
	}
	r, err := newBatchReader(payload)
	if err != nil {
		return err
	}
	frame := openBatchReply(nil)
	for i := 0; i < r.count; i++ {
		_, seq, key, _, err := r.next()
		if err != nil {
			return err
		}
		status := StatusOK
		val, found, err := rb.Read(key)
		if err != nil {
			status = StatusError
		} else if !found {
			status = StatusNotFound
		}
		frame = appendBatchValueResult(frame, seq, status, val)
	}
	_, err = conn.Write(sealBatchReply(frame, r.count))
	return err
}
