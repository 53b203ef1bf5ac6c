package kvserver

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// DefaultCallTimeout bounds each client call's network I/O unless the caller
// overrides Client.Timeout. Generous, because Commit legitimately waits for
// a full checkpoint to become durable.
const DefaultCallTimeout = 30 * time.Second

// RedirectError is returned for writes sent to a read-only replica: retry
// against Addr (the primary), or Reconnect there after a failover.
type RedirectError struct{ Addr string }

// Error implements error.
func (e *RedirectError) Error() string {
	return fmt.Sprintf("kvserver: server is a read-only replica (primary at %q)", e.Addr)
}

// Client is a synchronous client for one server session. It is not safe for
// concurrent use (a session is a single logical thread); open one Client per
// goroutine, as the paper opens one session per thread.
//
// The connection owns one grow-only buffer per direction: a request frame is
// built in place in wbuf and leaves in one Write, and a reply is read through
// br into rbuf, its body aliasing rbuf until the next call. Get, Set, RMW and
// Delete are one-op flushes of the client's own Pipeline (Get's value is that
// pipeline's arena) — so a steady-state round trip allocates nothing.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
	rbuf []byte
	tc   obs.TraceContext // the request in flight (zero when untraced)
	pipe *Pipeline        // Get/Set/RMW/Delete's pipeline, made on first use
	// err is sticky: after a timeout or a protocol error the late reply may
	// still arrive, and the next call would take it for its own. Every call
	// fails with err until Reconnect.
	err error

	addr     string
	id       string
	cprPoint uint64
	nextSeq  uint64 // last batch sequence number issued (Pipeline)
	// Timeout bounds each call's network I/O (request write + response
	// read), so a dead server surfaces as an error instead of hanging the
	// session forever. Zero disables deadlines.
	Timeout time.Duration
	// Tracer, when set, records a client-side root span per call, so the
	// server's span tree (sharing the same trace ID) nests under the
	// client-observed request latency.
	Tracer *obs.RequestTracer
}

// Dial connects and performs the Hello handshake. A non-empty clientID
// resumes that session after a server restart; the returned CPRPoint is the
// serial up to which the session's operations are durable (0 for new
// sessions). An empty clientID starts a fresh session whose server-assigned
// ID is available via ID.
func Dial(addr, clientID string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, DefaultCallTimeout)
	if err != nil {
		return nil, err
	}
	// A reply frame is normally at most the server's coalescing cap, so a
	// reader that size takes it in one read.
	c := &Client{conn: conn, br: bufio.NewReaderSize(conn, DefaultCoalesceBytes),
		addr: addr, Timeout: DefaultCallTimeout}
	c.id, c.cprPoint, err = c.hello(clientID)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// hello runs the handshake: the client ID and the version byte go out in an
// untraced frame; the reply is the session's CPR point, its ID and the version
// byte again, or an error status with the server's reason for refusing.
func (c *Client) hello(clientID string) (id string, point uint64, err error) {
	frame := append(wire.AppendString(wire.Open(c.wbuf, OpHello), []byte(clientID)), ProtoV4)
	status, resp, err := c.call(frame)
	if err != nil {
		return "", 0, fmt.Errorf("kvserver: handshake failed: %w", err)
	}
	if status != StatusOK {
		reason, _, _ := wire.TakeString(resp) //nolint:errcheck // an unreadable reason is an empty one
		return "", 0, fmt.Errorf("kvserver: handshake refused: %s", reason)
	}
	point, rest, err := wire.TakeU64(resp)
	if err != nil {
		return "", 0, err
	}
	sid, rest, err := wire.TakeString(rest)
	if err != nil {
		return "", 0, err
	}
	if len(rest) != 1 || rest[0] != ProtoV4 {
		return "", 0, fmt.Errorf("%w (its hello reply ends in % x)", ErrProtoVersion, rest)
	}
	return string(sid), point, nil
}

// ID returns the session ID (use it to resume after reconnecting).
func (c *Client) ID() string { return c.id }

// CPRPoint returns the recovered commit point from the most recent
// handshake: the serial up to which this session's operations are durable.
// After Reconnect it reflects the new server's recovered state — the offset
// from which to replay input.
func (c *Client) CPRPoint() uint64 { return c.cprPoint }

// Close closes the connection (the server stops the session).
func (c *Client) Close() error { return c.conn.Close() }

// Reconnect re-dials with the same client ID and refreshes CPRPoint from the
// new server's handshake. addr selects a different server (a promoted
// replica after failover, or a RedirectError's primary); "" re-dials the
// previous address. The old connection is closed. On error the client keeps
// its previous connection state (likely dead; call Reconnect again).
func (c *Client) Reconnect(addr string) error {
	if addr == "" {
		addr = c.addr
	}
	nc, err := Dial(addr, c.id)
	if err != nil {
		return err
	}
	nc.Timeout = c.Timeout
	nc.Tracer = c.Tracer
	c.conn.Close()
	*c = *nc
	return nil
}

// open begins op's request frame in the client's write buffer, under a fresh
// trace context; the caller appends the payload and hands the frame to call.
func (c *Client) open(op byte) []byte { return openFrame(c.wbuf, op, c.trace()) }

// trace starts the trace context of the next exchange: every frame a client
// sends after the handshake carries one. ParentSpan 1 is the ID Begin assigns
// to this client's own root span (see traced), so the server's tree nests under
// the client-observed call.
func (c *Client) trace() obs.TraceContext {
	c.tc = obs.TraceContext{TraceID: obs.NewTraceID(), ParentSpan: 1, IssuedUnixNanos: time.Now().UnixNano()}
	return c.tc
}

// send seals a request frame and writes it in one call. d bounds the whole
// exchange, reply included (zero: unbounded): every exchange sets the
// connection's deadline anew, so none needs clearing afterwards.
func (c *Client) send(frame []byte, d time.Duration) error {
	if c.err != nil {
		return c.err
	}
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	c.conn.SetDeadline(deadline) //nolint:errcheck
	if _, err := c.conn.Write(wire.Seal(frame)); err != nil {
		return c.fail(err)
	}
	return nil
}

// fail makes err sticky (see Client.err), unless it is a redirect: that is a
// whole reply, and leaves the stream in step.
func (c *Client) fail(err error) error {
	var redirect *RedirectError
	if !errors.As(err, &redirect) {
		c.err = fmt.Errorf("kvserver: connection out of step after a failed call, Reconnect to resume: %w", err)
	}
	return err
}

// recv reads one reply frame for op into the client's frame buffer and splits
// off its status.
func (c *Client) recv(op byte) (byte, []byte, error) {
	rop, _, resp, err := readFrameBuf(c.br, &c.rbuf)
	switch {
	case err != nil:
	case rop != op:
		err = fmt.Errorf("kvserver: response opcode %d for request %d", rop, op)
	case len(resp) < 1:
		err = fmt.Errorf("kvserver: empty response")
	case resp[0] == StatusRedirect:
		primary, _, _ := wire.TakeString(resp[1:]) //nolint:errcheck // an unreadable address is an unknown one
		return 0, nil, &RedirectError{Addr: string(primary)}
	default:
		return resp[0], resp[1:], nil
	}
	return 0, nil, err
}

// traced records the finished exchange as a root-only client trace: span 1 is
// the client-observed window [issue, reply read]; the server's spans (IDs from
// 2) nest under it. No child spans here — their IDs would collide with the
// server's.
func (c *Client) traced(op byte) {
	if c.Tracer != nil && c.tc.TraceID != 0 {
		var at obs.ActiveTrace
		c.Tracer.Begin(&at, obs.TraceContext{TraceID: c.tc.TraceID}, opName(op), c.id)
		c.Tracer.Finish(&at, c.tc.IssuedUnixNanos, time.Now().UnixNano())
	}
}

// call sends the request frame begun with open and returns the reply's status
// and body; the body aliases the client's frame buffer until the next call.
func (c *Client) call(frame []byte) (byte, []byte, error) {
	c.wbuf = frame[:0]
	op := frame[wire.Hdr-1] &^ frameFlagTrace // the header's last byte
	if err := c.send(frame, c.Timeout); err != nil {
		return 0, nil, err
	}
	status, resp, err := c.recv(op)
	c.traced(op)
	if err != nil {
		return 0, nil, c.fail(err)
	}
	return status, resp, nil
}

// one runs a single data op as a one-op flush of the client's own pipeline:
// a BATCH frame is the only frame that carries data ops.
func (c *Client) one(op byte, key, val []byte) (BatchResult, error) {
	if c.pipe == nil {
		c.pipe = c.Pipeline()
	}
	c.pipe.add(op, key, val)
	res, err := c.pipe.Flush()
	if err != nil {
		return BatchResult{}, err
	}
	return res[0], nil
}

// Get reads key. found is false when the key does not exist. val is the
// client's buffer, valid until this client's next call: copy it to keep it.
func (c *Client) Get(key []byte) (val []byte, found bool, err error) {
	r, err := c.one(OpGet, key, nil)
	switch {
	case err != nil:
		return nil, false, err
	case r.Status == StatusNotFound:
		return nil, false, nil
	case r.Status != StatusOK:
		return nil, false, fmt.Errorf("kvserver: get failed")
	}
	return r.Value, true, nil
}

// Set blindly writes key=val and returns the operation's serial number.
func (c *Client) Set(key, val []byte) (uint64, error) {
	return c.mutate(OpSet, key, val)
}

// RMW applies the store's read-modify-write with input to key.
func (c *Client) RMW(key, input []byte) (uint64, error) {
	return c.mutate(OpRMW, key, input)
}

func (c *Client) mutate(op byte, key, val []byte) (uint64, error) {
	r, err := c.one(op, key, val)
	if err != nil {
		return 0, err
	}
	if r.Status != StatusOK {
		return 0, fmt.Errorf("kvserver: op %d failed (status %d)", op, r.Status)
	}
	return r.Serial, nil
}

// Delete removes key. found is false when the key did not exist.
func (c *Client) Delete(key []byte) (found bool, err error) {
	r, err := c.one(OpDelete, key, nil)
	if err != nil {
		return false, err
	}
	switch r.Status {
	case StatusOK:
		return true, nil
	case StatusNotFound:
		return false, nil
	}
	return false, fmt.Errorf("kvserver: delete failed")
}

// Commit requests a CPR commit (withIndex takes a full checkpoint) and
// blocks until this session's operations so far are durable, returning its
// CPR point: all of this client's operations with serial <= point survived.
// The server starts a commit, or joins the one in flight, and starts more
// until one covers the session.
func (c *Client) Commit(withIndex bool) (uint64, error) {
	var flags byte
	if withIndex {
		flags = 1
	}
	point, _, err := c.awaitDurable(append(c.open(OpCommit), flags), "commit failed")
	return point, err
}

// WaitDurable blocks until every operation issued on this session so far is
// covered by a durable commit (riding the auto-committer or a peer's commit
// rather than forcing one), returning the committed serial and the covering
// commit's token — the cross-link into flight-recorder events and trace
// durwait spans. On a replica it returns a RedirectError.
func (c *Client) WaitDurable() (uint64, string, error) {
	return c.awaitDurable(c.open(OpWaitDurable), "wait-durable timed out")
}

// awaitDurable runs a COMMIT or WAITDUR exchange; both are answered with the
// session's committed serial and the covering commit's token. failed words
// the error of a reply under an error status.
func (c *Client) awaitDurable(frame []byte, failed string) (uint64, string, error) {
	status, resp, err := c.call(frame)
	if err != nil {
		return 0, "", err
	}
	serial, rest, err := wire.TakeU64(resp)
	if err != nil {
		return 0, "", err
	}
	token, _, err := wire.TakeString(rest)
	if err != nil {
		return 0, "", err
	}
	if status != StatusOK {
		return serial, "", fmt.Errorf("kvserver: %s at serial %d", failed, serial)
	}
	return serial, string(token), nil
}

// callJSON runs an introspection call: the reply is a u32-prefixed JSON
// document, decoded into v, or on an error status the server's reason.
func (c *Client) callJSON(frame []byte, what string, v any) error {
	status, resp, err := c.call(frame)
	if err != nil {
		return err
	}
	doc, _, verr := wire.TakeValue(resp)
	if status != StatusOK {
		if verr == nil && len(doc) > 0 {
			return fmt.Errorf("kvserver: %s failed: %s", what, doc)
		}
		return fmt.Errorf("kvserver: %s failed", what)
	}
	if verr != nil {
		return verr
	}
	if err := json.Unmarshal(doc, v); err != nil {
		return fmt.Errorf("kvserver: %s payload: %w", what, err)
	}
	return nil
}

// Trace fetches the server's retained slow-request span trees (at most n;
// n <= 0 means server default). Returns an error when the server runs without
// a request tracer.
func (c *Client) Trace(n int) (obs.TraceDump, error) {
	var dump obs.TraceDump
	frame := c.open(OpTrace)
	if n > 0 {
		if n > 0xffff {
			n = 0xffff
		}
		frame = append(frame, byte(n), byte(n>>8)) // u16 LE
	}
	err := c.callJSON(frame, "trace", &dump)
	return dump, err
}

// Stats fetches the server's introspection snapshot: store state, the
// HybridLog's offsets, the full metrics registry and, when the server
// runs a health engine, its verdict.
func (c *Client) Stats() (StatsSnapshot, error) {
	var snap StatsSnapshot
	if err := c.callJSON(c.open(OpStats), "stats", &snap); err != nil {
		return snap, err
	}
	if snap.V != StatsVersion {
		return snap, fmt.Errorf("kvserver: stats schema v%d, want v%d", snap.V, StatsVersion)
	}
	return snap, nil
}

// Flight fetches the server's flight-recorder contents: the causal event
// timeline the store has been recording, filtered to events carrying the
// given commit token when token is non-empty. Returns an error when the
// server runs without a flight recorder.
func (c *Client) Flight(token string) (obs.FlightDump, error) {
	var dump obs.FlightDump
	err := c.callJSON(wire.AppendString(c.open(OpFlight), []byte(token)), "flight", &dump)
	return dump, err
}
