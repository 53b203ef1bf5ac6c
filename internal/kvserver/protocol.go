// Package kvserver provides a TCP server and client for a CPR-enabled
// FASTER store. Each connection owns one store session, so the paper's
// session model maps directly onto the network: a client reconnecting with
// its client ID resumes via ContinueSession and learns its recovered CPR
// point — the offset from which to replay its input.
//
// Wire format: internal/wire's length-prefixed frames (u32 length | u8 opcode
// | payload; string := u16 len | bytes, value := u32 len | bytes). Requests
// carry an opcode from the Op* set; responses echo a status byte followed by
// an opcode-specific payload.
package kvserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/faster"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Opcodes. Opcode values stay below 0x80: the high bit of the frame's opcode
// byte is the trace flag (see frameFlagTrace).
const (
	OpHello byte = 1 // payload: clientID string, u8 ProtoV4 -> resp: u64 CPR point, id string, u8 ProtoV4; refused: StatusError, reason string
	// The data ops travel only inside an OpBatch frame, one entry each; a
	// frame with one of them as its opcode closes the connection.
	OpGet    byte = 2 // entry: key string        -> result: value
	OpSet    byte = 3 // entry: key string, value -> result: u64 serial
	OpRMW    byte = 4 // entry: key string, value -> result: u64 serial
	OpDelete byte = 5 // entry: key string        -> result: u64 serial
	// OpCommit and OpWaitDurable block until the session's committed point
	// t_i covers every op issued on this connection before them, and reply
	// with the committed serial and the token of the covering commit.
	// OpWaitDurable rides whatever commit (auto-committer or another
	// session's) gets there; OpCommit starts one (a full checkpoint if
	// withIndex) on arrival and whenever none is running while the session is
	// not covered, and waits for the last one it started to end.
	OpCommit      byte = 6  // payload: u8 withIndex -> resp: u64 committed serial, token string
	OpWaitDurable byte = 10 // payload: none         -> resp: u64 committed serial, token string
	OpStats       byte = 7  // payload: none         -> resp: StatsSnapshot JSON
	OpFlight      byte = 8  // payload: token string (may be empty) -> resp: obs.FlightDump JSON
	// OpTrace fetches the server's retained slow-request span trees.
	OpTrace byte = 9 // payload: u16 maxTraces -> resp: obs.TraceDump JSON
	// OpBatch carries N pipelined data ops in one frame, and is the only
	// frame that carries any. Request payload: u32 count, then per op: u8
	// opcode | u64 seq | key string [| value] (value present for OpSet/OpRMW
	// only). Response payload: u8 status; on StatusOK a u32 count and per op
	// u64 seq | u8 status | result (value for GET on StatusOK, u64 serial for
	// SET/RMW/DELETE); on StatusRedirect the primary's address string. A
	// server may split one request's replies across several OpBatch frames
	// (each self-contained with its own count); the client reads frames until
	// every seq is answered, in issue order.
	OpBatch byte = 11
)

// ProtoV4 is the one protocol version: data ops only in OpBatch frames,
// COMMIT and WAITDUR answered alike, the optional trace field on any frame. A
// Hello carries it as its last byte and the reply echoes it; nothing is
// negotiated — a server refuses a Hello that omits the byte or offers another
// (a v3 peer's 3 among them) with a StatusError reply, and Dial refuses a reply
// that does not echo it (ErrProtoVersion).
const ProtoV4 byte = 4

// ErrProtoVersion is returned (wrapped) by Dial when the server's Hello reply
// carries no version byte or one other than ProtoV4. Match with errors.Is.
var ErrProtoVersion = errors.New("kvserver: server does not speak protocol v4")

// frameFlagTrace, set on the frame's opcode byte, means a 24-byte trace
// field — trace ID u64, parent span u64, issued-at unix nanos u64 — sits
// between the opcode and the payload.
const (
	frameFlagTrace = byte(0x80)
	traceFieldLen  = 24
)

// StatsVersion is the current StatsSnapshot schema version; bump on any
// incompatible change so clients can reject snapshots they do not understand.
// Version 2 dropped the shard entries' version and phase: a store has one
// state machine, so they always equal the top-level ones. Version 3 carried log
// offsets only in a "shards" array, one entry per shard. Version 4 carries
// them in "log": a store has one log.
const StatsVersion = 4

// StatsSnapshot is the OpStats response payload: a versioned JSON document
// carrying store state, the HybridLog's offsets, and the full metrics
// registry — with FLIGHT and TRACE, everything `fasterctl why` shows.
type StatsSnapshot struct {
	V        uint32       `json:"v"`
	Version  uint32       `json:"version"` // CPR version
	Phase    string       `json:"phase"`
	Sessions int          `json:"sessions"`
	Metrics  obs.Snapshot `json:"metrics"`
	// Log carries the HybridLog's offsets.
	Log LogStats `json:"log"`
	// Repl carries replication state when the server participates in
	// replication (absent otherwise).
	Repl *ReplStats `json:"repl,omitempty"`
	// SessionLags reports per-session durability lag — how far each session's
	// issued serial runs ahead of its committed CPR point t_i, and for how
	// long (absent when no sessions exist).
	SessionLags []faster.SessionLag `json:"session_lags,omitempty"`
	// Health carries the health engine's verdict when one is wired (absent
	// otherwise).
	Health *health.Verdict `json:"health,omitempty"`
}

// ReplStats is the StatsSnapshot "repl" block: the server's replication role
// and, on a replica, how far it trails its upstream primary.
type ReplStats struct {
	Role     string `json:"role"`               // "primary" or "replica"
	Upstream string `json:"upstream,omitempty"` // replica: the primary's replication address
	Replicas int    `json:"replicas,omitempty"` // primary: currently connected replicas
	// AppliedVersion is the CPR version of the replica's installed commit
	// (on a primary: its own current version).
	AppliedVersion uint32 `json:"applied_version"`
	// VersionsBehind is the primary's latest committed version minus
	// AppliedVersion (0 on a primary).
	VersionsBehind uint32 `json:"versions_behind"`
	// BytesBehind is the log volume the primary has made
	// durable but the replica has not yet received.
	BytesBehind uint64 `json:"bytes_behind"`
}

// LogStats is the StatsSnapshot "log" block: the HybridLog's offsets, from
// its begin to its tail (Sec. 5.1's regions: on the device below head,
// read-only up to read_only, mutable above it).
type LogStats struct {
	Begin        uint64 `json:"begin"`
	Head         uint64 `json:"head"`
	SafeReadOnly uint64 `json:"safe_read_only"`
	ReadOnly     uint64 `json:"read_only"`
	Durable      uint64 `json:"durable"`
	Tail         uint64 `json:"tail"`
}

// Response status bytes.
const (
	StatusOK       byte = 0
	StatusNotFound byte = 1
	StatusError    byte = 2
	// StatusRedirect rejects a write on a read-only replica; the payload is
	// the primary's client address (may be empty if unknown).
	StatusRedirect byte = 3
)

// Every frame — client request, reply, batch reply — is built in
// place in a buffer its connection owns and leaves in one Write; the layout of
// a frame and of the scalars in it belongs to internal/wire. What this package
// adds is the trace field: openFrame is wire.Open with the 24-byte field behind
// the header when tc carries a trace (TraceID != 0), readFrameBuf is wire.Read
// with the field split off again.
func openFrame(buf []byte, opcode byte, tc obs.TraceContext) []byte {
	if tc.TraceID == 0 {
		return wire.Open(buf, opcode)
	}
	buf = wire.Open(buf, opcode|frameFlagTrace)
	return wire.AppendU64(wire.AppendU64(wire.AppendU64(buf, tc.TraceID), tc.ParentSpan), uint64(tc.IssuedUnixNanos))
}

// writeFrame sends opcode+payload as one untraced frame built in a fresh
// buffer: for the handshake and the JSON introspection replies, which have no
// steady state to keep allocation-free.
func writeFrame(w io.Writer, opcode byte, payload []byte) error {
	_, err := w.Write(wire.Seal(append(wire.Open(nil, opcode), payload...)))
	return err
}

// readFrameBuf reads one frame into the caller-owned *buf (see wire.Read) and
// returns its opcode (trace flag cleared), the trace context (zero when the
// frame carries none) and the payload, which aliases *buf and is valid until
// the next call.
func readFrameBuf(r io.Reader, buf *[]byte) (byte, obs.TraceContext, []byte, error) {
	var tc obs.TraceContext
	op, body, err := wire.Read(r, buf)
	if err != nil || op&frameFlagTrace == 0 {
		return op, tc, body, err
	}
	if len(body) < traceFieldLen {
		return 0, tc, nil, fmt.Errorf("%w: trace-flagged frame too short (%d bytes)", wire.ErrBadFrame, len(body))
	}
	tc.TraceID = binary.LittleEndian.Uint64(body)
	tc.ParentSpan = binary.LittleEndian.Uint64(body[8:])
	tc.IssuedUnixNanos = int64(binary.LittleEndian.Uint64(body[16:]))
	return op &^ frameFlagTrace, tc, body[traceFieldLen:], nil
}
