// Package kvserver provides a TCP server and client for a CPR-enabled
// FASTER store. Each connection owns one store session, so the paper's
// session model maps directly onto the network: a client reconnecting with
// its client ID resumes via ContinueSession and learns its recovered CPR
// point — the offset from which to replay its input.
//
// Wire format: length-prefixed binary frames, stdlib only.
//
//	frame  := u32 length | u8 opcode | payload
//	string := u16 len | bytes
//	value  := u32 len | bytes
//
// Requests carry an opcode from the Op* set; responses echo a status byte
// followed by an opcode-specific payload.
package kvserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/faster"
	"repro/internal/health"
	"repro/internal/obs"
)

// Opcodes. Opcode values stay below 0x80: the high bit of the frame's opcode
// byte is the trace flag (see frameFlagTrace).
const (
	OpHello  byte = 1 // payload: clientID string [+ u8 proto] -> resp: u64 CPR point, id string [+ u8 proto]
	OpGet    byte = 2 // payload: key string       -> resp: value
	OpSet    byte = 3 // payload: key string, value -> resp: u64 serial
	OpRMW    byte = 4 // payload: key string, value -> resp: u64 serial
	OpDelete byte = 5 // payload: key string       -> resp: u64 serial
	OpCommit byte = 6 // payload: u8 withIndex     -> resp: u64 CPR point
	OpStats  byte = 7 // payload: none             -> resp: StatsSnapshot JSON
	OpFlight byte = 8 // payload: token string (may be empty) -> resp: obs.FlightDump JSON
	// OpTrace fetches the server's retained slow-request span trees.
	OpTrace byte = 9 // payload: u16 maxTraces -> resp: obs.TraceDump JSON
	// OpWaitDurable blocks until the session's committed point t_i covers
	// every operation issued on this connection so far, piggybacking on
	// whatever commit (auto-committer or another session's) gets there first.
	// The response names the covering commit.
	OpWaitDurable byte = 10 // payload: none -> resp: u64 committed serial, token string
	// OpBatch (v3) carries N pipelined data ops in one frame. Request payload:
	// u32 count, then per op: u8 opcode | u64 seq | key string [| value]
	// (value present for OpSet/OpRMW only). Response payload: u8 status; on
	// StatusOK a u32 count and per op u64 seq | u8 status | result (value for
	// GET on StatusOK, u64 serial for SET/RMW/DELETE); on StatusRedirect the
	// primary's address string. A server may split one request's replies
	// across several OpBatch frames (each self-contained with its own count);
	// the client reads frames until every seq is answered, in issue order.
	OpBatch byte = 11
	// OpHealth fetches the server's health verdict — the health engine's
	// detector-by-detector state. Errors when no engine is wired.
	OpHealth byte = 12 // payload: none -> resp: health.Verdict JSON
)

// Protocol versions, negotiated at Hello. A v1 Hello omits the proto byte;
// peers on either side that never saw this field keep speaking v1 frames
// (plain opcodes), so old and new binaries interoperate in both directions.
// v2 adds the optional per-frame trace field (frameFlagTrace). v3 adds the
// OpBatch pipelined frame. Each side offers its highest version; the server
// echoes min(offered, supported), so every pair lands on the highest protocol
// both speak and neither ever sends a frame the other cannot parse.
const (
	ProtoV1 byte = 1
	ProtoV2 byte = 2
	ProtoV3 byte = 3
)

// frameFlagTrace, set on the frame's opcode byte, means a 24-byte trace
// field — trace ID u64, parent span u64, issued-at unix nanos u64 — sits
// between the opcode and the payload. Only sent after both sides negotiated
// ProtoV2 (a v1 peer would read the flagged opcode as unknown).
const (
	frameFlagTrace = byte(0x80)
	traceFieldLen  = 24
)

// StatsVersion is the current StatsSnapshot schema version; bump on any
// incompatible change so clients can reject snapshots they do not understand.
const StatsVersion = 1

// StatsSnapshot is the OpStats response payload: a versioned JSON document
// carrying store state, HybridLog offsets, and the full metrics registry.
type StatsSnapshot struct {
	V          uint32       `json:"v"`
	Version    uint32       `json:"version"` // CPR version
	Phase      string       `json:"phase"`
	LogTail    uint64       `json:"log_tail"`
	LogDurable uint64       `json:"log_durable"`
	LogHead    uint64       `json:"log_head"`
	Sessions   int          `json:"sessions"`
	Metrics    obs.Snapshot `json:"metrics"`
	// Shards carries per-shard state on a partitioned store (absent when the
	// store is unsharded — an additive field, so StatsVersion stays 1). The
	// top-level log offsets then refer to shard 0.
	Shards []ShardStats `json:"shards,omitempty"`
	// Repl carries replication state when the server participates in
	// replication (absent otherwise — additive, StatsVersion stays 1).
	Repl *ReplStats `json:"repl,omitempty"`
	// SessionLags reports per-session durability lag — how far each session's
	// issued serial runs ahead of its committed CPR point t_i, and for how
	// long (absent when no sessions exist — additive, StatsVersion stays 1).
	SessionLags []faster.SessionLag `json:"session_lags,omitempty"`
	// Restore carries instant-restore progress after a Config.InstantRestore
	// recovery: warm/cold bucket counts, sweeper progress and per-shard
	// time-to-warm. Absent when the store was never instant-restored —
	// additive, StatsVersion stays 1. Final statistics remain available after
	// the store is fully warm (Restoring=false).
	Restore *faster.RestoreStatus `json:"restore,omitempty"`
	// Health carries the health engine's verdict when one is wired (absent
	// otherwise — additive, StatsVersion stays 1).
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
	// BytesBehind is the log volume (across shards) the primary has made
	// durable but the replica has not yet received.
	BytesBehind uint64 `json:"bytes_behind"`
}

// ShardStats is one shard's slice of a StatsSnapshot.
type ShardStats struct {
	Version    uint32 `json:"version"`
	Phase      string `json:"phase"`
	LogTail    uint64 `json:"log_tail"`
	LogDurable uint64 `json:"log_durable"`
	LogHead    uint64 `json:"log_head"`
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

// maxFrame bounds a frame to keep a malicious peer from forcing huge
// allocations.
const maxFrame = 16 << 20

// ErrFrameTooLarge is returned (wrapped) when a peer announces a frame larger
// than maxFrame; the connection is failed cleanly instead of attempting the
// allocation. Match with errors.Is.
var ErrFrameTooLarge = errors.New("kvserver: frame exceeds maximum size")

// ErrBadFrame is returned (wrapped) for structurally invalid frames — zero
// length, or a trace-flagged frame too short to hold the trace field. Match
// with errors.Is.
var ErrBadFrame = errors.New("kvserver: malformed frame")

// frameHdr is a frame's fixed prefix: u32 length | u8 opcode.
const frameHdr = 5

// Every frame — client request, single-op reply, batch reply — is built in
// place in a buffer its connection owns (one per direction, grow-only) and
// leaves in one Write: openFrame resets buf to a header placeholder, with the
// 24-byte trace field behind it when tc carries a trace (TraceID != 0; only on
// connections that negotiated ProtoV2), the caller appends the payload, and
// sealFrame patches the length. A header on the stack would escape through the
// io.Writer interface and cost an allocation and a second write per frame.
func openFrame(buf []byte, opcode byte, tc obs.TraceContext) []byte {
	buf = append(buf[:0], 0, 0, 0, 0, opcode)
	if tc.TraceID != 0 {
		buf[4] |= frameFlagTrace
		buf = appendU64(appendU64(appendU64(buf, tc.TraceID), tc.ParentSpan), uint64(tc.IssuedUnixNanos))
	}
	return buf
}

// sealFrame patches the length of a frame begun with openFrame and returns it
// ready to write.
func sealFrame(frame []byte) []byte {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame
}

// writeFrame sends opcode+payload as one untraced frame built in a fresh
// buffer: for the handshake and the JSON introspection replies, which have no
// steady state to keep allocation-free.
func writeFrame(w io.Writer, opcode byte, payload []byte) error {
	_, err := w.Write(sealFrame(append(openFrame(nil, opcode, obs.TraceContext{}), payload...)))
	return err
}

// readFrameBuf reads one frame into the caller-owned *buf (grown only when a
// frame exceeds its capacity, so a steady-state loop reads without allocating)
// and returns its opcode (trace flag cleared), the trace context (zero when
// the frame carries none) and the payload, which aliases *buf and is valid
// until the next call.
func readFrameBuf(r io.Reader, buf *[]byte) (byte, obs.TraceContext, []byte, error) {
	var tc obs.TraceContext
	// The length header is read into *buf too: a stack array here would
	// escape through the io.Reader interface and cost an allocation per call.
	if cap(*buf) < 4 {
		*buf = make([]byte, 64)
	}
	hdr := (*buf)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, tc, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 {
		return 0, tc, nil, fmt.Errorf("%w: zero frame length", ErrBadFrame)
	}
	if n > maxFrame {
		return 0, tc, nil, fmt.Errorf("%w: %d bytes (max %d)", ErrFrameTooLarge, n, maxFrame)
	}
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, tc, nil, err
	}
	op := b[0]
	body := b[1:]
	if op&frameFlagTrace != 0 {
		op &^= frameFlagTrace
		if len(body) < traceFieldLen {
			return 0, tc, nil, fmt.Errorf("%w: trace-flagged frame too short (%d bytes)", ErrBadFrame, len(body))
		}
		tc.TraceID = binary.LittleEndian.Uint64(body)
		tc.ParentSpan = binary.LittleEndian.Uint64(body[8:])
		tc.IssuedUnixNanos = int64(binary.LittleEndian.Uint64(body[16:]))
		body = body[traceFieldLen:]
	}
	return op, tc, body, nil
}

func appendString(dst []byte, s []byte) []byte {
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(s)))
	return append(append(dst, l[:]...), s...)
}

func takeString(b []byte) ([]byte, []byte, error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("kvserver: truncated string")
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b) < 2+n {
		return nil, nil, fmt.Errorf("kvserver: truncated string body")
	}
	return b[2 : 2+n], b[2+n:], nil
}

func appendValue(dst []byte, v []byte) []byte {
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(v)))
	return append(append(dst, l[:]...), v...)
}

func takeValue(b []byte) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("kvserver: truncated value")
	}
	n := int(binary.LittleEndian.Uint32(b))
	if len(b) < 4+n {
		return nil, nil, fmt.Errorf("kvserver: truncated value body")
	}
	return b[4 : 4+n], b[4+n:], nil
}

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func takeU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("kvserver: truncated u64")
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}
