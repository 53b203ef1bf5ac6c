// Package repl implements CPR-consistent replication for the FASTER store:
// a primary-side Server that streams completed checkpoint artifacts and the
// durable HybridLog tail to replicas, and a replica-side Replica that stages
// the stream invisibly and installs completed commits atomically, so the
// replica's visible state always equals some committed CPR prefix of the
// primary (the paper's single-node recovery contract, stretched across two
// machines).
//
// Wire format: internal/wire's frames (u32 length | u8 opcode | payload) and
// scalars (string := u16 len | bytes), little-endian.
//
// The replica speaks first (opHello), the primary answers with opWelcome and
// from then on the stream is one-directional: log chunks and artifacts are
// staging data, opCommit makes a prefix visible, opTail carries lag info.
// Only fold-over commits are announced (faster.ErrSnapshotCommit), so a
// replica is only ever at a fold-over commit.
package repl

// Opcodes.
const (
	// opHello (replica→primary): u32 appliedVersion | u64 have (the
	// replica's device coverage watermark).
	opHello byte = 1
	// opWelcome (primary→replica): string clientAddr | u32 latestVersion |
	// u64 begin | u64 start | u64 durable. start is
	// the offset the primary will stream from; a replica with a larger
	// watermark rewinds (the primary re-ships state its own recovery
	// rewrote).
	opWelcome byte = 2
	// opChunk (primary→replica): u64 offset | raw log bytes.
	opChunk byte = 3
	// opArtifact (primary→replica): string name | bytes. An artifact is its
	// payload in consecutive frames of at most chunkSize bytes, then one frame
	// with no bytes, sent once the primary's read of the artifact verified its
	// envelope. No other frame comes between them. The replica writes the
	// bytes as they arrive through storage.WriteArtifactStream, so its copy
	// has the primary's envelope, and publishes it at the empty frame only.
	opArtifact byte = 4
	// opCommit (primary→replica): string token | u32 version | u64 end. Every
	// artifact and every log byte the commit needs precedes this frame on the
	// stream: the log up to its end.
	opCommit byte = 5
	// opTail (primary→replica): u32 latestVersion | u64 durable. Heartbeat +
	// lag accounting.
	opTail byte = 6
	// opError (either direction): string message. The connection closes.
	opError byte = 7
)

// chunkSize is how much of the log tail one opChunk carries, and how much of
// an artifact one opArtifact carries: the most either side holds of either.
const chunkSize = 256 << 10
