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
package repl

// Opcodes.
const (
	// opHello (replica→primary): u32 appliedVersion | u32 shards |
	// shards × u64 have (per-shard device coverage watermark).
	opHello byte = 1
	// opWelcome (primary→replica): string clientAddr | u32 latestVersion |
	// u32 shards | shards × (u64 begin | u64 start | u64 durable). start is
	// the offset the primary will stream from; a replica with a larger
	// watermark rewinds (the primary re-ships state its own recovery
	// rewrote).
	opWelcome byte = 2
	// opChunk (primary→replica): u32 shard | u64 offset | raw log bytes.
	opChunk byte = 3
	// opArtifact (primary→replica): string name | u32 total | u32 offset |
	// bytes. Artifacts arrive in ≤ artifactChunk pieces; the replica
	// persists the artifact when the last piece lands.
	opArtifact byte = 4
	// opCommit (primary→replica): string token | u32 version | u8 kind |
	// u32 shards | shards × (u64 end | u64 floor). Every artifact and every
	// log byte the commit needs precedes this frame on the stream.
	opCommit byte = 5
	// opTail (primary→replica): u32 latestVersion | u32 shards |
	// shards × u64 durable. Heartbeat + lag accounting.
	opTail byte = 6
	// opError (either direction): string message. The connection closes.
	opError byte = 7
)

// chunkSize is how much of the log tail one opChunk carries.
const chunkSize = 256 << 10

// artifactChunk is how much of an artifact one opArtifact carries.
const artifactChunk = 1 << 20
