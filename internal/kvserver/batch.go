package kvserver

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Batch codec (protocol v3). An OpBatch request carries N pipelined data ops
// with client-assigned sequence numbers; the reply carries one entry per op,
// in the same order. Both directions are built as append-style encoders over
// caller-owned buffers so the steady-state path encodes and decodes without
// allocating: the server parses ops as sub-slices of the (reused) frame
// buffer and gathers replies into a per-connection (reused) reply buffer.
//
//	request payload  := u32 count | count * (u8 opcode | u64 seq | key string [| value])
//	reply payload    := u8 status | u32 count | count * (u64 seq | u8 status | result)
//
// The value field is present only for OpSet/OpRMW requests. A reply result is
// a value (only on StatusOK) for OpGet and a u64 serial for OpSet/OpRMW/
// OpDelete. A reply whose leading status is StatusRedirect carries the
// primary's address string instead of entries (the whole batch was rejected
// by a read-only replica).

// maxBatchOps bounds the op count a single BATCH frame may claim, so a
// malicious count cannot drive a huge reply allocation. The frame length
// itself is already bounded by wire.MaxFrame.
const maxBatchOps = 1 << 16

// ErrBadBatch is returned (wrapped) for structurally invalid batch payloads.
// The connection is failed: mid-batch corruption leaves no way to resync.
var ErrBadBatch = errors.New("kvserver: malformed batch")

// batchOpBytes is the minimum encoding of one batch op: opcode, seq, and an
// empty key string.
const batchOpBytes = 1 + 8 + 2

// appendBatchOp encodes one op onto a batch request body (the part after the
// u32 count). val is ignored for opcodes that carry no value.
func appendBatchOp(dst []byte, op byte, seq uint64, key, val []byte) []byte {
	dst = append(dst, op)
	dst = wire.AppendU64(dst, seq)
	dst = wire.AppendString(dst, key)
	if op == OpSet || op == OpRMW {
		dst = wire.AppendValue(dst, val)
	}
	return dst
}

// batchReader iterates a batch request payload. Keys and values are
// sub-slices of the payload (arena-style decode): valid only while the
// underlying frame buffer is.
type batchReader struct {
	body  []byte
	count int
}

// newBatchReader validates the count header against the payload size.
func newBatchReader(payload []byte) (batchReader, error) {
	n, body, err := wire.TakeU32(payload)
	if err != nil {
		return batchReader{}, fmt.Errorf("%w: %v", ErrBadBatch, err)
	}
	if n > maxBatchOps {
		return batchReader{}, fmt.Errorf("%w: %d ops (max %d)", ErrBadBatch, n, maxBatchOps)
	}
	if int(n)*batchOpBytes > len(body) {
		return batchReader{}, fmt.Errorf("%w: %d ops in %d bytes", ErrBadBatch, n, len(body))
	}
	return batchReader{body: body, count: int(n)}, nil
}

// next decodes the next op. val is nil for opcodes that carry no value.
func (r *batchReader) next() (op byte, seq uint64, key, val []byte, err error) {
	if len(r.body) < batchOpBytes {
		return 0, 0, nil, nil, fmt.Errorf("%w: truncated op", ErrBadBatch)
	}
	op = r.body[0]
	seq = binary.LittleEndian.Uint64(r.body[1:])
	key, rest, err := wire.TakeString(r.body[9:])
	if err != nil {
		return 0, 0, nil, nil, fmt.Errorf("%w: %v", ErrBadBatch, err)
	}
	switch op {
	case OpSet, OpRMW:
		val, rest, err = wire.TakeValue(rest)
		if err != nil {
			return 0, 0, nil, nil, fmt.Errorf("%w: %v", ErrBadBatch, err)
		}
	case OpGet, OpDelete:
	default:
		return 0, 0, nil, nil, fmt.Errorf("%w: opcode %d not batchable", ErrBadBatch, op)
	}
	r.body = rest
	return op, seq, key, val, nil
}

// appendBatchValueResult encodes a GET reply entry: the value is present only
// on StatusOK.
func appendBatchValueResult(dst []byte, seq uint64, status byte, val []byte) []byte {
	dst = wire.AppendU64(dst, seq)
	dst = append(dst, status)
	if status == StatusOK {
		dst = wire.AppendValue(dst, val)
	}
	return dst
}

// appendBatchSerialResult encodes a SET/RMW/DELETE reply entry.
func appendBatchSerialResult(dst []byte, seq uint64, status byte, serial uint64) []byte {
	dst = wire.AppendU64(dst, seq)
	dst = append(dst, status)
	return wire.AppendU64(dst, serial)
}

// openBatchReply begins a batch reply frame in frame: the frame header, then
// u8 StatusOK | u32 count placeholder. Append entries after it and call
// sealBatchReply before writing it out.
func openBatchReply(frame []byte) []byte {
	return wire.AppendU32(append(openFrame(frame, OpBatch, obs.TraceContext{}), StatusOK), 0)
}

// sealBatchReply patches the entry count and the frame length.
func sealBatchReply(frame []byte, count int) []byte {
	binary.LittleEndian.PutUint32(frame[wire.Hdr+1:], uint32(count))
	return wire.Seal(frame)
}
