package inlog

import (
	"encoding/binary"
	"fmt"

	"repro/internal/hlog"
)

// Op identifies the store operation an ingested record carries.
type Op byte

// Record operations, mirroring the FASTER session surface.
const (
	OpRMW    Op = 1
	OpUpsert Op = 2
	OpDelete Op = 3
)

// String implements fmt.Stringer.
func (op Op) String() string {
	switch op {
	case OpRMW:
		return "rmw"
	case OpUpsert:
		return "upsert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", byte(op))
}

// Message is the payload of one ingestion record: a single store operation.
// Wire form: op(1) | uvarint(klen) | key | value. Value is the RMW input
// for OpRMW, the new value for OpUpsert, and empty for OpDelete.
type Message struct {
	Op    Op
	Key   []byte
	Value []byte
}

// EncodeMessage appends m's wire form to dst and returns the extended slice.
func EncodeMessage(dst []byte, m Message) []byte {
	return appendMessageBody(append(dst, byte(m.Op)), m)
}

// appendMessageBody appends what follows the op byte. On the ingest wire the
// op byte is the frame's opcode, so a sender opens the frame with it and adds
// the body.
func appendMessageBody(dst []byte, m Message) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Key)))
	dst = append(dst, m.Key...)
	return append(dst, m.Value...)
}

// DecodeMessage parses one message. Key and Value alias buf. A key the store
// cannot hold is malformed: the server refuses such a message before it is
// logged, so no replay reaches it.
func DecodeMessage(buf []byte) (Message, error) {
	if len(buf) < 2 {
		return Message{}, fmt.Errorf("inlog: message too short (%d bytes)", len(buf))
	}
	op := Op(buf[0])
	switch op {
	case OpRMW, OpUpsert, OpDelete:
	default:
		return Message{}, fmt.Errorf("inlog: unknown op %d", buf[0])
	}
	klen, w := binary.Uvarint(buf[1:])
	if w <= 0 {
		return Message{}, fmt.Errorf("inlog: malformed key length")
	}
	rest := buf[1+w:]
	if klen > uint64(len(rest)) {
		return Message{}, fmt.Errorf("inlog: key length %d exceeds message (%d bytes)", klen, len(buf))
	}
	if klen == 0 || klen > hlog.MaxKeyLen {
		return Message{}, fmt.Errorf("inlog: key length %d out of the store's range [1,%d]", klen, hlog.MaxKeyLen)
	}
	return Message{Op: op, Key: rest[:klen], Value: rest[klen:]}, nil
}
