// Package wire owns the byte layout of a frame, the unit every TCP protocol in
// this tree speaks — kvserver's client protocol, repl's replication stream and
// inlog's ingest protocol — and the scalar encodings their payloads are built
// from; and Conns, the skeleton the three servers accept, track and close their
// connections through. Standard library only: what an opcode means, and
// anything a protocol layers on the opcode byte (kvserver's trace flag), is the
// caller's business.
//
//	frame  := u32 length | u8 opcode | payload    (length counts opcode + payload)
//	string := u16 len | bytes
//	value  := u32 len | bytes
//
// All integers are little-endian.
//
// A connection owns one grow-only buffer per direction. A frame is built in
// place in the write buffer — Open, the Append* calls, Seal — and leaves in one
// Write; Read fills the read buffer and hands out a payload that aliases it
// until the next Read, so whoever keeps bytes past that copies them out. In
// steady state neither direction allocates.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrame bounds a frame's announced length, to keep a malicious or broken
// peer from forcing a huge allocation.
const MaxFrame = 16 << 20

// Hdr is the size of a frame's fixed prefix: u32 length | u8 opcode.
const Hdr = 5

// ErrFrameTooLarge is returned (wrapped) by Read when a peer announces a frame
// larger than MaxFrame; nothing is allocated for it. Match with errors.Is.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// ErrBadFrame is returned (wrapped) for a structurally invalid frame or field:
// a zero frame length, a scalar cut short. Match with errors.Is.
var ErrBadFrame = errors.New("wire: malformed frame")

// Open resets buf to the header of a frame with the given opcode, its length
// still to come; the caller appends the payload and hands the frame to Seal. A
// header built on the stack instead would escape through the io.Writer
// interface and cost an allocation and a second write per frame.
func Open(buf []byte, opcode byte) []byte {
	return append(buf[:0], 0, 0, 0, 0, opcode)
}

// Seal patches the length of a frame begun with Open and returns it ready to
// write.
func Seal(frame []byte) []byte {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame
}

// Read reads one frame into the caller-owned *buf — grown only when a frame
// exceeds its capacity — and returns its opcode and its payload. The payload
// aliases *buf, where the opcode byte sits right before it, and is valid until
// the next Read.
func Read(r io.Reader, buf *[]byte) (opcode byte, payload []byte, err error) {
	// The length is read into *buf too: a stack array would escape through the
	// io.Reader interface and cost an allocation per call.
	if cap(*buf) < 4 {
		*buf = make([]byte, 64)
	}
	hdr := (*buf)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 {
		return 0, nil, fmt.Errorf("%w: zero frame length", ErrBadFrame)
	}
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: %d bytes (max %d)", ErrFrameTooLarge, n, MaxFrame)
	}
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, nil, err
	}
	return b[0], b[1:], nil
}

// AppendU32 appends a little-endian u32.
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// AppendU64 appends a little-endian u64.
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendString appends s behind a u16 length.
func AppendString(dst, s []byte) []byte {
	return append(binary.LittleEndian.AppendUint16(dst, uint16(len(s))), s...)
}

// AppendValue appends v behind a u32 length.
func AppendValue(dst, v []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(v))), v...)
}

// TakeU32 consumes a little-endian u32 and returns the rest of b.
func TakeU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("%w: truncated u32", ErrBadFrame)
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}

// TakeU64 consumes a little-endian u64 and returns the rest of b.
func TakeU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("%w: truncated u64", ErrBadFrame)
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

// TakeString consumes a u16-prefixed string — a view into b — and returns the
// rest of b.
func TakeString(b []byte) (s, rest []byte, err error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("%w: truncated string", ErrBadFrame)
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b) < 2+n {
		return nil, nil, fmt.Errorf("%w: truncated string body", ErrBadFrame)
	}
	return b[2 : 2+n], b[2+n:], nil
}

// TakeValue consumes a u32-prefixed value — a view into b — and returns the
// rest of b.
func TakeValue(b []byte) (v, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("%w: truncated value", ErrBadFrame)
	}
	n := int(binary.LittleEndian.Uint32(b))
	if len(b)-4 < n {
		return nil, nil, fmt.Errorf("%w: truncated value body", ErrBadFrame)
	}
	return b[4 : 4+n], b[4+n:], nil
}
