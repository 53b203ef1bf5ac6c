// Package inlog is the durable ingestion log in front of the FASTER store:
// clients append operation records, an fsync policy makes them durable, and
// acks carry the record's logical offset. An apply pump drains durable
// records into a dedicated FASTER session and, at every CPR commit, persists
// the highest log offset contained in the committed prefix as the watermark
// section of that commit's record.
// Segments wholly below the watermark are truncated after the commit; after
// a crash, recovery restores the store to its last verified commit and
// replays only the log suffix above the recovered watermark — each acked
// record applied exactly once.
//
// The log is segmented: records live in fixed-threshold segments named by
// the logical offset of their first record, each a storage.Device so the
// fault injector and the SyncBufferDevice page-cache model layer underneath
// unchanged (see Config.WrapDevice). Within a segment the unit of I/O is the
// group: every record appended between two fsyncs is written as one frame.
package inlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Group frame: a 24-byte header followed by the body.
//
//	magic  "ILG2"      4 bytes
//	crc    uint32 LE   4 bytes — CRC32-C over everything after this field
//	base   uint64 LE   8 bytes — logical offset of the group's first record
//	count  uint32 LE   4 bytes — records in the group (>= 1)
//	length uint32 LE   4 bytes — body bytes
//	body               count x ( uvarint(len) | payload )
//
// The CRC covers the base offset, so bytes recycled from an earlier
// (crashed) write at the same file position can never masquerade as a
// different group: a frame is valid only at the exact logical offset the
// reader expects next. This is what makes logical truncation safe — the
// torn tail of a crashed group write is simply overwritten, and any stale
// bytes beyond the new extent fail to parse on the next open.
const (
	frameMagic  = "ILG2"
	frameHeader = 24
	// maxGroupBytes bounds one frame (its length field is 32 bits); Append
	// refuses to buffer past it.
	maxGroupBytes = 1 << 30
	// oldRecordMagic opened every record of the per-record format this frame
	// replaced; a segment carrying it is refused, never truncated.
	oldRecordMagic = "ILR1"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errTorn marks bytes that do not parse as the expected next group. Under
// the log's append-only discipline with one ordered write+fsync per group,
// such bytes can only be the torn tail of the last crashed write (or stale
// garbage beyond it), never acked data; openers truncate at the first
// occurrence.
var errTorn = errors.New("inlog: torn group")

// ErrOldFormat is returned by Open when a segment holds records in the
// per-record "ILR1" framing of earlier versions.
var ErrOldFormat = errors.New("inlog: old per-record ILR1 segment format, not readable by this version")

// appendRecord appends one record's body encoding to dst.
func appendRecord(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// sealFrame fills in the header of frame, whose first frameHeader bytes are
// reserved and whose remainder is the body of count records starting at
// logical offset base.
func sealFrame(frame []byte, base uint64, count int) {
	copy(frame[0:4], frameMagic)
	binary.LittleEndian.PutUint64(frame[8:16], base)
	binary.LittleEndian.PutUint32(frame[16:20], uint32(count))
	binary.LittleEndian.PutUint32(frame[20:24], uint32(len(frame)-frameHeader))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Update(0, castagnoli, frame[8:]))
}

// Group iterates the records of one decoded frame, in offset order.
type Group struct {
	next, end uint64 // logical offsets [next, end) remain
	body      []byte // their encodings; aliases the buffer the frame was read into
}

// Offset returns the logical offset of the record the next call to Next
// yields (one past the group's last record once it is exhausted).
func (g *Group) Offset() uint64 { return g.next }

// Next returns the payload of the next record (aliasing the read buffer),
// or false when the group is exhausted.
func (g *Group) Next() ([]byte, bool) {
	if g.next == g.end {
		return nil, false
	}
	n, w := binary.Uvarint(g.body)
	payload := g.body[w : w+int(n)] // in bounds: parseFrame walked the body
	g.body = g.body[w+int(n):]
	g.next++
	return payload, true
}

// parseFrame decodes the frame at the start of buf, which must hold the
// group whose first record has logical offset want. It returns the group
// (aliasing buf) and the total frame size. Every deviation — short header,
// bad magic, wrong base, no records, body running past the buffer, CRC
// mismatch, records that do not tile the body exactly — is errTorn.
func parseFrame(buf []byte, want uint64) (Group, int, error) {
	if len(buf) < frameHeader || string(buf[0:4]) != frameMagic {
		return Group{}, 0, errTorn
	}
	if binary.LittleEndian.Uint64(buf[8:16]) != want {
		return Group{}, 0, errTorn
	}
	count := binary.LittleEndian.Uint32(buf[16:20])
	length := binary.LittleEndian.Uint32(buf[20:24])
	if count == 0 || uint64(length) > uint64(len(buf)-frameHeader) {
		return Group{}, 0, errTorn
	}
	n := frameHeader + int(length)
	if binary.LittleEndian.Uint32(buf[4:8]) != crc32.Update(0, castagnoli, buf[8:n]) {
		return Group{}, 0, errTorn
	}
	body := buf[frameHeader:n]
	rest := body
	for i := uint32(0); i < count; i++ {
		sz, w := binary.Uvarint(rest)
		if w <= 0 || sz > uint64(len(rest)-w) {
			return Group{}, 0, errTorn
		}
		rest = rest[w+int(sz):]
	}
	if len(rest) != 0 {
		return Group{}, 0, errTorn
	}
	return Group{next: want, end: want + uint64(count), body: body}, n, nil
}

// groupRef locates one group inside its segment.
type groupRef struct {
	first uint64 // logical offset of the group's first record
	pos   int64  // byte position of its frame
}

// scanFrames walks the frames at the start of buf, the contents of the
// segment based at base. It returns one ref per valid group, the logical
// offset one past the last valid record, and the bytes those groups cover.
// err is nil when they cover buf exactly, ErrOldFormat when the segment
// opens with the old record magic, and errTorn otherwise.
func scanFrames(buf []byte, base uint64) (index []groupRef, end uint64, valid int64, err error) {
	end = base
	pos := 0
	for pos < len(buf) {
		g, n, err := parseFrame(buf[pos:], end)
		if err != nil {
			// Only at byte 0: further in, bytes that fail to parse are the
			// stale remains of torn writes and may hold anything, payloads
			// included; an old-format segment starts with an old record.
			if pos == 0 && bytes.HasPrefix(buf, []byte(oldRecordMagic)) {
				err = ErrOldFormat
			}
			return index, end, int64(pos), err
		}
		index = append(index, groupRef{first: end, pos: int64(pos)})
		end = g.end
		pos += n
	}
	return index, end, int64(pos), nil
}
