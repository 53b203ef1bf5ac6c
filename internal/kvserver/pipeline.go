package kvserver

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/wire"
)

// BatchResult is one op's outcome from a flushed Pipeline, in issue order.
type BatchResult struct {
	Seq    uint64 // the client-assigned sequence number returned at issue time
	Op     byte   // OpGet / OpSet / OpRMW / OpDelete
	Status byte   // StatusOK / StatusNotFound / StatusError
	Value  []byte // GET result (nil unless Status == StatusOK)
	Serial uint64 // session serial for SET/RMW/DELETE
}

// Pipeline accumulates data ops and sends them as one BATCH frame,
// amortizing the network round-trip — and, server-side, the epoch
// protection — across the whole run. Replies come back per op, matched in
// issue order by sequence number.
//
// A Pipeline is reusable: Flush resets it for the next run, retaining its
// buffers. It is bound to its Client and shares its single-logical-thread
// rule. Results are valid until the next Flush: Value slices point into an
// arena the pipeline refills per Flush (not into the client's frame buffer —
// one batch's replies may arrive split over several frames).
type Pipeline struct {
	c *Client

	// Timeout bounds one whole Flush — the batch write plus every reply
	// frame (the per-batch deadline). Zero falls back to c.Timeout.
	Timeout time.Duration

	// buf is the BATCH frame under construction: pipeHdrRoom bytes the frame
	// header (trace field included) is written into at Flush, the u32 count,
	// then the encoded ops.
	buf     []byte
	meta    []pipeMeta
	results []BatchResult
	arena   []byte
}

const (
	pipeHdrRoom = wire.Hdr + traceFieldLen
	pipeBody    = pipeHdrRoom + 4
)

// pipeMeta remembers, per queued op, what its reply entry must answer.
type pipeMeta struct {
	op  byte
	seq uint64
}

// Pipeline returns a new empty pipeline on this client.
func (c *Client) Pipeline() *Pipeline {
	return &Pipeline{c: c, buf: make([]byte, pipeBody, 256)}
}

// Len returns the number of ops queued since the last Flush.
func (p *Pipeline) Len() int { return len(p.meta) }

func (p *Pipeline) add(op byte, key, val []byte) uint64 {
	p.c.nextSeq++
	seq := p.c.nextSeq
	p.buf = appendBatchOp(p.buf, op, seq, key, val)
	p.meta = append(p.meta, pipeMeta{op: op, seq: seq})
	return seq
}

// Get queues a read and returns its sequence number.
func (p *Pipeline) Get(key []byte) uint64 { return p.add(OpGet, key, nil) }

// Set queues a blind write and returns its sequence number.
func (p *Pipeline) Set(key, val []byte) uint64 { return p.add(OpSet, key, val) }

// RMW queues a read-modify-write and returns its sequence number.
func (p *Pipeline) RMW(key, input []byte) uint64 { return p.add(OpRMW, key, input) }

// Delete queues a delete and returns its sequence number.
func (p *Pipeline) Delete(key []byte) uint64 { return p.add(OpDelete, key, nil) }

// Reset drops queued ops without sending them, retaining buffers.
func (p *Pipeline) Reset() {
	p.buf = p.buf[:pipeBody]
	p.meta = p.meta[:0]
}

// Flush sends the queued ops and returns one result per op, in issue order.
// Everything travels in a single BATCH frame (the server may split the reply
// across several; Flush reads until every op is answered). Flushing an empty
// pipeline returns (nil, nil). After Flush — error or not — the pipeline is
// reset; results are valid until the next Flush. An error part-way leaves
// replies unread, so it sticks to the client like any failed call.
func (p *Pipeline) Flush() ([]BatchResult, error) {
	if len(p.meta) == 0 {
		return nil, nil
	}
	defer p.Reset()
	if len(p.meta) > maxBatchOps {
		return nil, fmt.Errorf("kvserver: pipeline of %d ops exceeds max %d", len(p.meta), maxBatchOps)
	}
	p.results, p.arena = p.results[:0], p.arena[:0]
	c := p.c
	binary.LittleEndian.PutUint32(p.buf[pipeHdrRoom:], uint32(len(p.meta)))
	// One trace context covers the whole batch; the server records per-op
	// exec spans plus a batch-window span under it. The header fills the room
	// left for it, so the frame is buf itself.
	openFrame(p.buf[:0], OpBatch, c.trace())
	d := p.Timeout
	if d <= 0 {
		d = c.Timeout
	}
	if err := c.send(p.buf, d); err != nil {
		return nil, err
	}
	if err := p.readBatch(); err != nil {
		return nil, c.fail(err)
	}
	c.traced(OpBatch)
	return p.results, nil
}

// result decodes op m's reply from body — a value for a GET that found its
// key, a serial for everything else — appends it to the results and returns
// the rest of body.
func (p *Pipeline) result(m pipeMeta, status byte, body []byte) (rest []byte, err error) {
	res := BatchResult{Seq: m.seq, Op: m.op, Status: status}
	if m.op != OpGet {
		res.Serial, body, err = wire.TakeU64(body)
	} else if status == StatusOK {
		var v []byte
		v, body, err = wire.TakeValue(body)
		off := len(p.arena)
		p.arena = append(p.arena, v...)
		// Full slice expression: appending to one Value cannot reach the next.
		// A grown arena leaves earlier Values on the old array, still intact.
		res.Value = p.arena[off:len(p.arena):len(p.arena)]
	}
	p.results = append(p.results, res)
	return body, err
}

// readBatch reads BATCH reply frames until every queued op has its result.
func (p *Pipeline) readBatch() error {
	for len(p.results) < len(p.meta) {
		status, body, err := p.c.recv(OpBatch)
		if err != nil {
			return err
		}
		if status != StatusOK {
			return fmt.Errorf("kvserver: batch failed (status %d)", status)
		}
		n, body, err := wire.TakeU32(body)
		if err != nil {
			return err
		}
		for ; n > 0; n-- {
			if len(p.results) >= len(p.meta) {
				return fmt.Errorf("kvserver: batch reply has extra entries")
			}
			m := p.meta[len(p.results)]
			if len(body) < 9 {
				return fmt.Errorf("kvserver: truncated batch reply entry")
			}
			if seq := binary.LittleEndian.Uint64(body); seq != m.seq {
				return fmt.Errorf("kvserver: batch reply out of order: seq %d, want %d", seq, m.seq)
			}
			if body, err = p.result(m, body[8], body[9:]); err != nil {
				return err
			}
		}
	}
	return nil
}
