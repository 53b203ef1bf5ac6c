package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"path/filepath"
	"time"

	"repro/internal/faster"
	"repro/internal/inlog"
	"repro/internal/obs"
)

// ingestBench drives the write-durability path: one IngestClient keeps up to
// ingestWindow messages in flight (one sender goroutine, one ack reader) to an
// IngestServer on loopback; the server appends to an inlog.Log with
// cprserver's defaults (fsync policy batch, 64 records / 2 ms, 1 MiB
// segments) and acks once fsynced; a pump applies the log into the store, and
// every commit carries the watermark artifact and trims the log.
type ingestBench struct {
	r    *run
	log  *inlog.Log
	pump *inlog.Pump
	srv  *inlog.IngestServer
	cli  *inlog.IngestClient
	done chan struct{} // closed when Serve returns
	sent uint64        // messages sent and acked; message n is pump-session serial n
}

// openInlog opens the ingestion log under dir through the counting wrappers
// and starts a pump applying it into store.
func openInlog(dir string, store *faster.Store, reg *obs.Registry, seg *ioStats) (*inlog.Log, *inlog.Pump, *countSegStore, error) {
	ds, err := inlog.NewDirSegmentStore(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	segs := newCountSegStore(ds, seg)
	lg, err := inlog.Open(inlog.Config{
		Segments: segs, SegmentBytes: 1 << 20,
		Fsync: inlog.FsyncBatch, BatchRecords: 64, BatchInterval: 2 * time.Millisecond,
		Metrics: reg, Flight: store.Flight(),
	})
	if err != nil {
		return nil, nil, nil, err
	}
	pump, err := inlog.StartPump(inlog.PumpConfig{Log: lg, Store: store, Metrics: reg, Flight: store.Flight()})
	if err != nil {
		lg.Close() //nolint:errcheck // the pump error is the one to report
		return nil, nil, nil, err
	}
	return lg, pump, segs, nil
}

func (b *ingestBench) open() error {
	r := b.r
	r.seg = newIOStats(spDevRead, spSegWrite, spSegSync, r.bg)
	var err error
	b.log, b.pump, r.segs, err = openInlog(filepath.Join(r.env.dir, "inlog"), r.env.store, r.env.reg, r.seg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.srv = inlog.NewIngestServer(b.log, r.env.reg, r.env.store.Flight())
	b.done = make(chan struct{})
	go func() {
		defer close(b.done)
		b.srv.Serve(ln) //nolint:errcheck // returns nil on Close; a listener failure shows as failed sends
	}()
	b.cli, err = inlog.DialIngest(ln.Addr().String())
	return err
}

// idle: the pump refreshes its own session while it has nothing to apply.
func (b *ingestBench) idle() []*faster.Session { return nil }
func (b *ingestBench) progress() []uint64      { return []uint64{b.sent} }
func (b *ingestBench) sessionIDs() []string    { return []string{b.pump.Session()} }

func (b *ingestBench) settle() error {
	if tail := b.log.Tail(); tail > 0 {
		return b.pump.WaitApplied(tail - 1)
	}
	return nil
}

func (b *ingestBench) close() {
	if b.cli != nil {
		b.cli.Close() //nolint:errcheck // the connection is being abandoned
	}
	if b.srv != nil {
		b.srv.Close()
		<-b.done
	}
	if b.pump != nil {
		b.pump.Close()
	}
	if b.log != nil {
		b.log.Close() //nolint:errcheck // nothing is read from the log after this
	}
}

const ingestSampleCap = 1 << 21

// drive sends messages from stream 0 until the deadline or the op limit. The
// sender hands each message's send time to the ack reader through a channel
// whose capacity is the in-flight window; the latency of a message is send to
// fsync-ack.
func (b *ingestBench) drive(spec driveSpec) []clientResult {
	s := b.r.streams[0]
	res := clientResult{buckets: make(map[int64]uint64)}
	if spec.deadline > 0 { // a measured window: room for every sample up front
		res.lat = make([]sample, 0, ingestSampleCap)
	}
	var sendRing, ackRing *ring
	if spec.rings != nil {
		sendRing, ackRing = spec.rings[0], spec.rings[1]
	}
	inflight := make(chan int64, ingestWindow)
	acked := make(chan struct{})
	var ackFailed uint64
	next := b.sent // offset the next ack must carry
	go func() {
		defer close(acked)
		var bs int64
		i := 0
		for t0 := range inflight {
			if ackRing != nil && i%opBatch == 0 {
				bs = ackRing.begin(spBatch, now())
			}
			ta := now()
			off, err := b.cli.Ack()
			t1 := now()
			if err != nil || off != next {
				ackFailed++
				for range inflight { // unblock the sender; nothing more will be acked in order
				}
				return
			}
			next++
			if ackRing != nil {
				ackRing.leaf(spAck, ta, t1)
				if i%opBatch == opBatch-1 {
					ackRing.end(bs, t1)
				}
			}
			i++
			if len(res.lat) < ingestSampleCap {
				res.lat = append(res.lat, sample{t1, t1 - t0})
			}
			b.r.opsDone(1)
			res.buckets[t1/bucketNs]++
			res.last = t1
		}
	}()

	var kb, vb [8]byte
	n := b.sent
	res.first = now()
	var bs int64
	var sendFailed uint64
	for i := uint64(0); spec.ops == 0 || i < spec.ops; i++ {
		t0 := now()
		if spec.deadline > 0 && t0 >= spec.deadline {
			break
		}
		if sendRing != nil && i%opBatch == 0 {
			bs = sendRing.begin(spBatch, t0)
		}
		n++
		kind, key := s.at(n)
		putKey(kb[:], key)
		msg := inlog.Message{Op: inlog.OpRMW, Key: kb[:], Value: vb[:]}
		if kind == opUpsert { // the canary
			msg.Op = inlog.OpUpsert
			binary.LittleEndian.PutUint64(vb[:], makeTag(key, 0, n))
		} else {
			binary.LittleEndian.PutUint64(vb[:], 1)
		}
		inflight <- t0
		ts := now()
		err := b.cli.Send(msg)
		t1 := now()
		if sendRing != nil {
			sendRing.leaf(spSend, ts, t1)
			if i%opBatch == opBatch-1 {
				sendRing.end(bs, t1)
			}
		}
		res.addExtra("send", t1-ts)
		res.userBytes += 16
		if err != nil {
			sendFailed++
			break
		}
	}
	close(inflight)
	<-acked
	res.ops = next - b.sent
	res.failed = sendFailed + ackFailed + (n - next) // sent but never acked in order
	b.sent = next
	return []clientResult{res}
}

// resumeIngest is the rest of ingest-batch's recovery after faster.Recover:
// reopen the log from the crash image, start the pump, wait until it has
// applied everything up to the tail. The returned func closes what it opened.
func resumeIngest(r *run, env *storeEnv, img *crashImage) (func(), error) {
	lg, pump, _, err := openInlog(filepath.Join(img.dir, "inlog"), env.store, env.reg, &ioStats{})
	if err != nil {
		return nil, err
	}
	closer := func() {
		pump.Close()
		lg.Close() //nolint:errcheck // nothing is read from the log after this
	}
	tail := lg.Tail()
	if tail > 0 {
		if err := pump.WaitApplied(tail - 1); err != nil {
			closer()
			return nil, err
		}
	}
	if tail != r.issued[0] || pump.Applied() != tail {
		closer()
		return nil, fmt.Errorf("ingest recovery: log tail %d, pump applied %d, %d messages were acked", tail, pump.Applied(), r.issued[0])
	}
	return closer, nil
}

// checkIngestFinal runs once the pump has caught up on the recovered store:
// every acked message must have been applied exactly once, so every counter
// holds the RMW messages sent for its key and the canary the last canary
// serial sent.
func (r *run) checkIngestFinal(env *storeEnv) {
	sess := env.store.StartSession()
	defer sess.StopSession()
	r.checkPrefix(sess, r.issued)
}
