package main

import (
	"sync"
	"time"

	"repro/internal/faster"
)

// inprocBench drives the store the way the embedders in cmd/ and examples/
// do: one Session per client goroutine, Read/RMW/Upsert calls, CompletePending
// after every batch of 64, no yielding in between.
type inprocBench struct {
	r    *run
	sess []*faster.Session
	n    []uint64 // per client, last serial issued
}

func (b *inprocBench) open() error {
	for range b.r.streams {
		b.sess = append(b.sess, b.r.env.store.StartSession())
	}
	b.n = make([]uint64, len(b.sess))
	return nil
}

func (b *inprocBench) idle() []*faster.Session { return b.sess }
func (b *inprocBench) progress() []uint64      { return b.n }
func (b *inprocBench) settle() error           { return nil }

func (b *inprocBench) sessionIDs() []string {
	ids := make([]string, len(b.sess))
	for i, s := range b.sess {
		ids[i] = s.ID()
	}
	return ids
}

func (b *inprocBench) close() {
	for _, s := range b.sess {
		s.StopSession()
	}
}

// drive runs the active clients and keeps every other session alive: a
// session that stops refreshing stalls epoch progress for all (a client
// waiting for a page frame to be evicted, a commit waiting for
// acknowledgements), so each session's goroutine keeps refreshing it until
// all clients have finished and no commit is in flight any more.
func (b *inprocBench) drive(spec driveSpec) []clientResult {
	active := len(b.sess)
	if spec.only0 {
		active = 1
	}
	out := make([]clientResult, active)
	finished := make(chan struct{})
	var work, all sync.WaitGroup
	work.Add(active)
	for c := range b.sess {
		all.Add(1)
		go func(c int) {
			defer all.Done()
			if c < active {
				var tr *ring
				if spec.rings != nil {
					tr = spec.rings[c]
				}
				out[c] = b.client(c, spec, tr)
				work.Done()
			}
			for _, wait := range []<-chan struct{}{finished, spec.release} {
				for waiting := wait != nil; waiting; {
					select {
					case <-wait:
						waiting = false
					default:
						b.sess[c].Refresh()
						b.sess[c].CompletePending(false)
						time.Sleep(50 * time.Microsecond)
					}
				}
			}
		}(c)
	}
	work.Wait()
	close(finished)
	all.Wait()
	return out
}

const sampleCap = 1 << 18 // latency samples kept per client and op kind

// client is one closed-loop client: batches of opBatch session calls, then
// CompletePending. One op per batch is timed (the slot rotates so it does not
// stay aligned with the session's own every-64-ops epoch refresh); with a
// span ring every op is.
func (b *inprocBench) client(c int, spec driveSpec, tr *ring) clientResult {
	w, sess, s := &b.r.w, b.sess[c], b.r.streams[c]
	res := clientResult{buckets: make(map[int64]uint64)}
	for k := range res.kind {
		if spec.deadline > 0 { // a measured window: room for every sample up front
			res.kind[k] = make([]sample, 0, sampleCap)
		}
	}
	var kb [8]byte
	val := make([]byte, w.valueSize)
	one := []byte{1, 0, 0, 0, 0, 0, 0, 0}
	weak := func(v []byte, st faster.Status) { // for reads that complete later: the key is not at hand
		ok := st == faster.Ok
		if ok && w.counter {
			ok = len(v) == 8
		} else if ok {
			ok = len(v) >= 8 && checkTagged(v, uint32(leU64(v)&(1<<keyBits-1)), w.valueSize, b.r.streams, nil)
		}
		if !ok {
			res.failed++
		}
	}
	n := b.n[c]
	res.first = now()
	res.last = res.first
	for batch := uint64(0); ; batch++ {
		size := uint64(opBatch)
		if spec.ops > 0 {
			if left := spec.ops - res.ops; left < size {
				size = left
			}
		}
		if size == 0 {
			break
		}
		slot := batch % opBatch
		var bs int64
		if tr != nil {
			bs = tr.begin(spBatch, now())
		}
		var sampleKind opKind
		var sampleNs int64
		for j := uint64(0); j < size; j++ {
			n++
			kind, key := s.at(n)
			putKey(kb[:], key)
			timed := tr != nil || j == slot
			var t0 int64
			if timed {
				t0 = now()
			}
			var st faster.Status
			switch kind {
			case opRead:
				var v []byte
				v, st = sess.Read(kb[:], weak)
				if st == faster.Ok {
					if w.counter && !checkCounter(v, key) ||
						!w.counter && !checkTagged(v, key, w.valueSize, b.r.streams, nil) {
						res.failed++
					}
				}
			case opRMW:
				st = sess.RMW(kb[:], one)
				res.userBytes += 16
			case opUpsert:
				fillTagged(val, makeTag(key, c, n))
				st = sess.Upsert(kb[:], val)
				res.userBytes += int64(8 + len(val))
			}
			if timed {
				t1 := now()
				if tr != nil {
					tr.leaf(opSpan[kind], t0, t1)
				}
				if j == slot {
					sampleKind, sampleNs = kind, t1-t0
				}
			}
			if st == faster.Error || st == faster.NotFound {
				res.failed++
			}
		}
		t0 := now()
		sess.CompletePending(w.waitPending)
		t1 := now()
		res.ops += size
		b.r.opsDone(size)
		res.last = t1
		res.buckets[t1/bucketNs] += size
		if slot < size && len(res.kind[sampleKind]) < sampleCap {
			// The op's latency includes its share of the CompletePending that
			// finished the batch it was issued in.
			res.kind[sampleKind] = append(res.kind[sampleKind], sample{t1, sampleNs + (t1-t0)/int64(size)})
		}
		if w.waitPending {
			res.addExtra("complete_pending", t1-t0)
		}
		if tr != nil {
			tr.leaf(spCompletePending, t0, t1)
			tr.end(bs, now())
		}
		if spec.deadline > 0 && t1 >= spec.deadline {
			break
		}
	}
	b.n[c] = n
	if !w.waitPending {
		sess.CompletePending(true)
	}
	return res
}
