package main

import (
	"fmt"
	"io"
	"log"
	"sync"
	"time"

	"repro/internal/faster"
	"repro/internal/kvserver"
)

// netBench drives the store the way a network client does: an in-process
// kvserver.Server on loopback and one kvserver.Client connection per client
// goroutine, either flushing Pipelines of opBatch ops (net-batch64) or making
// one round trip per op (net-rtt).
//
// The server's own AutoCommit stays off: the benchmark's commit driver issues
// the same call the auto-committer would (Store.Commit with no options) on
// the cadence of every workload (commitOps) and from where its latency can be
// timed, so the net workloads report commit_p50_ms like the others.
type netBench struct {
	r       *run
	srv     *kvserver.Server
	served  chan error
	clients []*kvserver.Client
	n       []uint64 // per client, last serial issued
}

func (b *netBench) open() error {
	b.srv = kvserver.NewServer(b.r.env.store)
	b.srv.Logger = log.New(io.Discard, "", 0)
	b.served = make(chan error, 1)
	go func() { b.served <- b.srv.Serve("127.0.0.1:0") }()
	for b.srv.Addr() == nil {
		select {
		case err := <-b.served:
			return fmt.Errorf("kvserver: %w", err)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	for range b.r.streams {
		c, err := kvserver.Dial(b.srv.Addr().String(), "")
		if err != nil {
			return err
		}
		b.clients = append(b.clients, c)
	}
	b.n = make([]uint64, len(b.clients))
	return nil
}

// idle: the server's handlers refresh their sessions while a connection is
// quiet, so commits between phases need no help.
func (b *netBench) idle() []*faster.Session { return nil }
func (b *netBench) progress() []uint64      { return b.n }
func (b *netBench) settle() error           { return nil }

func (b *netBench) sessionIDs() []string {
	ids := make([]string, len(b.clients))
	for i, c := range b.clients {
		ids[i] = c.ID()
	}
	return ids
}

func (b *netBench) close() {
	for _, c := range b.clients {
		c.Close() //nolint:errcheck // the connection is being abandoned
	}
	if b.srv != nil {
		b.srv.Close()
		<-b.served
	}
}

const netSampleCap = 1 << 20 // latency samples kept per connection: every round trip is timed

func (b *netBench) drive(spec driveSpec) []clientResult {
	clients := len(b.clients)
	if spec.only0 {
		clients = 1
	}
	out := make([]clientResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var tr *ring
			if spec.rings != nil {
				tr = spec.rings[c]
			}
			out[c] = b.client(c, spec, tr)
		}(c)
	}
	wg.Wait()
	return out
}

// client is one closed-loop connection. Serial n of its session is op n of
// its stream: every Set reply carries the serial the server assigned, and a
// mismatch counts as a failed op. The unmeasured phases (warm-up of
// net-batch64, every suffix) are pipelined; only net-rtt's warm-up and window
// go one round trip at a time.
func (b *netBench) client(c int, spec driveSpec, tr *ring) clientResult {
	w, cl, s := &b.r.w, b.clients[c], b.r.streams[c]
	batched := w.kind == kindNetBatch || spec.only0
	res := clientResult{buckets: make(map[int64]uint64)}
	if spec.deadline > 0 { // a measured window: room for every sample up front
		res.lat = make([]sample, 0, netSampleCap)
	}
	pipe := cl.Pipeline()
	var kb [8]byte
	val := make([]byte, w.valueSize)
	var kinds [opBatch]opKind
	var keys [opBatch]uint32
	n := b.n[c]
	res.first = now()
	res.last = res.first
	for res.failed == 0 {
		size := uint64(opBatch)
		if spec.ops > 0 {
			if left := spec.ops - res.ops; left < size {
				size = left
			}
		}
		if size == 0 {
			break
		}
		var bs int64
		if tr != nil {
			bs = tr.begin(spBatch, now())
		}
		t0 := now()
		for j := uint64(0); j < size; j++ {
			n++
			kind, key := s.at(n)
			kinds[j], keys[j] = kind, key
			putKey(kb[:], key)
			if kind == opUpsert {
				fillTagged(val, makeTag(key, c, n))
				res.userBytes += int64(8 + len(val))
			}
			switch {
			case batched && kind == opRead:
				pipe.Get(kb[:])
			case batched:
				pipe.Set(kb[:], val)
			default:
				t0 := now()
				var ok bool
				if kind == opRead {
					v, found, err := cl.Get(kb[:])
					ok = err == nil && found && checkTagged(v, key, w.valueSize, b.r.streams, nil)
				} else {
					serial, err := cl.Set(kb[:], val)
					ok = err == nil && serial == n
				}
				t1 := now()
				if tr != nil {
					name := spSet
					if kind == opRead {
						name = spGet
					}
					tr.leaf(name, t0, t1)
				}
				if len(res.lat) < netSampleCap {
					res.lat = append(res.lat, sample{t1, t1 - t0})
				}
				if !ok {
					res.failed++
				}
			}
		}
		t1 := now()
		if batched {
			results, err := pipe.Flush()
			t2 := now()
			if tr != nil {
				tr.leaf(spPipeFill, t0, t1)
				tr.leaf(spFlush, t1, t2)
			}
			if len(res.lat) < netSampleCap {
				res.lat = append(res.lat, sample{t2, t2 - t1})
			}
			res.addExtra("pipeline_fill", t1-t0)
			if err != nil || uint64(len(results)) != size {
				res.failed += size
			} else {
				first := n - size + 1
				for j, br := range results {
					ok := br.Status == kvserver.StatusOK
					if ok && kinds[j] == opRead {
						ok = checkTagged(br.Value, keys[j], w.valueSize, b.r.streams, nil)
					} else if ok {
						ok = br.Serial == first+uint64(j)
					}
					if !ok {
						res.failed++
					}
				}
			}
			t1 = t2
		}
		if tr != nil {
			tr.end(bs, now())
		}
		res.ops += size
		b.r.opsDone(size)
		res.last = t1
		res.buckets[t1/bucketNs] += size
		if spec.deadline > 0 && t1 >= spec.deadline {
			break
		}
	}
	b.n[c] = n
	return res
}
