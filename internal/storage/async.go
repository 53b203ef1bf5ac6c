package storage

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// IORequest is one asynchronous device operation. Exactly one of the read or
// write semantics applies: if Write is true, Buf is written at Off; otherwise
// Buf is filled by reading at Off. Done is invoked from a pool worker with
// the operation result; it may submit follow-up requests (e.g. a record-body
// read chained after its header read) but must not block for long.
type IORequest struct {
	Dev   Device
	Buf   []byte
	Off   int64
	Write bool
	Done  func(n int, err error)
}

// Pool is a fixed set of worker goroutines servicing IORequests, modelling
// FASTER's background async I/O: the requesting thread continues processing
// while the operation completes.
//
// The queue is unbounded: Submit never blocks. This is load-bearing for
// deadlock freedom — completion callbacks run on pool workers and may chain
// further Submits; a bounded queue would let workers block on themselves.
// Callers bound their own in-flight work (sessions cap their pending lists).
//
// A worker retries an operation that fails with a transient error (IsTransient)
// in place under DefaultRetry before the error reaches Done.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []IORequest // queue[head:] is waiting
	head   int
	closed bool

	drained bool

	wg sync.WaitGroup

	// Observability (set under mu by Instrument; metrics are nil-safe).
	reads      *obs.Counter
	readNs     *obs.Histogram
	writeBytes *obs.Counter
	retries    *obs.Counter
	timed      bool
}

// Instrument registers the pool's metrics with reg:
//
//	storage_io_reads_total        completed reads
//	storage_io_read_ns            read latency (of a read that begins a worker run)
//	storage_io_write_bytes_total  bytes written
//	storage_io_retries_total      retried attempts of transient failures
//
// Pools that share reg count into the same metrics. The queue length is
// QueueDepth, which the pool's owner reads into its gauge. Call it before
// submitting work (hlog does so at construction).
func (p *Pool) Instrument(reg *obs.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reads = reg.Counter("storage_io_reads_total")
	p.readNs = reg.Histogram("storage_io_read_ns")
	p.writeBytes = reg.Counter("storage_io_write_bytes_total")
	p.retries = reg.Counter("storage_io_retries_total")
	p.timed = p.readNs != nil
}

// QueueDepth reports the requests still waiting for a worker.
func (p *Pool) QueueDepth() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(len(p.queue) - p.head)
}

// NewPool starts a pool with the given number of workers (minimum 1). Its
// queue is unbounded (see the type comment).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// RunLen is the most requests a worker takes per lock hold, and so the most
// one wake-up serves; a caller batching for SubmitRun gains nothing past it.
const RunLen = 16

func (p *Pool) worker() {
	defer p.wg.Done()
	var run [RunLen]IORequest
	for {
		p.mu.Lock()
		for p.head == len(p.queue) && !p.closed {
			p.cond.Wait()
		}
		if p.head == len(p.queue) {
			p.mu.Unlock()
			return
		}
		took := copy(run[:], p.queue[p.head:])
		clear(p.queue[p.head : p.head+took])
		if p.head += took; p.head == len(p.queue) {
			p.queue, p.head = p.queue[:0], 0 // drained: reuse the array from its start
		} else {
			p.cond.Signal() // more than one run is waiting: share it
		}
		p.mu.Unlock()

		for i := range run[:took] {
			req := &run[i]
			// The latency histogram samples a read that begins a run: on a
			// 1 µs read the two clock reads cost a tenth of the read itself.
			var t0 time.Time
			if p.timed && i == 0 && !req.Write {
				t0 = time.Now()
			}
			n, err := req.do()
			if err != nil && IsTransient(err) {
				n, err = p.retry(req, n, err)
			}
			if req.Write {
				p.writeBytes.Add(uint64(n))
			} else {
				p.reads.Inc()
				if !t0.IsZero() {
					p.readNs.Observe(time.Since(t0))
				}
			}
			if req.Done != nil {
				req.Done(n, err)
			}
			*req = IORequest{}
		}
	}
}

// do performs the request's device operation once.
func (r *IORequest) do() (int, error) {
	if r.Write {
		return r.Dev.WriteAt(r.Buf, r.Off)
	}
	return r.Dev.ReadAt(r.Buf, r.Off)
}

// retry is the slow path of a request whose first attempt failed with a
// transient error: the remaining attempts of DefaultRetry, with backoff.
// Do's first call is handed the failure already made, so attempts and sleeps
// are those of a request that ran under Do from the start.
func (p *Pool) retry(req *IORequest, n int, err error) (int, error) {
	first := true
	return n, DefaultRetry.Do(func() error {
		if first {
			first = false
			return err
		}
		p.retries.Inc()
		n, err = req.do()
		return err
	})
}

// Submit enqueues req without blocking: a run of one.
func (p *Pool) Submit(req IORequest) { p.SubmitRun([]IORequest{req}) }

// SubmitRun enqueues reqs, in order, under one lock hold and with one worker
// wake-up, without blocking; the pool keeps no reference to reqs. Chained
// submissions during Close's drain are still serviced; submissions after the
// drain completes are dropped with an error delivered to Done.
func (p *Pool) SubmitRun(reqs []IORequest) {
	p.mu.Lock()
	if p.closed && p.drained {
		p.mu.Unlock()
		for _, req := range reqs {
			if req.Done != nil {
				req.Done(0, ErrClosed)
			}
		}
		return
	}
	if len(p.queue)+len(reqs) > cap(p.queue) && p.head > len(p.queue)/2 {
		// Full, but mostly of served slots: slide the waiting requests down
		// rather than grow without bound under a backlog that never drains.
		n := copy(p.queue, p.queue[p.head:])
		clear(p.queue[n:])
		p.queue, p.head = p.queue[:n], 0
	}
	p.queue = append(p.queue, reqs...)
	p.mu.Unlock()
	p.cond.Signal()
}

// Close stops accepting new external requests and waits until the queue —
// including requests chained by completion callbacks — drains.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
	p.mu.Lock()
	p.drained = true
	p.mu.Unlock()
}
