package storage

import (
	"sync"
	"sync/atomic"
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
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []IORequest // queue[head:] is waiting
	head   int
	closed bool

	drained bool

	wg       sync.WaitGroup
	inFlight atomic.Int64

	// Retry governs transient-error handling in workers (self-healing I/O):
	// a failed operation classified by IsTransient is retried in place with
	// bounded exponential backoff before its error reaches Done. Set before
	// submitting work; defaults to DefaultRetry.
	Retry RetryPolicy

	// Observability (set under mu by Instrument; metrics are nil-safe).
	reads, writes         *obs.Counter
	readBytes, writeBytes *obs.Counter
	readNs, writeNs       *obs.Histogram
	retries               *obs.Counter
	timed                 bool
}

// Instrument registers the pool's metrics with reg:
//
//	storage_io_reads_total / storage_io_writes_total    completed operations
//	storage_io_read_bytes_total / storage_io_write_bytes_total
//	storage_io_read_ns / storage_io_write_ns            device latency (of the
//	                                                    first request of each worker run)
//
// Pools that share reg count into the same metrics. The live queue state is
// InFlight and QueueDepth, which the pool's owner reads into its gauges. Call
// it before submitting work (hlog does so at construction).
func (p *Pool) Instrument(reg *obs.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reads = reg.Counter("storage_io_reads_total")
	p.writes = reg.Counter("storage_io_writes_total")
	p.readBytes = reg.Counter("storage_io_read_bytes_total")
	p.writeBytes = reg.Counter("storage_io_write_bytes_total")
	p.readNs = reg.Histogram("storage_io_read_ns")
	p.writeNs = reg.Histogram("storage_io_write_ns")
	p.retries = reg.Counter("storage_io_retries_total")
	p.timed = p.readNs != nil
}

// QueueDepth reports the requests still waiting for a worker.
func (p *Pool) QueueDepth() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(len(p.queue) - p.head)
}

// NewPool starts a pool with the given number of workers (minimum 1). The
// depth argument is retained for call-site compatibility and ignored (the
// queue is unbounded; see the type comment).
func NewPool(workers, depth int) *Pool {
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
			// The latency histograms sample the first request of each run: on
			// a 1 µs read the two clock reads cost a tenth of the read itself.
			var t0 time.Time
			if p.timed && i == 0 {
				t0 = time.Now()
			}
			n, err := req.do()
			if err != nil && IsTransient(err) {
				n, err = p.retry(req, n, err)
			}
			ops, bytes, ns := p.reads, p.readBytes, p.readNs
			if req.Write {
				ops, bytes, ns = p.writes, p.writeBytes, p.writeNs
			}
			ops.Inc()
			bytes.Add(uint64(n))
			if !t0.IsZero() {
				ns.Observe(time.Since(t0))
			}
			if req.Done != nil {
				req.Done(n, err)
			}
			*req = IORequest{}
			p.inFlight.Add(-1)
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
// transient error: the remaining attempts of the pool's policy, with backoff.
// Do's first call is handed the failure already made, so attempts and sleeps
// are those of a request that ran under Do from the start.
func (p *Pool) retry(req *IORequest, n int, err error) (int, error) {
	policy := p.Retry
	if policy.Attempts == 0 {
		policy = DefaultRetry
	}
	first := true
	return n, policy.Do(func() error {
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
	p.inFlight.Add(int64(len(reqs)))
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

// InFlight reports the number of submitted-but-incomplete requests.
func (p *Pool) InFlight() int64 { return p.inFlight.Load() }

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
