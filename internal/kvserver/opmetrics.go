package kvserver

import "repro/internal/obs"

// opMetrics holds the per-op latency-decomposition histograms: where a
// request's wall-clock time went, split into queue (client issue to server
// decode), exec (FASTER operation), durwait (waiting for a covering commit)
// and replwait (commit durable to replica commit-announce; observed by the
// repl package into the same registry). Together with the request tracer's
// span trees these attribute tail latency to a specific hop.
type opMetrics struct {
	queueNs    *obs.Histogram
	execNs     *obs.Histogram
	durwaitNs  *obs.Histogram
	replwaitNs *obs.Histogram

	// Data-request counters: how deep BATCH frames run, and how
	// well per-connection write coalescing amortizes flush syscalls
	// (replies-per-flush = coalescedReplies / coalescedFlushes).
	batchDepth       *obs.Histogram
	batches          *obs.Counter
	coalescedFlushes *obs.Counter
	coalescedReplies *obs.Counter

	// idleReaps counts connections closed (and their FASTER sessions
	// released) for sitting idle past Server.IdleTimeout.
	idleReaps *obs.Counter
}

// resolveOpMetrics resolves (creating if absent) the decomposition histograms
// in reg so every family is present in /metrics.prom even before first use.
func resolveOpMetrics(reg *obs.Registry) opMetrics {
	reg.SetHelp("faster_op_queue_ns",
		"Per-request client-issue to server-decode latency (network + accept queueing; requires a traced client).")
	reg.SetHelp("faster_op_exec_ns",
		"Per-request FASTER operation execution latency, including pending completion.")
	reg.SetHelp("faster_op_durwait_ns",
		"Per-request durability wait: time spent blocked for a covering commit (COMMIT / WAITDUR ops).")
	reg.SetHelp("faster_op_replwait_ns",
		"Per-commit wait from local durability to replica commit-announce.")
	reg.SetHelp("faster_batch_depth",
		"Ops per BATCH frame, the one frame that carries data ops (a Client's Get/Set/RMW/Delete is a batch of one).")
	reg.SetHelp("faster_net_batches_total",
		"BATCH frames served: every data request, single ops included.")
	reg.SetHelp("faster_net_coalesced_flushes_total",
		"Per-connection reply-buffer flushes (write syscalls after coalescing), summed across connections.")
	reg.SetHelp("faster_net_coalesced_replies_total",
		"Per-op replies that passed through the coalescing buffer, summed across connections; divide by flushes for replies-per-write-syscall.")
	reg.SetHelp("kvserver_idle_reaps_total",
		"Connections closed for idling past the server's idle timeout; their FASTER sessions were released.")
	return opMetrics{
		queueNs:          reg.Histogram("faster_op_queue_ns"),
		execNs:           reg.Histogram("faster_op_exec_ns"),
		durwaitNs:        reg.Histogram("faster_op_durwait_ns"),
		replwaitNs:       reg.Histogram("faster_op_replwait_ns"),
		batchDepth:       reg.Histogram("faster_batch_depth"),
		batches:          reg.Counter("faster_net_batches_total"),
		coalescedFlushes: reg.Counter("faster_net_coalesced_flushes_total"),
		coalescedReplies: reg.Counter("faster_net_coalesced_replies_total"),
		idleReaps:        reg.Counter("kvserver_idle_reaps_total"),
	}
}

// opName returns a stable human-readable label for a request opcode, used as
// the Op field of retained request traces.
func opName(op byte) string {
	switch op {
	case OpHello:
		return "HELLO"
	case OpCommit:
		return "COMMIT"
	case OpStats:
		return "STATS"
	case OpFlight:
		return "FLIGHT"
	case OpTrace:
		return "TRACE"
	case OpWaitDurable:
		return "WAITDUR"
	case OpBatch:
		return "BATCH"
	}
	return "OP?"
}
