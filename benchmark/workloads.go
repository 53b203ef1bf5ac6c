package main

// workload is one named set of inputs. Sizes here are the full-scale ones;
// -smoke shrinks them (see scaled).
type workload struct {
	name string
	why  string
	kind benchKind

	mix       mix
	valueSize int
	counter   bool // values are RMW counters (key<<32 + count); else tagged upserts
	store     storeSpec

	clients     int    // 0: clientsFor(nproc)
	warmupOps   uint64 // per client, issued from the stream before the window
	suffixOps   uint64 // writes of each of the two suffixes issued before the crash
	waitPending bool   // CompletePending(true) after each batch of 64 (else poll once)
	// commitOps: the window's log-only fold-over commits come each time the
	// clients have completed this many ops — about half a second's worth
	// (cprserver's -autocommit default) at the speed of the host the benchmark
	// was written on. Work, not time, sets the cadence, so that what a commit
	// cycle has to write is the same on a fast and a slow host.
	commitOps uint64
}

type benchKind int

const (
	kindInproc benchKind = iota
	kindNetBatch
	kindNetRTT
	kindIngest
)

const (
	opBatch      = 64 // ops per client loop pass, per Pipeline flush, per CompletePending
	ingestWindow = 512
)

// workloads in the order BENCHMARK.json lists them.
var workloads = []workload{
	{
		name: "mem-zipf-rmw",
		why:  "in-memory zipfian 50% Read / 50% RMW: hashfn, epoch, index, hlog in-place update and the CPR state machine do all the work; storage, kvserver and inlog do none",
		kind: kindInproc,
		mix:  mix{keys: 1_000_000, theta: 0.99, readPct: 50, write: opRMW}, valueSize: 8, counter: true,
		// 1 MiB pages; enough frames that the log (32 MiB loaded, plus what
		// read-copy-update appends after every commit) never leaves memory.
		store:     storeSpec{shards: 1, pageBits: 20, memPages: 512},
		warmupOps: 1 << 19, suffixOps: 200_000, commitOps: 1_250_000,
	},
	{
		name: "disk-uniform-read",
		why:  "larger than memory, uniform 90% Read / 10% Upsert: most reads go Pending through hlog.AsyncRead, the storage I/O pool and CompletePending; the in-place path is nearly idle",
		kind: kindInproc,
		mix:  mix{keys: 1_000_000, theta: 0, readPct: 90, write: opUpsert}, valueSize: 64,
		// 88-byte records x 1M = 84 MiB loaded; 84 pages of 256 KiB = 21 MiB, a quarter of it.
		store:     storeSpec{shards: 1, file: true, pageBits: 18, memPages: 84, instant: true},
		warmupOps: 1 << 15, suffixOps: 200_000, waitPending: true, commitOps: 135_000,
	},
	{
		name: "net-batch64",
		why:  "kvserver over loopback, Pipelines of 64, zipfian 50% Get / 50% Set on a 2-shard in-memory store: batch codec, serve loop, reply coalescing and the coordinated multi-shard commit",
		kind: kindNetBatch,
		mix:  mix{keys: 200_000, theta: 0.99, readPct: 50, write: opUpsert}, valueSize: 8,
		store:     storeSpec{shards: 2, pageBits: 20, memPages: 1024, reqTrace: true},
		warmupOps: 1 << 17, suffixOps: 200_000, commitOps: 750_000,
	},
	{
		name: "net-rtt",
		why:  "same store, server and key mix as net-batch64 but one round trip per op: one epoch refresh, one frame and one syscall pair each, so batching gains that cost latency show here",
		kind: kindNetRTT,
		mix:  mix{keys: 200_000, theta: 0.99, readPct: 50, write: opUpsert}, valueSize: 8,
		store:     storeSpec{shards: 2, pageBits: 20, memPages: 1024, reqTrace: true},
		warmupOps: 1 << 11, suffixOps: 200_000, commitOps: 40_000,
	},
	{
		name: "ingest-batch",
		why:  "inlog write-durability path: append, batch fsync (64 records / 2 ms), ack, pump into a file-backed store, CPR commit with watermark artifact, trim; no other workload touches it",
		kind: kindIngest,
		mix:  mix{keys: 200_000, theta: 0.99, readPct: 0, write: opRMW}, valueSize: 8, counter: true,
		store: storeSpec{shards: 1, file: true, pageBits: 20, memPages: 256},
		// Half the suffix of the others: these ops go over the wire and through
		// an fsync, at some 60 000 a second.
		clients: 1, warmupOps: 1 << 14, suffixOps: 100_000, commitOps: 30_000,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// clientsFor is the one rule for the client count: half the processors, at
// least one and at most two. The clients are closed loops that never idle —
// CompletePending(true) spins — so the other half is what the goroutines of
// the program itself (checkpoint state machine, flush, I/O pool, server
// handlers, pump) run on.
func clientsFor(nproc int) int {
	return min(2, max(1, nproc/2))
}

// scaled returns the workload at run scale — unchanged, or shrunk for -smoke —
// with its client count settled for a host of nproc processors.
func (w workload) scaled(smoke bool, nproc int) workload {
	w.store.keys = w.mix.keys
	if w.clients == 0 {
		w.clients = clientsFor(nproc)
	}
	if !smoke {
		return w
	}
	w.mix.keys = 20_000
	w.store.keys = 20_000
	w.suffixOps = 2_000
	w.commitOps /= 20 // markCommits commits fit in a one-second window
	if w.warmupOps > 4096 {
		w.warmupOps = 4096
	}
	if w.store.file && w.kind == kindInproc {
		w.store.pageBits, w.store.memPages = 14, 27 // keep memory at a quarter of the data
	}
	return w
}

// liveBytes is the key+value volume a perfect store would hold.
func (w workload) liveBytes() int64 {
	return int64(w.mix.keys+w.clients) * int64(8+w.valueSize)
}
