package txdb

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/wal"
)

// Op is one read or write access in a transaction.
type Op struct {
	Key   uint64
	Write bool
}

// Txn is a multi-key transaction: its read-write set plus the value written
// by each write op (YCSB-style blind writes; reads copy the current value).
type Txn struct {
	Ops []Op
	// WriteValue is stored into every written record. Length must not
	// exceed the database's ValueSize; shorter values overwrite a prefix.
	WriteValue []byte
}

// Result is a transaction outcome.
type Result uint8

// Transaction outcomes of Alg. 1.
const (
	// Committed: the transaction executed and (group-)committed.
	Committed Result = iota
	// AbortedConflict: a NO-WAIT lock acquisition failed; retryable.
	AbortedConflict
	// AbortedCPR: the transaction observed a version beyond its thread's
	// CPR view (prepare phase); the worker has refreshed — retry executes
	// it in the new version. At most one per worker per commit (Sec. 4.1).
	AbortedCPR
)

// String implements fmt.Stringer.
func (r Result) String() string {
	switch r {
	case Committed:
		return "committed"
	case AbortedConflict:
		return "aborted-conflict"
	case AbortedCPR:
		return "aborted-cpr"
	}
	return "unknown"
}

// Stats aggregates a worker's counters, including the sampled time breakdown
// of Fig. 10e (populated only when Config.Instrument is set).
type Stats struct {
	Committed     uint64
	Conflicts     uint64
	CPRAborts     uint64
	ExecNanos     int64 // lock + execute + unlock
	TailNanos     int64 // CALC commit-log append / WAL LSN allocation wait
	LogWriteNanos int64 // WAL record construction + buffer copy
	AbortNanos    int64 // time wasted on aborted attempts
	Samples       uint64
}

// Sub returns the component-wise difference s - prev (for scoping the
// database-wide counters to a single run).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Committed:     s.Committed - prev.Committed,
		Conflicts:     s.Conflicts - prev.Conflicts,
		CPRAborts:     s.CPRAborts - prev.CPRAborts,
		ExecNanos:     s.ExecNanos - prev.ExecNanos,
		TailNanos:     s.TailNanos - prev.TailNanos,
		LogWriteNanos: s.LogWriteNanos - prev.LogWriteNanos,
		AbortNanos:    s.AbortNanos - prev.AbortNanos,
		Samples:       s.Samples - prev.Samples,
	}
}

// Worker executes transactions for one client (Alg. 1). A Worker is bound to
// a single goroutine. Each committed transaction gets the next client-local
// sequence number; CPR commits report, per worker, the sequence up to which
// transactions are durable.
type Worker struct {
	db    *DB
	guard *epoch.Guard

	view core.View // the worker's view of the database's state machine
	seq  uint64    // committed-transaction count == last committed sequence

	txnsSinceRefresh int
	// cprAborted marks that the in-flight transaction aborted due to the
	// version shift and will re-execute in v+1.
	stats Stats
	// flushed is the prefix of stats already pushed into the database-wide
	// registry counters; the hot path stays non-atomic and deltas flow out on
	// refresh (every workerRefreshInterval txns) and close.
	flushed Stats

	lockedIdx []int  // scratch: indices into txn.Ops of held locks
	scratch   []byte // scratch: read buffer

	walRecs []wal.Record // scratch for WAL mode

	closed bool
}

// workerRefreshInterval is the paper's "k" in Alg. 1.
const workerRefreshInterval = 64

// NewWorker registers a client execution thread. Like sessions in FASTER,
// registration waits out any in-flight commit so the participant set of a
// commit stays fixed.
func (db *DB) NewWorker() *Worker {
	return db.machine.Register(func(v core.View) *Worker {
		return &Worker{db: db, guard: db.epochs.Acquire(), view: v}
	})
}

// Close unregisters the worker.
func (w *Worker) Close() {
	if w.closed {
		return
	}
	w.db.machine.Leave(w, w.view)
	w.flushStats()
	w.guard.Release()
	w.closed = true
}

// flushStats pushes the not-yet-flushed portion of the worker's local stats
// into the database-wide counters.
func (w *Worker) flushStats() {
	m := &w.db.metrics
	d := w.stats.Sub(w.flushed)
	m.committed.Add(d.Committed)
	m.conflicts.Add(d.Conflicts)
	m.cprAborts.Add(d.CPRAborts)
	m.execNs.Add(uint64(d.ExecNanos))
	m.tailNs.Add(uint64(d.TailNanos))
	m.logWriteNs.Add(uint64(d.LogWriteNanos))
	m.abortNs.Add(uint64(d.AbortNanos))
	m.samples.Add(d.Samples)
	w.flushed = w.stats
}

// Seq returns the worker's committed-transaction count (its client-local
// sequence clock).
func (w *Worker) Seq() uint64 { return w.seq }

// Stats returns a copy of the worker's counters.
func (w *Worker) Stats() Stats { return w.stats }

// Refresh synchronizes the worker's epoch entry and its local view of the
// commit state machine, acknowledging phase entries (Alg. 2 coordination).
func (w *Worker) Refresh() {
	w.db.machine.Refresh(w, &w.view)
	w.guard.Refresh()
	w.txnsSinceRefresh = 0
	w.flushStats()
}

// Execute runs one transaction under strict 2PL with NO-WAIT (Alg. 1).
// On AbortedConflict the caller may retry; on AbortedCPR the worker has
// already refreshed into the new version and the caller should retry the
// same transaction (it will commit after the CPR point).
func (w *Worker) Execute(txn *Txn) Result {
	w.txnsSinceRefresh++
	if w.txnsSinceRefresh >= workerRefreshInterval {
		w.Refresh()
	}
	instr := w.db.cfg.Instrument && w.seq%64 == 0
	var t0 time.Time
	if instr {
		t0 = time.Now()
	}
	res := w.execute(txn)
	if instr {
		d := time.Since(t0).Nanoseconds()
		if res == Committed {
			w.stats.ExecNanos += d
			w.stats.Samples++
		} else {
			w.stats.AbortNanos += d
		}
	}
	switch res {
	case Committed:
		w.stats.Committed++
		w.seq++
	case AbortedConflict:
		w.stats.Conflicts++
	case AbortedCPR:
		w.stats.CPRAborts++
		w.Refresh() // enter in-progress immediately (Alg. 1)
	}
	return res
}

func (w *Worker) execute(txn *Txn) Result {
	db := w.db
	phase, version := w.view.Phase, uint64(w.view.Version)
	w.lockedIdx = w.lockedIdx[:0]
	// Growing phase: acquire all locks; NO-WAIT aborts on failure.
	for i, op := range txn.Ops {
		r := &db.records[op.Key]
		if !r.tryLock(op.Write) {
			w.releaseLocks(txn)
			return AbortedConflict
		}
		w.lockedIdx = append(w.lockedIdx, i)
		switch phase {
		case Prepare:
			if r.version > version {
				w.releaseLocks(txn)
				return AbortedCPR
			}
		case InProgress, WaitFlush:
			// Shift the record into v+1 before its first v+1 write,
			// preserving the version-v value in stable (Alg. 1). Reads need
			// no shift (they produce no v+1 effects), which also keeps this
			// mutation under an exclusive lock only.
			if op.Write && db.cfg.Engine != EngineWAL && r.version < version+1 {
				copy(r.stable, r.live)
				r.stableWrite = r.lastWrite
				r.version = version + 1
			}
		}
	}
	// Execute on live values.
	writeVersion := version
	if phase >= InProgress {
		writeVersion = version + 1
	}
	for _, op := range txn.Ops {
		r := &db.records[op.Key]
		if op.Write {
			copy(r.live, txn.WriteValue)
			r.lastWrite = writeVersion
		} else {
			w.scratch = append(w.scratch[:0], r.live...)
		}
	}
	// Durability engine work, measured separately when instrumenting.
	instr := w.db.cfg.Instrument && w.seq%64 == 0
	switch db.cfg.Engine {
	case EngineCALC:
		// The atomic commit log: every transaction appends (Sec. 7.2.1).
		var t0 time.Time
		if instr {
			t0 = time.Now()
		}
		idx := db.calcNext.Add(1)
		atomic.StoreUint64(&db.calcLog[idx%uint64(len(db.calcLog))], w.seq+1)
		if instr {
			w.stats.TailNanos += time.Since(t0).Nanoseconds()
		}
	case EngineWAL:
		w.walRecs = w.walRecs[:0]
		for _, op := range txn.Ops {
			if op.Write {
				w.walRecs = append(w.walRecs, wal.Record{Key: op.Key, Value: txn.WriteValue})
			}
		}
		if len(w.walRecs) > 0 {
			if instr {
				_, lockNs, copyNs := db.wal.AppendMeasured(w.walRecs)
				w.stats.TailNanos += lockNs
				w.stats.LogWriteNanos += copyNs
			} else {
				db.wal.Append(w.walRecs)
			}
		}
	}
	w.releaseLocks(txn)
	return Committed
}

func (w *Worker) releaseLocks(txn *Txn) {
	for _, i := range w.lockedIdx {
		op := txn.Ops[i]
		w.db.records[op.Key].unlock(op.Write)
	}
	w.lockedIdx = w.lockedIdx[:0]
}

// ReadScratch exposes the last read value (tests).
func (w *Worker) ReadScratch() []byte { return w.scratch }
