package bench

import (
	"runtime"

	"repro/internal/obs"
	"repro/internal/txdb"
	"repro/internal/ycsb"
)

// ycsbTxns returns one worker's YCSB transactions: each call the next, in
// buffers the following call reuses.
func ycsbTxns(spec ycsb.TxnSpec, valueSize int, seed uint64) func() *txdb.Txn {
	gen := ycsb.NewGenerator(spec, seed)
	ops, val := make([]txdb.Op, spec.TxnSize), make([]byte, valueSize)
	var txn txdb.Txn
	return func() *txdb.Txn {
		keys, writes := gen.NextTxn()
		for i := range keys {
			ops[i] = txdb.Op{Key: keys[i], Write: writes[i]}
		}
		txn = txdb.Txn{Ops: ops, WriteValue: val}
		return &txn
	}
}

// TxdbParams configures one transactional-database measurement.
type TxdbParams struct {
	Engine    txdb.EngineKind
	Threads   int
	ValueSize int
	Seconds   float64
	// Source builds each worker's transaction source (YCSB or TPC-C).
	Source func(worker int) func() *txdb.Txn
	// Records is the database size.
	Records int
	// Instrument enables the Fig. 10e breakdown sampling.
	Instrument bool
	// CommitAt issues commits at these fractions of the run (e.g. paper's
	// 30/60/90s marks scale to 0.25/0.5/0.75).
	CommitAt []float64
}

// TxdbResult aggregates one measurement.
type TxdbResult struct {
	Mtps         float64 // committed millions of txns/sec
	AvgLatencyUs float64
	Breakdown    txdb.Stats
	Dip          Dip
	CommitCount  int
}

// RunTxdb executes the workload on a txdb instance for the configured
// duration and reports throughput/latency/breakdown.
func RunTxdb(p TxdbParams) (TxdbResult, error) {
	fr := obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	db, err := txdb.Open(txdb.Config{
		Records: p.Records, ValueSize: p.ValueSize,
		Engine: p.Engine, Instrument: p.Instrument, Flight: fr,
	})
	if err != nil {
		return TxdbResult{}, err
	}
	defer db.Close()
	// Workers flush their counters into the database's metrics registry;
	// deltas against this baseline scope the breakdown to this run.
	statsBefore := db.Stats()
	marks := make([]float64, len(p.CommitAt))
	for i, f := range p.CommitAt {
		marks[i] = f * p.Seconds
	}
	commits := 0
	r, err := drive(load{
		threads: p.Threads, seconds: p.Seconds, flight: fr,
		worker: func(i int) worker {
			w, next := db.NewWorker(), p.Source(i)
			return worker{
				op: func(int) bool { return w.Execute(next()) == txdb.Committed },
				stop: func() {
					// Keep acknowledging until no commit is active so the
					// state machine can finish.
					for db.Phase() != txdb.Rest {
						w.Refresh()
						runtime.Gosched()
					}
					w.Close()
				},
			}
		},
		tick: atMarks(marks, func() error {
			if _, err := db.Commit(nil); err == nil {
				commits++
			}
			return nil
		}),
	})
	if err != nil {
		return TxdbResult{}, err
	}
	res := TxdbResult{
		Mtps:         r.mops(),
		AvgLatencyUs: r.avgLatencyUs(),
		Dip:          r.readDip(db.Tracer().Timeline()),
		CommitCount:  commits,
	}
	// All workers have closed (and therefore flushed), so the registry delta
	// is the exact per-run breakdown.
	res.Breakdown = db.Stats().Sub(statsBefore)
	return res, nil
}
