package txdb

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

func val(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

func write1(key, v uint64) *Txn { return &Txn{Ops: []Op{{Key: key, Write: true}}, WriteValue: val(v)} }

// writeKey writes v to key in a transaction of its own, retried until it
// commits; readKey reads key's committed value.
func writeKey(t *testing.T, w *Worker, key, v uint64) {
	t.Helper()
	for w.Execute(write1(key, v)) != Committed {
	}
}

func readKey(db *DB, key uint64) uint64 { return binary.LittleEndian.Uint64(db.ReadValue(key, nil)) }

// mustOpen and mustRecover are Open and Recover, failing the test on an error.
func mustOpen(t *testing.T, cfg Config) *DB {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustRecover(t *testing.T, cfg Config) *DB {
	t.Helper()
	db, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// driveCommit completes a commit while keeping workers refreshing.
func driveCommit(t *testing.T, db *DB, workers []*Worker) CommitResult {
	t.Helper()
	token, err := db.Commit(nil)
	if err != nil {
		t.Fatal(err)
	}
	return awaitCommit(t, db, token, workers)
}

// awaitCommit waits for the commit token to complete while keeping workers
// refreshing, and fails the test if it completed with an error. Bounded by
// wall time, not by a pass count: each pass yields, so the goroutine
// Machine.Flush starts and the I/O workers it waits on run even on one
// processor.
func awaitCommit(t *testing.T, db *DB, token string, workers []*Worker) CommitResult {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if res, ok := db.TryResult(token); ok {
			if res.Err != nil {
				t.Fatalf("commit: %v", res.Err)
			}
			return res
		}
		for _, w := range workers {
			w.Refresh()
		}
		if time.Now().After(deadline) {
			t.Fatalf("commit stuck in %v", db.Phase())
		}
		runtime.Gosched()
	}
}

func TestExecuteAndRead(t *testing.T) {
	for _, eng := range []EngineKind{EngineCPR, EngineCALC, EngineWAL} {
		t.Run(eng.String(), func(t *testing.T) {
			db := mustOpen(t, Config{Records: 100, Engine: eng})
			defer db.Close()
			w := db.NewWorker()
			defer w.Close()

			if res := w.Execute(write1(5, 42)); res != Committed {
				t.Fatalf("write: %v", res)
			}
			if res := w.Execute(&Txn{Ops: []Op{{Key: 5}}}); res != Committed {
				t.Fatalf("read: %v", res)
			}
			if got := binary.LittleEndian.Uint64(w.ReadScratch()); got != 42 {
				t.Fatalf("read value = %d", got)
			}
		})
	}
}

func TestNoWaitConflictAbort(t *testing.T) {
	db := mustOpen(t, Config{Records: 10})
	defer db.Close()
	w := db.NewWorker()
	defer w.Close()

	// Hold an exclusive lock directly and watch NO-WAIT abort.
	db.records[3].tryLock(true)
	if res := w.Execute(write1(3, 1)); res != AbortedConflict {
		t.Fatalf("expected conflict abort, got %v", res)
	}
	db.records[3].unlock(true)
	if res := w.Execute(write1(3, 1)); res != Committed {
		t.Fatalf("after unlock: %v", res)
	}
	st := w.Stats()
	if st.Conflicts != 1 || st.Committed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMultiKeyTxnLockOrdering(t *testing.T) {
	db := mustOpen(t, Config{Records: 100})
	defer db.Close()
	w := db.NewWorker()
	defer w.Close()
	txn := &Txn{Ops: []Op{{Key: 1, Write: true}, {Key: 2}, {Key: 3, Write: true}},
		WriteValue: val(9)}
	if res := w.Execute(txn); res != Committed {
		t.Fatalf("multi-key txn: %v", res)
	}
	// All locks released.
	for i := 1; i <= 3; i++ {
		if l := db.records[i].lock.Load(); l != 0 {
			t.Fatalf("record %d lock leaked: %d", i, l)
		}
	}
	if readKey(db, 3) != 9 || readKey(db, 2) != 0 {
		t.Fatalf("keys 3 and 2 hold %d and %d: want the write applied (9) and the read writing nothing (0)", readKey(db, 3), readKey(db, 2))
	}
}

// TestCommitTimeline: the database's phase timeline is read back from its
// flight recorder — the four transitions of Alg. 2 under their names (the
// phase codes are the recorder's, so wait-flush is not rendered wait-pending),
// the worker's two crossings, bare tokens, one machine — and is empty without a
// recorder.
func TestCommitTimeline(t *testing.T) {
	db := mustOpen(t, Config{Records: 16, Flight: obs.NewFlightRecorder(obs.DefaultFlightCapacity)})
	w := db.NewWorker()
	w.Execute(write1(1, 2))
	res := driveCommit(t, db, []*Worker{w})

	tl := db.Tracer().Timeline()
	var got [][2]string
	crossings := map[string]int{}
	for _, e := range tl.Events {
		if e.Token != res.Token {
			t.Fatalf("event %+v, want token %s", e, res.Token)
		}
		switch e.Kind {
		case obs.KindPhase:
			got = append(got, [2]string{e.From, e.Phase})
		case obs.KindSession:
			crossings[e.Event]++
		}
	}
	want := [][2]string{{"rest", "prepare"}, {"prepare", "in-progress"}, {"in-progress", "wait-flush"}, {"wait-flush", "rest"}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("transitions %v, want %v", got, want)
	}
	if crossings["ack-prepare"] != 1 || crossings["demarcate"] != 1 {
		t.Fatalf("crossings %v, want one ack-prepare and one demarcate", crossings)
	}
	if n := len(tl.Spans); n != 4 || !tl.Spans[3].Open || tl.Spans[2].Phase != "wait-flush" {
		t.Fatalf("spans %+v, want prepare, in-progress, wait-flush and an open rest", tl.Spans)
	}

	plain := mustOpen(t, Config{Records: 16})
	driveCommit(t, plain, nil)
	if tl := plain.Tracer().Timeline(); len(tl.Events) != 0 {
		t.Fatalf("a database without a flight recorder has a timeline: %+v", tl)
	}
}

func TestCPRAbortAtMostOncePerCommit(t *testing.T) {
	db := mustOpen(t, Config{Records: 1000})
	defer db.Close()

	const workers = 4
	ws := make([]*Worker, workers)
	for i := range ws {
		ws[i] = db.NewWorker()
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := uint64(0); !stop.Load(); k++ {
				w.Execute(write1((uint64(i)*250+k)%1000, k)) // conflicts & CPR aborts allowed
			}
		}()
	}
	token, err := db.Commit(nil)
	if err != nil {
		t.Fatal(err)
	}
	res := db.WaitForCommit(token)
	stop.Store(true)
	wg.Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for i, w := range ws {
		if st := w.Stats(); st.CPRAborts > 1 {
			t.Errorf("worker %d: %d CPR aborts in one commit, want <= 1", i, st.CPRAborts)
		}
		w.Close()
	}
}

func TestConcurrentWorkersThroughput(t *testing.T) {
	db := mustOpen(t, Config{Records: 10000})
	defer db.Close()
	const workers = 8
	var wg sync.WaitGroup
	var committed atomic.Uint64
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := db.NewWorker()
			defer w.Close()
			for n := range 5000 {
				if w.Execute(write1(uint64((i*1000+n*7)%10000), uint64(n))) == Committed {
					committed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if total := committed.Load(); total < workers*5000*9/10 {
		t.Fatalf("only %d/%d committed (excessive aborts)", total, workers*5000)
	}
}

func TestEngineStrings(t *testing.T) {
	if EngineCPR.String() != "CPR" || EngineCALC.String() != "CALC" || EngineWAL.String() != "WAL" {
		t.Fatal("engine names wrong")
	}
}

func TestCalcLogAppends(t *testing.T) {
	db := mustOpen(t, Config{Records: 10, Engine: EngineCALC})
	defer db.Close()
	w := db.NewWorker()
	defer w.Close()
	for i := 0; i < 100; i++ {
		w.Execute(write1(uint64(i%10), uint64(i)))
	}
	if got := db.calcNext.Load(); got != 100 {
		t.Fatalf("CALC commit log entries = %d, want 100 (every txn must append)", got)
	}
}

func TestInstrumentationBreakdown(t *testing.T) {
	for _, eng := range []EngineKind{EngineCPR, EngineCALC, EngineWAL} {
		db := mustOpen(t, Config{Records: 100, Engine: eng, Instrument: true})
		w := db.NewWorker()
		for i := 0; i < 1000; i++ {
			w.Execute(write1(uint64(i%100), uint64(i)))
		}
		st := w.Stats()
		if st.ExecNanos == 0 || st.Samples == 0 {
			t.Errorf("%v: no exec samples collected", eng)
		}
		if eng == EngineCALC && st.TailNanos == 0 {
			t.Errorf("CALC: no tail contention samples")
		}
		if eng == EngineWAL && st.LogWriteNanos == 0 {
			t.Errorf("WAL: no log write samples")
		}
		w.Close()
		db.Close()
	}
}

// TestCALCLogSizedByRecords: a CALC database's commit log is a ring sized by
// its records, so its heap stays within twice a CPR one's (a fixed 1<<20-word
// ring took +9 MB at 20 000 records against CPR's +1 MB).
func TestCALCLogSizedByRecords(t *testing.T) {
	heap := func(eng EngineKind) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		db := mustOpen(t, Config{Records: 20_000, Engine: eng})
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(db)
		return after.TotalAlloc - before.TotalAlloc
	}
	cpr, calc := heap(EngineCPR), heap(EngineCALC)
	t.Logf("Open(20 000 records): CPR %d bytes, CALC %d bytes", cpr, calc)
	if calc > 2*cpr {
		t.Fatalf("CALC took %d bytes of heap, more than twice CPR's %d", calc, cpr)
	}
}

// TestSequentialCommitsVersions checks the version counter advances once per
// commit and stale checkpoints are superseded.
func TestSequentialCommitsVersions(t *testing.T) {
	ckpts := storage.NewMemCheckpointStore()
	db := mustOpen(t, Config{Records: 16, Checkpoints: ckpts})
	w := db.NewWorker()
	for c := uint64(1); c <= 5; c++ {
		writeKey(t, w, 0, c)
		if res := driveCommit(t, db, []*Worker{w}); res.Version != c {
			t.Fatalf("commit %d at version %d", c, res.Version)
		}
	}
	w.Close()
	db.Close()
	r := mustRecover(t, Config{Records: 16, Checkpoints: ckpts})
	defer r.Close()
	if r.Version() != 6 || readKey(r, 0) != 5 {
		t.Fatalf("recovered version %d, key 0 = %d; want 6 and 5", r.Version(), readKey(r, 0))
	}
}

func TestCPRCommitAndRecover(t *testing.T) {
	for _, eng := range []EngineKind{EngineCPR, EngineCALC} {
		t.Run(eng.String(), func(t *testing.T) {
			ckpts := storage.NewMemCheckpointStore()
			db, err := Open(Config{Records: 100, Engine: eng, Checkpoints: ckpts})
			if err != nil {
				t.Fatal(err)
			}
			w := db.NewWorker()

			for i := uint64(0); i < 100; i++ {
				if res := w.Execute(write1(i, i+1)); res != Committed {
					t.Fatalf("write %d: %v", i, res)
				}
			}
			res := driveCommit(t, db, []*Worker{w})
			if res.Seqs[w] != 100 {
				t.Fatalf("CPR point = %d, want 100", res.Seqs[w])
			}
			// Uncommitted writes after the checkpoint.
			for i := uint64(0); i < 50; i++ {
				w.Execute(write1(i, 777))
			}
			w.Close()
			db.Close()

			r, err := Recover(Config{Records: 100, Engine: eng, Checkpoints: ckpts})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.Version() != 2 {
				t.Fatalf("recovered version = %d", r.Version())
			}
			for i := uint64(0); i < 100; i++ {
				got := binary.LittleEndian.Uint64(r.ReadValue(i, nil))
				if got != i+1 {
					t.Fatalf("key %d = %d, want %d (uncommitted leak or loss)", i, got, i+1)
				}
			}
		})
	}
}

func TestWALRecovery(t *testing.T) {
	dev := storage.NewMemDevice()
	db, err := Open(Config{Records: 50, Engine: EngineWAL, WALDevice: dev})
	if err != nil {
		t.Fatal(err)
	}
	w := db.NewWorker()
	for i := uint64(0); i < 50; i++ {
		if res := w.Execute(write1(i, i*3)); res != Committed {
			t.Fatalf("write %d: %v", i, res)
		}
	}
	if _, err := db.Commit(nil); err != nil { // force group commit
		t.Fatal(err)
	}
	w.Close()
	db.Close()

	r, err := Recover(Config{Records: 50, Engine: EngineWAL, WALDevice: dev})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := uint64(0); i < 50; i++ {
		if got := binary.LittleEndian.Uint64(r.ReadValue(i, nil)); got != i*3 {
			t.Fatalf("key %d = %d, want %d", i, got, i*3)
		}
	}
}

func TestCommitPrefixSemantics(t *testing.T) {
	// Each worker writes its own key range with values = sequence numbers;
	// after recovery, key i of worker w must hold a value consistent with
	// the worker's CPR point: values <= point kept, values > point absent.
	ckpts := storage.NewMemCheckpointStore()
	const workers = 4
	const keysPer = 64
	db, err := Open(Config{Records: workers * keysPer, Checkpoints: ckpts})
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]*Worker, workers)
	for i := range ws {
		ws[i] = db.NewWorker()
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	lastSeq := make([]uint64, workers)
	for i := range ws {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := ws[i]
			for n := uint64(1); ; n++ {
				select {
				case <-stop:
					lastSeq[i] = w.Seq()
					return
				default:
				}
				// Write (worker's base + seq%keysPer) = seq.
				key := uint64(i*keysPer) + n%keysPer
				for w.Execute(write1(key, n)) != Committed {
				}
			}
		}()
	}
	token, err := db.Commit(nil)
	if err != nil {
		t.Fatal(err)
	}
	res := db.WaitForCommit(token)
	close(stop)
	wg.Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for i := range ws {
		ws[i].Close()
	}
	db.Close()

	r, err := Recover(Config{Records: workers * keysPer, Checkpoints: ckpts})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, w := range ws {
		point := res.Seqs[w]
		if point == 0 {
			continue
		}
		// Every recovered value for this worker's keys must be <= its CPR
		// point (no post-point transaction may be visible).
		for k := uint64(0); k < keysPer; k++ {
			got := binary.LittleEndian.Uint64(r.ReadValue(uint64(i*keysPer)+k, nil))
			if got > point {
				t.Fatalf("worker %d key %d: recovered seq %d > CPR point %d", i, k, got, point)
			}
		}
		// And the latest pre-point write of each key must be present: for
		// key k, that is the largest n <= point with n%keysPer == k.
		for k := uint64(0); k < keysPer; k++ {
			var want uint64
			if point >= 1 {
				n := point - (point+keysPer-k)%keysPer
				want = n // largest n <= point congruent to k
			}
			if want == 0 {
				continue
			}
			got := binary.LittleEndian.Uint64(r.ReadValue(uint64(i*keysPer)+k, nil))
			if got != want {
				t.Fatalf("worker %d key %d: recovered %d, want %d (point %d)", i, k, got, want, point)
			}
		}
	}
}
