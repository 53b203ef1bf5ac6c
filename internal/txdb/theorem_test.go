package txdb

import (
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/storage"
)

// TestTheorem1TransactionalConsistency verifies property (a) of Theorem 1:
// the captured snapshot is transactionally consistent. Concurrent workers
// execute 2-key transactions that write the same value to both keys of a
// fixed pair; any transactionally consistent snapshot must therefore show
// equal values within every pair — a torn transaction would surface as a
// mismatched pair after recovery.
func TestTheorem1TransactionalConsistency(t *testing.T) {
	const pairs = 128
	const workers = 4
	ckpts := storage.NewMemCheckpointStore()
	db, err := Open(Config{Records: pairs * 2, Checkpoints: ckpts})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for wi := 0; wi < workers; wi++ {
		wi := wi
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := db.NewWorker()
			defer w.Close()
			val := make([]byte, 8)
			rng := uint64(wi)*88 + 3
			for n := uint64(1); ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				p := rng % pairs
				binary.LittleEndian.PutUint64(val, uint64(wi)<<32|n)
				txn := &Txn{Ops: []Op{
					{Key: p * 2, Write: true},
					{Key: p*2 + 1, Write: true},
				}, WriteValue: val}
				w.Execute(txn)
			}
		}()
	}

	// Take several commits while the writers run.
	for c := 0; c < 3; c++ {
		token, err := db.Commit(nil)
		if err != nil {
			t.Fatal(err)
		}
		if res := db.WaitForCommit(token); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	close(stop)
	wg.Wait()
	db.Close()

	r, err := Open(Config{Records: pairs * 2, Checkpoints: ckpts})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for p := uint64(0); p < pairs; p++ {
		a := binary.LittleEndian.Uint64(r.ReadValue(p*2, nil))
		b := binary.LittleEndian.Uint64(r.ReadValue(p*2+1, nil))
		if a != b {
			t.Fatalf("pair %d torn in snapshot: %d != %d (transaction split across the commit)", p, a, b)
		}
	}
}

// TestModelSingleWorker runs random transactions against a map oracle on
// one worker (no concurrency): the live database must track the model
// exactly, and recovery must reproduce the model state at the commit.
func TestModelSingleWorker(t *testing.T) {
	const keys = 64
	ckpts := storage.NewMemCheckpointStore()
	db, err := Open(Config{Records: keys, Checkpoints: ckpts})
	if err != nil {
		t.Fatal(err)
	}
	w := db.NewWorker()
	model := make([]uint64, keys)
	rng := uint64(42)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	val := make([]byte, 8)
	for i := 0; i < 20000; i++ {
		k := next() % keys
		v := next()
		binary.LittleEndian.PutUint64(val, v)
		txn := &Txn{Ops: []Op{{Key: k, Write: true}}, WriteValue: val}
		if res := w.Execute(txn); res != Committed {
			t.Fatalf("txn %d: %v", i, res)
		}
		model[k] = v
		if i%5000 == 4999 {
			// Live read-back must match the model.
			probe := next() % keys
			if got := binary.LittleEndian.Uint64(db.ReadValue(probe, nil)); got != model[probe] {
				t.Fatalf("live key %d = %d, model %d", probe, got, model[probe])
			}
		}
	}
	driveCommit(t, db, []*Worker{w})
	w.Close()
	db.Close()

	r, err := Open(Config{Records: keys, Checkpoints: ckpts})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for k := uint64(0); k < keys; k++ {
		if got := binary.LittleEndian.Uint64(r.ReadValue(k, nil)); got != model[k] {
			t.Fatalf("recovered key %d = %d, model %d", k, got, model[k])
		}
	}
}
