package cpr

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"
)

func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// awaitCommit calls refresh until done reports the commit complete, and fails
// the test if it completed with an error. Bounded by wall time, not by a pass
// count: each pass yields, so the goroutine that flushes the commit runs even
// on one processor.
func awaitCommit(t *testing.T, done func() (bool, error), refresh func()) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if ok, err := done(); ok {
			if err != nil {
				t.Fatal(err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("commit did not finish in 30 s")
		}
		refresh()
		runtime.Gosched()
	}
}

// TestPublicStoreRoundTrip exercises the public Store API end to end:
// operate, commit, crash, recover, continue session.
func TestPublicStoreRoundTrip(t *testing.T) {
	device := NewMemDevice()
	checkpoints := NewMemCheckpointStore()
	store, err := OpenStore(StoreConfig{Device: device, Checkpoints: checkpoints})
	if err != nil {
		t.Fatal(err)
	}
	sess := store.StartSession()
	id := sess.ID()
	for i := uint64(0); i < 500; i++ {
		if st := sess.Upsert(u64(i), u64(i+1)); st != Ok {
			t.Fatalf("upsert: %v", st)
		}
	}
	token, err := store.Commit(CommitOptions{WithIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	awaitCommit(t, func() (bool, error) { res, ok := store.TryResult(token); return ok, res.Err }, sess.Refresh)
	sess.Upsert(u64(0), u64(4242)) // lost in the crash
	store.Close()

	recovered, err := RecoverStore(StoreConfig{Device: device, Checkpoints: checkpoints})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	rs, point := recovered.ContinueSession(id)
	defer rs.StopSession()
	if point != 500 {
		t.Fatalf("CPR point = %d, want 500", point)
	}
	val, st := rs.Read(u64(0), nil)
	if st != Ok || binary.LittleEndian.Uint64(val) != 1 {
		t.Fatalf("key 0 = %v (%v), want 1", val, st)
	}
}

// TestPublicDBRoundTrip exercises the public transactional-database API.
func TestPublicDBRoundTrip(t *testing.T) {
	checkpoints := NewMemCheckpointStore()
	db, err := OpenDB(DBConfig{Records: 64, Checkpoints: checkpoints})
	if err != nil {
		t.Fatal(err)
	}
	w := db.NewWorker()
	txn := &Txn{Ops: []Op{{Key: 1, Write: true}, {Key: 2, Write: true}}, WriteValue: u64(7)}
	if res := w.Execute(txn); res != Committed {
		t.Fatalf("execute: %v", res)
	}
	token, err := db.Commit(nil)
	if err != nil {
		t.Fatal(err)
	}
	awaitCommit(t, func() (bool, error) { res, ok := db.TryResult(token); return ok, res.Err }, w.Refresh)
	w.Close()
	db.Close()

	rdb, err := RecoverDB(DBConfig{Records: 64, Checkpoints: checkpoints})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if got := binary.LittleEndian.Uint64(rdb.ReadValue(1, nil)); got != 7 {
		t.Fatalf("recovered key 1 = %d, want 7", got)
	}
}

// TestPublicRMW checks the default AddUint64 semantics through the alias.
func TestPublicRMW(t *testing.T) {
	store, err := OpenStore(StoreConfig{RMW: AddUint64{}})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sess := store.StartSession()
	defer sess.StopSession()
	for i := 0; i < 5; i++ {
		sess.RMW(u64(9), u64(2))
	}
	val, st := sess.Read(u64(9), nil)
	if st != Ok || binary.LittleEndian.Uint64(val) != 10 {
		t.Fatalf("rmw sum = %v (%v), want 10", val, st)
	}
}
