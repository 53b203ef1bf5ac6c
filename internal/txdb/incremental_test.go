package txdb

import (
	"encoding/binary"
	"testing"

	"repro/internal/storage"
)

func TestIncrementalDeltaSmallerThanFull(t *testing.T) {
	const records = 10000
	ckpts := storage.NewMemCheckpointStore()
	db, err := Open(Config{Records: records, Checkpoints: ckpts, Incremental: true, FullEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	w := db.NewWorker()
	val := make([]byte, 8)

	// Commit 1 is always full.
	for k := uint64(0); k < records; k++ {
		binary.LittleEndian.PutUint64(val, k)
		for w.Execute(&Txn{Ops: []Op{{Key: k, Write: true}}, WriteValue: val}) != Committed {
		}
	}
	res1 := driveCommit(t, db, []*Worker{w})
	if res1.Delta {
		t.Fatal("first commit must be a full capture")
	}
	if res1.Bytes != records*8 {
		t.Fatalf("full capture bytes = %d, want %d", res1.Bytes, records*8)
	}

	// Commit 2: only 10 records written -> tiny delta.
	for k := uint64(0); k < 10; k++ {
		binary.LittleEndian.PutUint64(val, k+1000)
		for w.Execute(&Txn{Ops: []Op{{Key: k, Write: true}}, WriteValue: val}) != Committed {
		}
	}
	res2 := driveCommit(t, db, []*Worker{w})
	if !res2.Delta {
		t.Fatal("second commit should be a delta")
	}
	if res2.Bytes >= res1.Bytes/10 {
		t.Fatalf("delta bytes %d not ≪ full %d", res2.Bytes, res1.Bytes)
	}
	w.Close()
	db.Close()

	// Recovery applies full + delta.
	r, err := Recover(Config{Records: records, Checkpoints: ckpts, Incremental: true, FullEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for k := uint64(0); k < records; k++ {
		want := k
		if k < 10 {
			want = k + 1000
		}
		if got := binary.LittleEndian.Uint64(r.ReadValue(k, nil)); got != want {
			t.Fatalf("key %d = %d, want %d", k, got, want)
		}
	}
}

func TestIncrementalChainAcrossManyCommits(t *testing.T) {
	const records = 256
	ckpts := storage.NewMemCheckpointStore()
	cfg := Config{Records: records, Checkpoints: ckpts, Incremental: true, FullEvery: 4}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := db.NewWorker()
	val := make([]byte, 8)
	model := make([]uint64, records)

	sawFull, sawDelta := 0, 0
	for c := 0; c < 10; c++ {
		// Each round writes a distinct sparse slice of keys.
		for k := uint64(c); k < records; k += 10 {
			v := uint64(c)*1000 + k
			binary.LittleEndian.PutUint64(val, v)
			for w.Execute(&Txn{Ops: []Op{{Key: k, Write: true}}, WriteValue: val}) != Committed {
			}
			model[k] = v
		}
		res := driveCommit(t, db, []*Worker{w})
		if res.Delta {
			sawDelta++
		} else {
			sawFull++
		}
	}
	if sawFull < 2 || sawDelta < 5 {
		t.Fatalf("expected a mix of full and delta commits, got full=%d delta=%d", sawFull, sawDelta)
	}
	w.Close()
	db.Close()

	r, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for k := uint64(0); k < records; k++ {
		if got := binary.LittleEndian.Uint64(r.ReadValue(k, nil)); got != model[k] {
			t.Fatalf("key %d = %d, model %d", k, got, model[k])
		}
	}
}

func TestIncrementalDeltaCapturesShiftedRecords(t *testing.T) {
	// A record written during version v and shifted to v+1 by a concurrent
	// in-progress write must appear in v's delta with its stable value.
	ckpts := storage.NewMemCheckpointStore()
	db, err := Open(Config{Records: 8, Checkpoints: ckpts, Incremental: true, FullEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	w := db.NewWorker()
	val := make([]byte, 8)

	// Full base.
	binary.LittleEndian.PutUint64(val, 1)
	for w.Execute(&Txn{Ops: []Op{{Key: 0, Write: true}}, WriteValue: val}) != Committed {
	}
	driveCommit(t, db, []*Worker{w})

	// Version 2: write key 0 = 2; then start a commit and — while the
	// worker is in in-progress — write key 0 = 3 (a v+1 write that shifts
	// the record and stashes 2 in stable).
	binary.LittleEndian.PutUint64(val, 2)
	for w.Execute(&Txn{Ops: []Op{{Key: 0, Write: true}}, WriteValue: val}) != Committed {
	}
	token, err := db.Commit(nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Refresh() // prepare
	w.Refresh() // in-progress
	binary.LittleEndian.PutUint64(val, 3)
	for w.Execute(&Txn{Ops: []Op{{Key: 0, Write: true}}, WriteValue: val}) != Committed {
	}
	if res := awaitCommit(t, db, token, []*Worker{w}); !res.Delta {
		t.Fatal("expected delta commit")
	}
	w.Close()
	db.Close()

	r, err := Recover(Config{Records: 8, Checkpoints: ckpts, Incremental: true, FullEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := binary.LittleEndian.Uint64(r.ReadValue(0, nil)); got != 2 {
		t.Fatalf("recovered key 0 = %d, want 2 (the committed-version value)", got)
	}
}
