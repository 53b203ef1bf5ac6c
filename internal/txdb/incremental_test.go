package txdb

import (
	"testing"

	"repro/internal/storage"
)

func TestIncrementalDeltaSmallerThanFull(t *testing.T) {
	const records = 10000
	ckpts := storage.NewMemCheckpointStore()
	db := mustOpen(t, Config{Records: records, Checkpoints: ckpts, Incremental: true, FullEvery: 100})
	w := db.NewWorker()

	// Commit 1 is always full.
	for k := uint64(0); k < records; k++ {
		writeKey(t, w, k, k)
	}
	res1 := driveCommit(t, db, []*Worker{w})
	if res1.Delta || res1.Bytes != records*8 {
		t.Fatalf("first commit: delta %v, %d bytes; want a full capture of %d", res1.Delta, res1.Bytes, records*8)
	}

	// Commit 2: only 10 records written -> tiny delta.
	for k := uint64(0); k < 10; k++ {
		writeKey(t, w, k, k+1000)
	}
	res2 := driveCommit(t, db, []*Worker{w})
	if !res2.Delta || res2.Bytes >= res1.Bytes/10 {
		t.Fatalf("second commit: delta %v, %d bytes; want a delta ≪ the full %d", res2.Delta, res2.Bytes, res1.Bytes)
	}
	w.Close()
	db.Close()

	// Recovery applies full + delta.
	r := mustRecover(t, Config{Records: records, Checkpoints: ckpts, Incremental: true, FullEvery: 100})
	defer r.Close()
	for k := uint64(0); k < records; k++ {
		want := k
		if k < 10 {
			want = k + 1000
		}
		if got := readKey(r, k); got != want {
			t.Fatalf("key %d = %d, want %d", k, got, want)
		}
	}
}

func TestIncrementalChainAcrossManyCommits(t *testing.T) {
	const records = 256
	ckpts := storage.NewMemCheckpointStore()
	cfg := Config{Records: records, Checkpoints: ckpts, Incremental: true, FullEvery: 4}
	db := mustOpen(t, cfg)
	w := db.NewWorker()
	model := make([]uint64, records)

	sawFull, sawDelta := 0, 0
	for c := 0; c < 10; c++ {
		// Each round writes a distinct sparse slice of keys.
		for k := uint64(c); k < records; k += 10 {
			v := uint64(c)*1000 + k
			writeKey(t, w, k, v)
			model[k] = v
		}
		if driveCommit(t, db, []*Worker{w}).Delta {
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

	r := mustRecover(t, cfg)
	defer r.Close()
	for k := uint64(0); k < records; k++ {
		if got := readKey(r, k); got != model[k] {
			t.Fatalf("key %d = %d, model %d", k, got, model[k])
		}
	}
}

func TestIncrementalDeltaCapturesShiftedRecords(t *testing.T) {
	// A record written during version v and shifted to v+1 by a concurrent
	// in-progress write must appear in v's delta with its stable value.
	ckpts := storage.NewMemCheckpointStore()
	db := mustOpen(t, Config{Records: 8, Checkpoints: ckpts, Incremental: true, FullEvery: 100})
	w := db.NewWorker()

	// Full base.
	writeKey(t, w, 0, 1)
	driveCommit(t, db, []*Worker{w})

	// Version 2: write key 0 = 2; then start a commit and — while the
	// worker is in in-progress — write key 0 = 3 (a v+1 write that shifts
	// the record and stashes 2 in stable).
	writeKey(t, w, 0, 2)
	token, err := db.Commit(nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Refresh() // prepare
	w.Refresh() // in-progress
	writeKey(t, w, 0, 3)
	if res := awaitCommit(t, db, token, []*Worker{w}); !res.Delta {
		t.Fatal("expected delta commit")
	}
	w.Close()
	db.Close()

	r := mustRecover(t, Config{Records: 8, Checkpoints: ckpts, Incremental: true, FullEvery: 100})
	defer r.Close()
	if got := readKey(r, 0); got != 2 {
		t.Fatalf("recovered key 0 = %d, want 2 (the committed-version value)", got)
	}
}
