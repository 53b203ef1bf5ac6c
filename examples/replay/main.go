// Replay: the end-to-end client contract of Sec. 7.3.4 and footnote 1. A
// producer feeds operations from a replayable message log (standing in for
// Kafka) into a CPR-enabled FASTER store. Each CPR commit returns a
// per-session commit point; the pump persists it as an offset watermark and
// trims the log up to that point. After a crash, recovery re-establishes
// the session, converts the recovered CPR point back to a log offset, and
// replays exactly the untrimmed suffix — no operation is lost or applied
// twice.
//
// Where the original version of this example simulated the message log with
// an in-process slice, this one runs the real thing: internal/inlog's
// segmented durable log and its apply pump.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"time"

	cpr "repro"
	"repro/internal/inlog"
)

func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func main() {
	// The durable input feed: a segmented ingestion log. Segments live in a
	// MemSegmentStore so the example is self-contained; swap in
	// DirSegmentStore for real files.
	segments := inlog.NewMemSegmentStore()
	feed, err := inlog.Open(inlog.Config{Segments: segments, SegmentBytes: 64 << 10})
	if err != nil {
		log.Fatal(err)
	}

	device := cpr.NewMemDevice()
	checkpoints := cpr.NewMemCheckpointStore()
	store, err := cpr.OpenStore(cpr.StoreConfig{Device: device, Checkpoints: checkpoints})
	if err != nil {
		log.Fatal(err)
	}

	// The apply pump owns a FASTER session and drains durable records into
	// it — message offset n is session serial point+n, so every CPR point
	// maps directly to a feed offset (the watermark pins that mapping).
	pump, err := inlog.StartPump(inlog.PumpConfig{Log: feed, Store: store})
	if err != nil {
		log.Fatal(err)
	}

	// produce appends RMW increments for offsets [from, to): key off%100 += 1.
	produce := func(from, to uint64) {
		for off := from; off < to; off++ {
			msg := inlog.EncodeMessage(nil, inlog.Message{
				Op: inlog.OpRMW, Key: u64(off % 100), Value: u64(1),
			})
			if _, err := feed.Append(msg); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Feed 30k messages, wait for the pump to apply them, then commit. The
	// commit carries the pump session's watermark, and committed-out
	// segments are trimmed — the feed's retained prefix shrinks.
	produce(0, 30_000)
	if err := pump.WaitApplied(30_000 - 1); err != nil {
		log.Fatal(err)
	}
	token, err := store.Commit(cpr.CommitOptions{WithIndex: true})
	if err != nil {
		log.Fatal(err)
	}
	if res := store.WaitForCommit(token); res.Err != nil {
		log.Fatal(res.Err)
	}
	w, ok, err := inlog.LoadWatermark(checkpoints, token)
	if err != nil || !ok {
		log.Fatalf("commit %s carried no watermark: %v", token, err)
	}
	fmt.Printf("commit %s done: watermark offset %d, feed trimmed to %d\n",
		token, w.Offset, feed.Start())

	// 20k more messages land durably in the feed and are applied in memory,
	// but no commit covers them — they are exactly what a crash loses from
	// the store and what the feed must replay.
	produce(30_000, 50_000)
	if err := pump.WaitApplied(50_000 - 1); err != nil {
		log.Fatal(err)
	}
	fmt.Println("applied 20k more messages (uncommitted), crashing now")
	pump.Close()
	store.Close() // crash: the store's in-memory suffix is gone

	// Reopen: the store recovers the committed prefix; reopening the feed
	// and restarting the pump replays the suffix above the recovered
	// watermark. The replay extent is derived, not guessed: recovered CPR
	// point -> watermark anchor -> feed offset.
	t0 := time.Now()
	recovered, err := cpr.OpenStore(cpr.StoreConfig{Device: device, Checkpoints: checkpoints})
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()
	fmt.Printf("recovered by full replay: serving after %v\n", time.Since(t0))
	refeed, err := inlog.Open(inlog.Config{Segments: segments})
	if err != nil {
		log.Fatal(err)
	}
	defer refeed.Close()
	repump, err := inlog.StartPump(inlog.PumpConfig{Log: refeed, Store: recovered})
	if err != nil {
		log.Fatal(err)
	}
	defer repump.Close()
	fmt.Printf("recovered CPR point maps to offset %d; replaying feed suffix [%d, %d)\n",
		repump.Applied(), repump.Applied(), refeed.Tail())
	if err := repump.WaitApplied(refeed.Tail() - 1); err != nil {
		log.Fatal(err)
	}

	// Verify exactly-once application: every counter must equal 500.
	sess := recovered.StartSession()
	defer sess.StopSession()
	for k := uint64(0); k < 100; k++ {
		val, st := sess.Read(u64(k), nil)
		if st == cpr.Pending {
			sess.CompletePending(true)
			continue
		}
		if st != cpr.Ok {
			log.Fatalf("counter %d: %v", k, st)
		}
		if got := binary.LittleEndian.Uint64(val); got != 500 {
			log.Fatalf("counter %d = %d, want 500 (lost or duplicated messages)", k, got)
		}
	}
	fmt.Println("all 100 counters = 500: exactly-once across the crash ✔")
}
