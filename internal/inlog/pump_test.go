package inlog

import (
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/storage"
)

func storeConfig(dev storage.Device, ckpts storage.CheckpointStore) faster.Config {
	return faster.Config{
		IndexBuckets: 1 << 8, PageBits: 12, MemPages: 8,
		Device: dev, Checkpoints: ckpts, RMW: faster.AddUint64{},
	}
}

func counterKey(i int) []byte {
	var k [8]byte
	binary.LittleEndian.PutUint64(k[:], uint64(i))
	return k[:]
}

var one = func() []byte {
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], 1)
	return v[:]
}()

// appendAdd appends "RMW key+=1" for record offset i (key = i % keys).
func appendAdd(t *testing.T, l *Log, i, keys int) {
	t.Helper()
	msg := EncodeMessage(nil, Message{Op: OpRMW, Key: counterKey(i % keys), Value: one})
	if _, err := l.Append(msg); err != nil {
		t.Fatal(err)
	}
}

func readCounter(t *testing.T, sess *faster.Session, key []byte) uint64 {
	t.Helper()
	var got uint64
	var done bool
	_, st := sess.Read(key, func(v []byte, s faster.Status) {
		done = true
		if s == faster.Ok {
			got = binary.LittleEndian.Uint64(v)
		}
	})
	if st == faster.Pending {
		sess.CompletePending(true)
	}
	if !done {
		t.Fatal("read never completed")
	}
	return got
}

// expectedCount is the value of counter k after records [0, tail) applied
// exactly once, where record o increments key o % keys.
func expectedCount(k, keys int, tail uint64) uint64 {
	if tail <= uint64(k) {
		return 0
	}
	return (tail-uint64(k)-1)/uint64(keys) + 1
}

func TestPumpAppliesAndCommitsWatermark(t *testing.T) {
	const n, keys = 60, 4
	segs := NewMemSegmentStore()
	l := mustOpen(t, Config{Segments: segs, SegmentBytes: 256})
	ckpts := storage.NewMemCheckpointStore()
	s, err := faster.Open(storeConfig(storage.NewMemDevice(), ckpts))
	if err != nil {
		t.Fatal(err)
	}
	p, err := StartPump(PumpConfig{Log: l, Store: s})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		appendAdd(t, l, i, keys)
	}
	if err := p.WaitApplied(n - 1); err != nil {
		t.Fatal(err)
	}

	token, err := s.Commit(faster.CommitOptions{WithIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	res := s.WaitForCommit(token)
	if res.Err != nil {
		t.Fatal(res.Err)
	}

	w, ok, err := LoadWatermark(ckpts, token)
	if err != nil || !ok {
		t.Fatalf("no watermark for %s: %v", token, err)
	}
	if w.Session != p.Session() || w.Offset != n || w.Serial != res.Serials[p.Session()] {
		t.Fatalf("watermark = %+v, want offset %d for serial %d",
			w, n, res.Serials[p.Session()])
	}

	// The trim hook fires after the commit; wait for the start to advance
	// past every fully-committed segment.
	deadline := time.Now().Add(2 * time.Second)
	for {
		infos := l.Segments()
		if len(infos) == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	infos := l.Segments()
	if len(infos) != 1 {
		t.Fatalf("trim left %d segments: %+v", len(infos), infos)
	}
	bases, _ := segs.List()
	if len(bases) != 1 {
		t.Fatalf("trimmed segments not deleted from store: %v", bases)
	}

	p.Close()
	s.Close()
	l.Close()
}

// TestPumpRecoveryReplaysSuffixExactlyOnce is the end-to-end contract: a
// crash after a commit recovers the store to the committed prefix and the
// pump replays only the log suffix above the recovered watermark — every
// durable record applied exactly once overall.
func TestPumpRecoveryReplaysSuffixExactlyOnce(t *testing.T) {
	const phaseA, phaseB, keys = 100, 80, 10
	segs := NewMemSegmentStore()
	l := mustOpen(t, Config{Segments: segs, SegmentBytes: 512, Fsync: FsyncManual})
	dev := storage.NewMemDevice()
	ckpts := storage.NewMemCheckpointStore()
	s, err := faster.Open(storeConfig(dev, ckpts))
	if err != nil {
		t.Fatal(err)
	}
	p, err := StartPump(PumpConfig{Log: l, Store: s})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < phaseA; i++ {
		appendAdd(t, l, i, keys)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.WaitApplied(phaseA - 1); err != nil {
		t.Fatal(err)
	}
	token, err := s.Commit(faster.CommitOptions{WithIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.WaitForCommit(token); res.Err != nil {
		t.Fatal(res.Err)
	}

	// Phase B lands in the log (durably) and is applied in memory, but no
	// further commit covers it.
	for i := phaseA; i < phaseA+phaseB; i++ {
		appendAdd(t, l, i, keys)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.WaitApplied(phaseA + phaseB - 1); err != nil {
		t.Fatal(err)
	}

	// Crash: clone checkpoints, then device, then the log's segments.
	ckCrash := ckpts.Clone()
	devCrash := dev.Clone()
	segCrash := segs.Clone()

	// Recover: the store restores the committed prefix (phase A only) ...
	r, err := faster.Open(storeConfig(devCrash, ckCrash))
	if err != nil {
		t.Fatal(err)
	}
	rl := mustOpen(t, Config{Segments: segCrash, Fsync: FsyncManual})
	rp, err := StartPump(PumpConfig{Log: rl, Store: r})
	if err != nil {
		t.Fatal(err)
	}
	// ... and the pump replays exactly the suffix above the watermark.
	if rp.Applied() > phaseA+phaseB {
		t.Fatalf("pump resumed at %d, beyond the durable tail", rp.Applied())
	}
	if err := rp.WaitApplied(phaseA + phaseB - 1); err != nil {
		t.Fatal(err)
	}

	check := r.StartSession()
	for k := 0; k < keys; k++ {
		want := expectedCount(k, keys, phaseA+phaseB)
		if got := readCounter(t, check, counterKey(k)); got != want {
			t.Fatalf("key %d = %d after recovery, want %d (exactly-once violated)", k, got, want)
		}
	}
	check.StopSession()
	rp.Close()
	r.Close()
	rl.Close()

	p.Close()
	s.Close()
	l.Close()
}

// TestPumpFreshStoreFromExistingLog: a brand-new store pointed at a log
// with existing durable records replays them all from offset zero.
func TestPumpFreshStoreFromExistingLog(t *testing.T) {
	const n, keys = 30, 3
	segs := NewMemSegmentStore()
	l := mustOpen(t, Config{Segments: segs})
	for i := 0; i < n; i++ {
		appendAdd(t, l, i, keys)
	}
	l.Close()

	re := mustOpen(t, Config{Segments: segs})
	s, err := faster.Open(storeConfig(storage.NewMemDevice(), storage.NewMemCheckpointStore()))
	if err != nil {
		t.Fatal(err)
	}
	p, err := StartPump(PumpConfig{Log: re, Store: s})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WaitApplied(n - 1); err != nil {
		t.Fatal(err)
	}
	check := s.StartSession()
	for k := 0; k < keys; k++ {
		if got, want := readCounter(t, check, counterKey(k)), expectedCount(k, keys, n); got != want {
			t.Fatalf("key %d = %d, want %d", k, got, want)
		}
	}
	check.StopSession()
	p.Close()
	s.Close()
	re.Close()
}

// TestPumpStopsOnFailedParkedOp: a record whose operation parks on a cold
// record and fails there — the device refuses the read — stops the pump before
// its group is published as applied, so no commit's watermark can cover the
// lost message.
func TestPumpStopsOnFailedParkedOp(t *testing.T) {
	const keys = 4000 // 32 KiB of frames hold 1365 of these records
	inj := storage.NewInjector(storage.FaultConfig{Seed: 1})
	l := mustOpen(t, Config{Segments: NewMemSegmentStore(), Fsync: FsyncManual})
	defer l.Close()
	s, err := faster.Open(storeConfig(storage.NewFaultDevice(storage.NewMemDevice(), inj), storage.NewMemCheckpointStore()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := StartPump(PumpConfig{Log: l, Store: s})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < keys; i++ {
		appendAdd(t, l, i, keys)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.WaitApplied(keys - 1); err != nil {
		t.Fatal(err)
	}
	s.Log().WaitDurable(s.Log().SafeReadOnly()) // no flush in flight when the device dies

	inj.FailPermanently()
	defer inj.Heal()
	appendAdd(t, l, keys, keys) // key 0 again: its record left memory long ago
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.WaitApplied(keys); err == nil {
		t.Fatal("the pump published a record whose operation failed as applied")
	}
	if got := p.Applied(); got != keys {
		t.Fatalf("applied offset %d, want %d: the failed record's group is not applied", got, keys)
	}
}

// TestIngestServerAcksAreDurable drives the TCP front door: every acked
// offset must already be durable in the log.
func TestIngestServerAcksAreDurable(t *testing.T) {
	segs := NewMemSegmentStore()
	l := mustOpen(t, Config{Segments: segs, Fsync: FsyncBatch, BatchRecords: 8,
		BatchInterval: time.Millisecond})
	defer l.Close()
	srv := NewIngestServer(l, nil, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c, err := DialIngest(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 50
	for i := 0; i < n; i++ {
		if err := c.Send(Message{Op: OpUpsert, Key: counterKey(i), Value: []byte(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		off, err := c.Ack()
		if err != nil {
			t.Fatal(err)
		}
		if off != uint64(i) {
			t.Fatalf("ack %d carried offset %d", i, off)
		}
		if l.Durable() <= off {
			t.Fatalf("offset %d acked while durable frontier is %d", off, l.Durable())
		}
	}
}

// TestIngestServerRefusesKeyTheStoreCannotHold: a message whose key the store
// cannot hold (empty, or longer than 65 535 bytes) is malformed. The server
// closes the connection without logging or acking it; before, it logged and
// acked it, and the pump's Upsert panicked on it then and on every replay.
func TestIngestServerRefusesKeyTheStoreCannotHold(t *testing.T) {
	for name, key := range map[string][]byte{"empty": nil, "65536 bytes": make([]byte, 1<<16)} {
		t.Run(name, func(t *testing.T) {
			l := mustOpen(t, Config{Segments: NewMemSegmentStore(), Fsync: FsyncBatch, BatchRecords: 8,
				BatchInterval: time.Millisecond})
			defer l.Close()
			srv := NewIngestServer(l, nil, nil)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln) //nolint:errcheck // returns nil on Close
			defer srv.Close()
			c, err := DialIngest(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Send(Message{Op: OpUpsert, Key: counterKey(1), Value: []byte("v")}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Ack(); err != nil {
				t.Fatal(err)
			}
			if err := c.Send(Message{Op: OpUpsert, Key: key, Value: []byte("v")}); err != nil {
				t.Fatal(err)
			}
			if off, err := c.Ack(); err == nil {
				t.Fatalf("the message was acked at offset %d", off)
			}
			if tail := l.Tail(); tail != 1 {
				t.Fatalf("log tail %d after the refused message, want 1", tail)
			}
		})
	}
}

// TestPumpResumesMidGroup: a CPR commit point can fall anywhere inside a
// group (the pump session crosses the version boundary between two records
// of one frame), so the recovered pump must be able to start in the middle
// of one. The crash image here holds the same 180 records as the live log,
// grouped so that the commit's watermark (100) lands inside a group.
func TestPumpResumesMidGroup(t *testing.T) {
	const committed, total, keys = 100, 180, 10
	l := mustOpen(t, Config{Segments: NewMemSegmentStore(), Fsync: FsyncManual})
	dev := storage.NewMemDevice()
	ckpts := storage.NewMemCheckpointStore()
	s, err := faster.Open(storeConfig(dev, ckpts))
	if err != nil {
		t.Fatal(err)
	}
	p, err := StartPump(PumpConfig{Log: l, Store: s})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < committed; i++ {
		appendAdd(t, l, i, keys)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.WaitApplied(committed - 1); err != nil {
		t.Fatal(err)
	}
	token, err := s.Commit(faster.CommitOptions{WithIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.WaitForCommit(token); res.Err != nil {
		t.Fatal(res.Err)
	}
	ckCrash, devCrash := ckpts.Clone(), dev.Clone()
	p.Close()
	s.Close()
	l.Close()

	segCrash := NewMemSegmentStore()
	regrouped := mustOpen(t, Config{Segments: segCrash, Fsync: FsyncManual})
	for i := 0; i < total; i++ {
		appendAdd(t, regrouped, i, keys)
		if i == 69 { // groups [0, 70) and [70, 180)
			if err := regrouped.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	regrouped.Close()

	r, err := faster.Open(storeConfig(devCrash, ckCrash))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rl := mustOpen(t, Config{Segments: segCrash, Fsync: FsyncManual})
	defer rl.Close()
	rp, err := StartPump(PumpConfig{Log: rl, Store: r})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if err := rp.WaitApplied(total - 1); err != nil {
		t.Fatal(err)
	}
	check := r.StartSession()
	defer check.StopSession()
	for k := 0; k < keys; k++ {
		if got, want := readCounter(t, check, counterKey(k)), expectedCount(k, keys, total); got != want {
			t.Fatalf("key %d = %d after a mid-group resume, want %d (exactly-once violated)", k, got, want)
		}
	}
}

// TestStartPumpRacesNoCommit is the -race regression for Store.OnCommit /
// OnCommitArtifact: registering the pump's hooks right after one commit
// completed (its checkpoint goroutine is still past close(done)) and while
// the next is in flight must not touch anything that goroutine reads
// unlocked.
func TestStartPumpRacesNoCommit(t *testing.T) {
	l := mustOpen(t, Config{Segments: NewMemSegmentStore(), Fsync: FsyncManual})
	defer l.Close()
	s, err := faster.Open(storeConfig(storage.NewMemDevice(), storage.NewMemCheckpointStore()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	commit := func() string {
		token, err := s.Commit(faster.CommitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return token
	}
	if res := s.WaitForCommit(commit()); res.Err != nil {
		t.Fatal(res.Err)
	}
	inflight := commit()
	p, err := StartPump(PumpConfig{Log: l, Store: s})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if res := s.WaitForCommit(inflight); res.Err != nil {
		t.Fatal(res.Err)
	}
	// The hooks registered mid-flight serve the next commit.
	appendAdd(t, l, 0, 1)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.WaitApplied(0); err != nil {
		t.Fatal(err)
	}
	token := commit()
	if res := s.WaitForCommit(token); res.Err != nil {
		t.Fatal(res.Err)
	}
	if w, ok, err := LoadWatermark(s.Checkpoints(), token); err != nil || !ok || w.Offset != 1 {
		t.Fatalf("watermark of %s = (%+v, %v, %v), want offset 1", token, w, ok, err)
	}
}

// TestIngestServerFlushesAcksBeforeWaiting: acks that one group commit
// released must reach the client even when the connection's next offset is
// still waiting for its own group — the ack loop may batch, never withhold.
func TestIngestServerFlushesAcksBeforeWaiting(t *testing.T) {
	gate := &gateDevice{entered: make(chan struct{}), release: make(chan struct{})}
	l := mustOpen(t, Config{
		Segments: NewMemSegmentStore(), Fsync: FsyncManual,
		WrapDevice: func(d storage.Device) (storage.Device, error) {
			gate.Device = d
			return gate, nil
		},
	})
	srv := NewIngestServer(l, nil, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // returns nil on Close
	defer srv.Close()
	c, err := DialIngest(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	send := func(i int) {
		t.Helper()
		if err := c.Send(Message{Op: OpUpsert, Key: counterKey(i), Value: one}); err != nil {
			t.Fatal(err)
		}
		for l.Tail() <= uint64(i) { // appended and queued for its ack
			time.Sleep(100 * time.Microsecond)
		}
	}
	send(0)
	send(1)
	synced := make(chan error, 1)
	go func() { synced <- l.Sync() }()
	<-gate.entered // group [0, 2) is inside its fsync
	send(2)        // queued behind 0 and 1, in the next group
	gate.release <- struct{}{}
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	got := make(chan uint64)
	go func() {
		for i := 0; i < 3; i++ {
			off, err := c.Ack()
			if err != nil {
				t.Error(err)
				return
			}
			got <- off
		}
	}()
	for want := uint64(0); want < 2; want++ {
		select {
		case off := <-got:
			if off != want {
				t.Fatalf("ack = %d, want %d", off, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("ack %d withheld while offset 2 waits for its group", want)
		}
	}
	go func() { <-gate.entered; gate.release <- struct{}{} }()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if off := <-got; off != 2 {
		t.Fatalf("last ack = %d, want 2", off)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
