package inlog

import (
	"bytes"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/storage"
)

// Crash-torture: seeded crashes at every stage of a group's life — buffered
// but not written, written but not fsynced, torn mid-write — and mid-commit
// and mid-trim. Every crash image must recover to a state containing exactly
// the records the reopened log retains — each acked offset applied exactly
// once, and nothing that the log lost (never-fsynced appends) surviving as
// applied. The workload is self-describing: record o is "RMW key (o % keys)
// += 1", so the exact expected value of every counter is computable from
// the reopened log's tail alone.

const tortureKeys = 5

// crashImage is a hard-crash snapshot: cloned in write-ordering order —
// checkpoint store, then the store's log device, then the ingestion-log
// segments — paired with the ack frontier the client had observed.
type crashImage struct {
	name  string
	acked uint64
	ck    *storage.MemCheckpointStore
	dev   *storage.MemDevice
	segs  *MemSegmentStore
}

// rig wires the full stack: ingestion log over SyncBufferDevice(FaultDevice)
// segments (so crashes drop unsynced groups and armed faults tear fsyncs),
// a FASTER store whose checkpoint artifacts flow through the same injector
// (for named commit crash points), and the apply pump between them.
type rig struct {
	t     *testing.T
	segs  *MemSegmentStore
	inj   *storage.Injector
	memCk *storage.MemCheckpointStore
	dev   *storage.MemDevice
	log   *Log
	store *faster.Store
	pump  *Pump
	acked atomic.Uint64
	next  int // next record index to append
	// beforeSync, when set, fires once at the next segment Sync: the group
	// has been written (to the page-cache model) and not yet fsynced.
	beforeSync func()
}

// syncHookDevice is the rig's top device layer: it gives tests the instant
// between a commit step's WriteAt and its Sync.
type syncHookDevice struct {
	storage.Device
	r *rig
}

func (d syncHookDevice) Sync() error {
	if fn := d.r.beforeSync; fn != nil {
		d.r.beforeSync = nil
		fn()
	}
	return d.Device.Sync()
}

func newRig(t *testing.T, segmentBytes int64) *rig {
	t.Helper()
	r := &rig{
		t:     t,
		segs:  NewMemSegmentStore(),
		inj:   storage.NewInjector(storage.FaultConfig{Seed: 1}),
		memCk: storage.NewMemCheckpointStore(),
		dev:   storage.NewMemDevice(),
	}
	var err error
	r.log, err = Open(Config{
		Segments: r.segs, SegmentBytes: segmentBytes, Fsync: FsyncManual,
		WrapDevice: func(d storage.Device) (storage.Device, error) {
			buffered, err := storage.NewSyncBufferDevice(storage.NewFaultDevice(d, r.inj))
			return syncHookDevice{buffered, r}, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.store, err = faster.Open(faster.Config{
		IndexBuckets: 1 << 8, PageBits: 12, MemPages: 8,
		Device:      r.dev,
		Checkpoints: storage.NewFaultCheckpointStore(r.memCk, r.inj),
		RMW:         faster.AddUint64{},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.pump, err = StartPump(PumpConfig{Log: r.log, Store: r.store})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *rig) append(n int) {
	for i := 0; i < n; i++ {
		appendAdd(r.t, r.log, r.next, tortureKeys)
		r.next++
	}
}

// appendGroups appends n records and syncs after every per of them, so the
// log holds them as groups of (at most) per records.
func (r *rig) appendGroups(n, per int) {
	for ; n > 0; n -= per {
		r.append(min(n, per))
		r.sync()
	}
}

// sync commits everything appended since the last sync as one group and
// advances the client-visible ack frontier — the moment after which those
// offsets count as acked for the crash contract.
func (r *rig) sync() {
	if err := r.log.Sync(); err != nil {
		r.t.Fatal(err)
	}
	r.acked.Store(r.log.Durable())
}

func (r *rig) waitApplied() {
	if r.next > 0 {
		if err := r.pump.WaitApplied(uint64(r.next) - 1); err != nil {
			r.t.Fatal(err)
		}
	}
}

func (r *rig) commit() faster.CommitResult {
	token, err := r.store.Commit(faster.CommitOptions{WithIndex: true})
	if err != nil {
		r.t.Fatal(err)
	}
	res := r.store.WaitForCommit(token)
	if res.Err != nil {
		r.t.Fatalf("commit %s: %v", token, res.Err)
	}
	return res
}

// snap takes a crash image. Safe to call from fault-injection callbacks:
// it reads the ack frontier first (conservative — an ack that races the
// clone is simply not checked) and touches no Log locks.
func (r *rig) snap(name string) crashImage {
	return crashImage{
		name:  name,
		acked: r.acked.Load(),
		ck:    r.memCk.Clone(),
		dev:   r.dev.Clone(),
		segs:  r.segs.Clone(),
	}
}

func (r *rig) close() {
	r.pump.Close()
	r.store.Close()
	r.log.Close()
}

// verifyImage recovers from a crash image and asserts the exactly-once
// contract.
func verifyImage(t *testing.T, img crashImage) {
	t.Helper()
	cfg := faster.Config{IndexBuckets: 1 << 8, PageBits: 12, MemPages: 8,
		Device: img.dev, Checkpoints: img.ck, RMW: faster.AddUint64{}}
	s, report, err := faster.RecoverWithReport(cfg)
	if err != nil {
		// No commit had completed in this image: recovery is a fresh store
		// fed by a full log replay.
		cfg.Device = storage.NewMemDevice()
		cfg.Checkpoints = storage.NewMemCheckpointStore()
		if s, err = faster.Open(cfg); err != nil {
			t.Fatalf("%s: %v", img.name, err)
		}
	} else if w, ok, err := LoadWatermark(img.ck, report.Token); err != nil || !ok || w.Token != report.Token {
		// Every commit of the rig is taken with the pump registered, and a
		// commit is one record: the one recovery chose carries its watermark.
		t.Fatalf("%s: recovered %s, its watermark = (%+v, %v, %v)", img.name, report.Token, w, ok, err)
	}
	l, err := Open(Config{Segments: img.segs, Fsync: FsyncManual})
	if err != nil {
		t.Fatalf("%s: reopen log: %v", img.name, err)
	}
	tail := l.Tail()
	if tail < img.acked {
		t.Fatalf("%s: log lost acked records: tail %d < acked %d", img.name, tail, img.acked)
	}
	p, err := StartPump(PumpConfig{Log: l, Store: s})
	if err != nil {
		t.Fatalf("%s: %v", img.name, err)
	}
	if tail > 0 {
		if err := p.WaitApplied(tail - 1); err != nil {
			t.Fatalf("%s: %v", img.name, err)
		}
	}
	sess := s.StartSession()
	for k := 0; k < tortureKeys; k++ {
		want := expectedCount(k, tortureKeys, tail)
		got := readCounter(t, sess, counterKey(k))
		if got != want {
			t.Fatalf("%s: key %d = %d, want %d (tail %d, acked %d): exactly-once violated",
				img.name, k, got, want, tail, img.acked)
		}
	}
	sess.StopSession()
	p.Close()
	s.Close()
	l.Close()
}

// TestTortureMidAppend: crash with a group buffered but never written —
// it must vanish, everything acked must survive.
func TestTortureMidAppend(t *testing.T) {
	for seed := 1; seed <= 3; seed++ {
		r := newRig(t, 1<<20)
		r.append(30)
		r.sync()
		r.waitApplied()
		r.commit()
		r.append(10)
		r.sync()
		r.append(3 + 2*seed) // never synced: must not survive the crash
		img := r.snap(fmt.Sprintf("mid-append/seed%d", seed))
		r.close()
		verifyImage(t, img)
		if img.acked != 40 {
			t.Fatalf("seed %d: acked = %d, want 40", seed, img.acked)
		}
		if tail := reopenedTail(t, img); tail != 40 {
			t.Fatalf("seed %d: crash image tail = %d, want 40 (buffered group dropped)", seed, tail)
		}
	}
}

// reopenedTail reopens (a copy of) the image's segments and returns the tail.
func reopenedTail(t *testing.T, img crashImage) uint64 {
	t.Helper()
	l, err := Open(Config{Segments: img.segs.Clone(), Fsync: FsyncManual})
	if err != nil {
		t.Fatalf("%s: reopen log: %v", img.name, err)
	}
	defer l.Close()
	return l.Tail()
}

// TestTortureMidFsync: the crash strikes inside a commit step. Either the
// group is written but its fsync never ran — nothing of it is on the medium
// — or the fsync's flush is torn and a prefix of the frame is. Both ways the
// reopened log must end at the previous group, losing only unacked records,
// and never a part of the group.
func TestTortureMidFsync(t *testing.T) {
	for seed := 1; seed <= 3; seed++ {
		for _, stage := range []string{"written-not-synced", "torn-write"} {
			r := newRig(t, 1<<20) // single segment: each commit step is one flush write
			r.append(25)
			r.sync() // flush write #1
			r.waitApplied()
			r.commit()
			r.append(10 + 3*seed)
			var img crashImage
			name := fmt.Sprintf("mid-fsync/%s/seed%d", stage, seed)
			if stage == "torn-write" {
				r.inj.ArmDeviceWrite(2, func() { img = r.snap(name) }) // tear flush write #2
			} else {
				r.beforeSync = func() { img = r.snap(name) }
			}
			r.sync()
			if img.ck == nil {
				t.Fatalf("%s: crash point never fired", name)
			}
			r.waitApplied()
			r.close()
			verifyImage(t, img)
			// The crash hit after group A was acked but before group B's sync
			// returned, so the image's ack frontier — and its log — end at A.
			if img.acked != 25 {
				t.Fatalf("%s: acked = %d, want 25", name, img.acked)
			}
			if tail := reopenedTail(t, img); tail != 25 {
				t.Fatalf("%s: crash image tail = %d, want 25 (no part of a torn group survives)", name, tail)
			}
		}
	}
}

// TestTortureMidCommit: crashes at every interesting instant of the commit
// pipeline — mid and after the index blob's write, and before, mid and after
// the write of the commit record, which carries the watermark. Recovery must
// land on the previous commit or on this one whole (verifyImage: whichever
// commit it takes has its watermark in its own record) and the anchor
// arithmetic must produce an exact replay offset.
func TestTortureMidCommit(t *testing.T) {
	points := []string{
		"torn:index-ckpt-000002-s0",
		"after:index-ckpt-000002-s0",
		"before:cpr-manifest-ckpt-000002",
		"torn:cpr-manifest-ckpt-000002",
		"after:cpr-manifest-ckpt-000002",
	}
	for _, point := range points {
		point := point
		t.Run(point, func(t *testing.T) {
			r := newRig(t, 512) // groups of 7 records: three to a segment
			r.appendGroups(30, 7)
			r.waitApplied()
			r.commit() // ckpt-000001, with watermark
			r.appendGroups(20, 7)
			r.waitApplied()
			var img crashImage
			r.inj.Arm(point, func() { img = r.snap(point) })
			r.commit() // ckpt-000002: crash point fires mid-flight, live run completes
			if img.ck == nil {
				t.Fatalf("crash point %s never fired", point)
			}
			r.appendGroups(12, 7) // post-crash-point traffic: not in the image, live run must still work
			r.waitApplied()
			r.close()
			verifyImage(t, img)
		})
	}
}

// TestTortureMidTrim: crash right after a commit whose trim is (or may
// still be) running, plus a deterministic "one segment removed, then died"
// image. Recovery must replay from the watermark even though the log no
// longer starts at offset zero.
func TestTortureMidTrim(t *testing.T) {
	r := newRig(t, 256) // two 10-record groups fill a segment
	r.appendGroups(40, 10)
	r.waitApplied()
	r.commit() // trims every segment below offset 40 but the active one (async)
	waitTrim := func(min uint64) {
		deadline := time.Now().Add(2 * time.Second)
		for r.log.Start() < min && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	waitTrim(1)
	if r.log.Start() == 0 {
		t.Fatal("trim never advanced the log start")
	}
	bases, _ := r.segs.List()
	if bases[0] != r.log.Start() {
		t.Fatalf("segments below the trim watermark still on disk: %v (start %d)", bases, r.log.Start())
	}

	r.appendGroups(20, 10)
	r.waitApplied()
	r.commit()
	img := r.snap("mid-trim/racing") // trim for this commit races the clone
	r.appendGroups(15, 10)           // uncommitted suffix above the watermark
	r.waitApplied()
	imgSuffix := r.snap("mid-trim/suffix")
	r.close()

	verifyImage(t, img)
	verifyImage(t, imgSuffix)

	// Deterministic partial trim: the crash struck after one segment was
	// unlinked but before the rest were.
	partial := crashImage{name: "mid-trim/partial", acked: imgSuffix.acked,
		ck: imgSuffix.ck.Clone(), dev: imgSuffix.dev.Clone(), segs: imgSuffix.segs.Clone()}
	pb, _ := partial.segs.List()
	committed := uint64(60) // both commits cover offsets < 60
	if len(pb) > 1 && pb[1] <= committed {
		if err := partial.segs.Remove(pb[0]); err != nil {
			t.Fatal(err)
		}
		verifyImage(t, partial)
	}
}

// TestTortureAckedSurvivesAnyCrash runs the whole front door — ingest server,
// background committer under FsyncBatch, page-cache model underneath — and
// clones the medium at arbitrary instants while groups are being buffered,
// written and fsynced. Every image must reopen with a tail at or above the
// acks the client had read by then, and every record it holds must be the
// message sent at that offset: a torn or unsynced group loses only records
// that were never acked.
func TestTortureAckedSurvivesAnyCrash(t *testing.T) {
	segs := NewMemSegmentStore()
	l := mustOpen(t, Config{
		Segments: segs, SegmentBytes: 4 << 10, Fsync: FsyncBatch,
		BatchRecords: 16, BatchInterval: time.Millisecond,
		WrapDevice: func(d storage.Device) (storage.Device, error) {
			return storage.NewSyncBufferDevice(d)
		},
	})
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

	const n, window = 3000, 200
	sent := 0
	for acked := 0; acked < n; acked++ {
		for ; sent < n && sent-acked < window; sent++ {
			if err := c.Send(Message{Op: OpRMW, Key: counterKey(sent), Value: one}); err != nil {
				t.Fatal(err)
			}
		}
		off, err := c.Ack()
		if err != nil || off != uint64(acked) {
			t.Fatalf("ack %d = (%d, %v)", acked, off, err)
		}
		if acked%37 != 0 {
			continue
		}
		img, err := Open(Config{Segments: segs.Clone(), Fsync: FsyncManual})
		if err != nil {
			t.Fatalf("crash image after ack %d: %v", acked, err)
		}
		if img.Tail() <= uint64(acked) {
			t.Fatalf("crash image after ack %d has tail %d: an acked record was lost", acked, img.Tail())
		}
		for o := img.Start(); o < img.Tail(); o++ {
			p, err := img.Read(o)
			if err != nil {
				t.Fatalf("crash image after ack %d: offset %d: %v", acked, o, err)
			}
			if m, err := DecodeMessage(p); err != nil || !bytes.Equal(m.Key, counterKey(int(o))) {
				t.Fatalf("crash image after ack %d: offset %d holds %+v (%v)", acked, o, m, err)
			}
		}
		img.Close()
	}
}
