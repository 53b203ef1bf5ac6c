package inlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

func mustOpen(t *testing.T, cfg Config) *Log {
	t.Helper()
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// appendGroup appends the payloads and commits them as exactly one group
// (the log must run FsyncManual, so the test places every group boundary).
func appendGroup(t *testing.T, l *Log, payloads ...[]byte) {
	t.Helper()
	for _, p := range payloads {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

// buildFrame returns the sealed frame of one group.
func buildFrame(base uint64, payloads ...[]byte) []byte {
	frame := make([]byte, frameHeader)
	for _, p := range payloads {
		frame = appendRecord(frame, p)
	}
	sealFrame(frame, base, len(payloads))
	return frame
}

// oldRecord returns one record in the per-record ILR1 framing this package
// wrote before group commit (magic | offset u64 | length u32 | crc32c over
// offset, length and payload | payload).
func oldRecord(offset uint64, payload []byte) []byte {
	rec := make([]byte, 20, 20+len(payload))
	copy(rec[0:4], oldRecordMagic)
	binary.LittleEndian.PutUint64(rec[4:12], offset)
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(payload)))
	crc := crc32.Update(0, castagnoli, rec[4:16])
	binary.LittleEndian.PutUint32(rec[16:20], crc32.Update(crc, castagnoli, payload))
	return append(rec, payload...)
}

func TestAppendReadRoundtrip(t *testing.T) {
	l := mustOpen(t, Config{Segments: NewMemSegmentStore(), Fsync: FsyncManual})
	defer l.Close()
	const n = 100
	for i := 0; i < n; i++ {
		off, err := l.Append([]byte(fmt.Sprintf("payload-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if off != uint64(i) {
			t.Fatalf("append %d assigned offset %d", i, off)
		}
		if i%7 == 6 { // groups of seven, and a last one of two
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if l.Tail() != n || l.Durable() != n-2 {
		t.Fatalf("tail/durable = %d/%d, want %d/%d", l.Tail(), l.Durable(), n, n-2)
	}
	if _, err := l.Read(n - 1); err == nil {
		t.Fatal("read of a buffered, not yet durable record succeeded")
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if infos := l.Segments(); len(infos) != 1 || infos[0].Groups != 15 || infos[0].Records != n {
		t.Fatalf("segments = %+v, want one with 15 groups of %d records", infos, n)
	}
	for i := 0; i < n; i++ {
		got, err := l.Read(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("payload-%03d", i); string(got) != want {
			t.Fatalf("offset %d = %q, want %q", i, got, want)
		}
	}
	// ReadGroup positions at the requested record and yields the rest of its
	// group, reusing the caller's buffer.
	buf := make([]byte, 0, 1<<10)
	g, buf2, err := l.ReadGroup(10, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &buf2[0] != &buf[:1][0] {
		t.Fatal("ReadGroup reallocated a buffer that was large enough")
	}
	if g.Offset() != 10 || g.end != 14 {
		t.Fatalf("group at 10 spans [%d, %d), want [10, 14)", g.Offset(), g.end)
	}
	for want := 10; ; want++ {
		p, ok := g.Next()
		if !ok {
			if want != 14 {
				t.Fatalf("group ended at %d", want)
			}
			break
		}
		if string(p) != fmt.Sprintf("payload-%03d", want) {
			t.Fatalf("group record %d = %q", want, p)
		}
	}
}

// TestAlwaysPolicyCommitsWhateverIsPending: under FsyncAlways Append does not
// wait for the device, but every record becomes durable without further calls.
func TestAlwaysPolicyCommitsWhateverIsPending(t *testing.T) {
	l := mustOpen(t, Config{Segments: NewMemSegmentStore()})
	defer l.Close()
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WaitDurable(n - 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got, err := l.Read(uint64(i)); err != nil || got[0] != byte(i) {
			t.Fatalf("offset %d = (%v, %v)", i, got, err)
		}
	}
}

func TestSegmentRollAndTrim(t *testing.T) {
	segs := NewMemSegmentStore()
	l := mustOpen(t, Config{Segments: segs, SegmentBytes: 256, Fsync: FsyncManual})
	defer l.Close()
	payload := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 12; i++ {
		appendGroup(t, l, payload)
	}
	// One group larger than a whole segment: it must land in one piece.
	appendGroup(t, l, payload, payload, payload, payload)
	infos := l.Segments()
	if len(infos) < 4 {
		t.Fatalf("expected >= 4 segments after 13 groups at a 256-byte roll, got %d", len(infos))
	}
	for i := 1; i < len(infos); i++ {
		if infos[i].Base != infos[i-1].End {
			t.Fatalf("segment %d base %d does not continue previous end %d",
				i, infos[i].Base, infos[i-1].End)
		}
	}
	if last := infos[len(infos)-1]; last.End != 16 || last.Records < 4 {
		t.Fatalf("last segment %+v does not hold the 4-record group whole", last)
	}
	// Trim below the base of the last segment: all earlier segments must be
	// physically deleted from the store.
	cut := infos[len(infos)-1].Base
	removed, err := l.Trim(cut)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("trim removed nothing")
	}
	if l.Start() != cut {
		t.Fatalf("start = %d after trim, want %d", l.Start(), cut)
	}
	bases, _ := segs.List()
	for _, b := range bases {
		if b < cut {
			t.Fatalf("segment %d still on disk below trim point %d", b, cut)
		}
	}
	// Reads below the trim point fail; at and above succeed.
	if _, err := l.Read(cut - 1); err == nil {
		t.Fatal("read below trim point succeeded")
	}
	if _, err := l.Read(cut); err != nil {
		t.Fatal(err)
	}
}

func TestReopenPreservesRecords(t *testing.T) {
	segs := NewMemSegmentStore()
	l := mustOpen(t, Config{Segments: segs, SegmentBytes: 128, Fsync: FsyncManual})
	for i := 0; i < 20; i += 2 {
		appendGroup(t, l, []byte(fmt.Sprintf("r%02d", i)), []byte(fmt.Sprintf("r%02d", i+1)))
	}
	if n := len(l.Segments()); n < 2 {
		t.Fatalf("only %d segment(s); the reopen must cross a roll", n)
	}
	// Close commits what is still buffered.
	if _, err := l.Append([]byte("r20")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, Config{Segments: segs, SegmentBytes: 128, Fsync: FsyncManual})
	defer re.Close()
	if re.Tail() != 21 || re.Durable() != 21 {
		t.Fatalf("reopened tail/durable = %d/%d, want 21/21", re.Tail(), re.Durable())
	}
	for i := 0; i < 21; i++ {
		got, err := re.Read(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("r%02d", i); string(got) != want {
			t.Fatalf("offset %d = %q, want %q", i, got, want)
		}
	}
	// Appends continue at the right offset.
	off, err := re.Append([]byte("r21"))
	if err != nil || off != 21 {
		t.Fatalf("append after reopen = (%d, %v), want (21, nil)", off, err)
	}
}

// TestTornTailTruncatedOnReopen is the torn-group seam test: a crashed
// commit leaves a partial frame at the end of the last segment; reopening
// must treat it as clean truncation — not an error — and the next group
// must overwrite it.
func TestTornTailTruncatedOnReopen(t *testing.T) {
	segs := NewMemSegmentStore()
	l := mustOpen(t, Config{Segments: segs, Fsync: FsyncManual})
	for i := 0; i < 5; i++ {
		appendGroup(t, l, []byte(fmt.Sprintf("ok-%d", i)))
	}
	validBytes := l.Segments()[0].Bytes
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash residue: a half-written group for offsets 5 and 6.
	frame := buildFrame(5, []byte("torn-payload"), []byte("and-its-neighbour"))
	dev, err := segs.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.WriteAt(frame[:len(frame)/2], validBytes); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, Config{Segments: segs, Fsync: FsyncManual})
	defer re.Close()
	if re.Tail() != 5 {
		t.Fatalf("reopened tail = %d, want 5 (torn group dropped)", re.Tail())
	}
	// The replacement group lands where the torn one was and survives the
	// next reopen even though stale torn bytes extend past it.
	off, err := re.Append([]byte("replacement"))
	if err != nil || off != 5 {
		t.Fatalf("append = (%d, %v), want (5, nil)", off, err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := mustOpen(t, Config{Segments: segs, Fsync: FsyncManual})
	defer re2.Close()
	if re2.Tail() != 6 {
		t.Fatalf("second reopen tail = %d, want 6", re2.Tail())
	}
	got, err := re2.Read(5)
	if err != nil || string(got) != "replacement" {
		t.Fatalf("offset 5 = (%q, %v), want replacement", got, err)
	}
}

// TestTornMidLogDropsLaterSegments: damage in a non-final segment means
// everything after it was never acked (groups commit in order); reopen keeps
// the valid prefix and deletes the later segments.
func TestTornMidLogDropsLaterSegments(t *testing.T) {
	segs := NewMemSegmentStore()
	l := mustOpen(t, Config{Segments: segs, SegmentBytes: 64, Fsync: FsyncManual})
	payload := bytes.Repeat([]byte("y"), 40)
	for i := 0; i < 6; i++ {
		appendGroup(t, l, payload)
	}
	infos := l.Segments()
	if len(infos) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(infos))
	}
	l.Close()

	// Corrupt the tail group of the second segment.
	second := infos[1]
	dev, err := segs.Open(second.Base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.WriteAt([]byte{0xFF}, second.Bytes-1); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, Config{Segments: segs, SegmentBytes: 64, Fsync: FsyncManual})
	defer re.Close()
	if want := second.End - 1; re.Tail() != want {
		t.Fatalf("tail = %d, want %d (corrupted group and later segments dropped)", re.Tail(), want)
	}
	bases, _ := segs.List()
	for _, b := range bases {
		if b > second.Base {
			t.Fatalf("segment %d past the damage still on disk", b)
		}
	}
}

// TestOldFormatSegmentRefused: a directory written in the per-record ILR1
// framing must fail Open by name and stay byte-for-byte as it was — it holds
// acked records this version cannot read, not a torn tail.
func TestOldFormatSegmentRefused(t *testing.T) {
	var image []byte
	for i := 0; i < 3; i++ {
		image = append(image, oldRecord(uint64(i), []byte(fmt.Sprintf("acked-%d", i)))...)
	}
	segs := NewMemSegmentStore()
	dev, err := segs.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.WriteAt(image, 0); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(Config{Segments: segs}); !errors.Is(err, ErrOldFormat) {
		t.Fatalf("Open over an ILR1 segment = %v, want ErrOldFormat", err)
	}
	if dev, err = segs.Open(0); err != nil { // the failed Open closed its device
		t.Fatal(err)
	}
	after := make([]byte, dev.Size())
	if _, err := dev.ReadAt(after, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, image) {
		t.Fatal("refused segment was modified")
	}
	rep, err := Inspect(segs)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Corrupt || len(rep.Segments) != 1 || !rep.Segments[0].OldFormat || rep.Segments[0].Torn {
		t.Fatalf("inspect of an ILR1 segment = %+v, want old-format, corrupt, not torn", rep)
	}

	// The same bytes as stale residue behind valid groups are just a torn
	// tail: payload bytes can spell anything.
	segs = NewMemSegmentStore()
	if dev, err = segs.Open(0); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.WriteAt(append(buildFrame(0, []byte("new")), image...), 0); err != nil {
		t.Fatal(err)
	}
	l := mustOpen(t, Config{Segments: segs, Fsync: FsyncManual})
	defer l.Close()
	if l.Tail() != 1 {
		t.Fatalf("tail = %d, want 1 (stale bytes truncated)", l.Tail())
	}
}

func TestBatchPolicyDurability(t *testing.T) {
	l := mustOpen(t, Config{
		Segments: NewMemSegmentStore(), Fsync: FsyncBatch,
		BatchRecords: 4, BatchInterval: -1, // no interval trigger
	})
	defer l.Close()
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte("a")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(5 * time.Millisecond) // room for a committer that wrongly runs early
	if d := l.Durable(); d != 0 {
		t.Fatalf("durable = %d before the batch fills, want 0", d)
	}
	if _, err := l.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(3); err != nil {
		t.Fatal(err)
	}
	if infos := l.Segments(); infos[0].Groups != 1 || infos[0].Records != 4 {
		t.Fatalf("segments = %+v, want the four records in one group", infos)
	}
}

func TestBatchIntervalFlusher(t *testing.T) {
	l := mustOpen(t, Config{
		Segments: NewMemSegmentStore(), Fsync: FsyncBatch,
		BatchRecords: 1000, BatchInterval: time.Millisecond,
	})
	defer l.Close()
	if _, err := l.Append([]byte("straggler")); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(0); err != nil {
		t.Fatal(err)
	}
}

func TestManualSyncAndWaitDurable(t *testing.T) {
	l := mustOpen(t, Config{Segments: NewMemSegmentStore(), Fsync: FsyncManual})
	defer l.Close()
	off, err := l.Append([]byte("manual"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- l.WaitDurable(off) }()
	select {
	case <-done:
		t.Fatal("WaitDurable returned before Sync")
	case <-time.After(5 * time.Millisecond):
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// gateDevice blocks every Sync until released, announcing each entry.
type gateDevice struct {
	storage.Device
	entered chan struct{}
	release chan struct{}
}

func (d *gateDevice) Sync() error {
	d.entered <- struct{}{}
	<-d.release
	return d.Device.Sync()
}

// TestAppendDuringInflightSync: while one group is on the device — written,
// its fsync not yet returned — a second appender's Append, and Tail and
// Durable, must return; the records it appends form the next group.
func TestAppendDuringInflightSync(t *testing.T) {
	gate := &gateDevice{entered: make(chan struct{}), release: make(chan struct{})}
	l := mustOpen(t, Config{
		Segments: NewMemSegmentStore(), Fsync: FsyncManual,
		WrapDevice: func(d storage.Device) (storage.Device, error) {
			gate.Device = d
			return gate, nil
		},
	})
	if _, err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	synced := make(chan error, 1)
	go func() { synced <- l.Sync() }()
	<-gate.entered // group 1 is written and inside Sync

	appended := make(chan error, 1)
	go func() {
		for i := 0; i < 100; i++ {
			if _, err := l.Append([]byte("second")); err != nil {
				appended <- err
				return
			}
		}
		if l.Tail() != 101 || l.Durable() != 0 {
			appended <- fmt.Errorf("tail/durable = %d/%d mid-sync, want 101/0", l.Tail(), l.Durable())
			return
		}
		appended <- nil
	}()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Append blocked behind an in-flight Sync")
	}

	gate.release <- struct{}{}
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if d := l.Durable(); d != 1 {
		t.Fatalf("durable = %d after the first group, want 1", d)
	}
	go func() { <-gate.entered; gate.release <- struct{}{} }()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if infos := l.Segments(); infos[0].Groups != 2 || infos[0].Records != 101 {
		t.Fatalf("segments = %+v, want 2 groups of 1 and 100 records", infos)
	}
	if err := l.Close(); err != nil { // nothing pending: no further Sync
		t.Fatal(err)
	}
}

// TestCommitFailureKeepsGroupForRetry: a failed group write loses nothing
// and acks nothing — the error is reported, Append refuses to buffer more
// while it stands, and the next commit step rewrites the same group.
func TestCommitFailureKeepsGroupForRetry(t *testing.T) {
	inj := storage.NewInjector(storage.FaultConfig{Seed: 1})
	l := mustOpen(t, Config{
		Segments: NewMemSegmentStore(), Fsync: FsyncManual,
		WrapDevice: func(d storage.Device) (storage.Device, error) {
			return storage.NewFaultDevice(d, inj), nil
		},
	})
	defer l.Close()
	appendGroup(t, l, []byte("a"))
	for _, p := range []string{"b", "c"} {
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	inj.FailPermanently()
	if err := l.Sync(); !errors.Is(err, storage.ErrInjectedPermanent) {
		t.Fatalf("Sync on a dead device = %v", err)
	}
	if _, err := l.Append([]byte("d")); !errors.Is(err, storage.ErrInjectedPermanent) {
		t.Fatalf("Append after a failed commit = %v, want the commit's error", err)
	}
	if l.Durable() != 1 || l.Tail() != 3 {
		t.Fatalf("durable/tail = %d/%d after the failure, want 1/3", l.Durable(), l.Tail())
	}
	inj.Heal()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	appendGroup(t, l, []byte("d"))
	for i, want := range []string{"a", "b", "c", "d"} {
		if got, err := l.Read(uint64(i)); err != nil || string(got) != want {
			t.Fatalf("offset %d = (%q, %v), want %q", i, got, err, want)
		}
	}
}

// TestConcurrentAppenders: four appenders under every policy; each record's
// offset must read back as that record, live and after a reopen.
func TestConcurrentAppenders(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncBatch, FsyncManual} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			const writers, each = 4, 300
			segs := NewMemSegmentStore()
			l := mustOpen(t, Config{Segments: segs, SegmentBytes: 2 << 10, Fsync: policy, BatchRecords: 16})
			var mu sync.Mutex
			at := make(map[uint64]string)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						p := fmt.Sprintf("w%d-%d", w, i)
						off, err := l.Append([]byte(p))
						if err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						at[off] = p
						mu.Unlock()
						if policy == FsyncManual && i%32 == 31 {
							if err := l.Sync(); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if len(at) != writers*each || l.Durable() != writers*each {
				t.Fatalf("%d distinct offsets, durable %d, want %d", len(at), l.Durable(), writers*each)
			}
			check := func(l *Log) {
				for off, want := range at {
					if got, err := l.Read(off); err != nil || string(got) != want {
						t.Fatalf("offset %d = (%q, %v), want %q", off, got, err, want)
					}
				}
			}
			check(l)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			re := mustOpen(t, Config{Segments: segs, Fsync: FsyncManual})
			defer re.Close()
			check(re)
		})
	}
}

// TestCrashDropsUnsyncedAppends wires the page-cache model under the log:
// records appended but not fsynced must vanish from a crash image, while
// synced ones survive — the physical basis of the ack contract.
func TestCrashDropsUnsyncedAppends(t *testing.T) {
	segs := NewMemSegmentStore()
	l := mustOpen(t, Config{
		Segments: segs, Fsync: FsyncManual,
		WrapDevice: func(d storage.Device) (storage.Device, error) {
			return storage.NewSyncBufferDevice(d)
		},
	})
	for i := 0; i < 8; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 12; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if d := l.Durable(); d != 8 {
		t.Fatalf("durable = %d, want 8", d)
	}

	crash := segs.Clone() // crash image: only fsynced bytes
	re := mustOpen(t, Config{Segments: crash, Fsync: FsyncManual})
	defer re.Close()
	if re.Tail() != 8 {
		t.Fatalf("crash image tail = %d, want 8 (unsynced appends dropped)", re.Tail())
	}
	for i := 0; i < 8; i++ {
		got, err := re.Read(uint64(i))
		if err != nil || string(got) != fmt.Sprintf("s%d", i) {
			t.Fatalf("offset %d = (%q, %v)", i, got, err)
		}
	}
	l.Close()
}

func TestInspectFlagsMidLogCorruption(t *testing.T) {
	segs := NewMemSegmentStore()
	l := mustOpen(t, Config{Segments: segs, SegmentBytes: 64, Fsync: FsyncManual})
	payload := bytes.Repeat([]byte("z"), 40)
	appendGroup(t, l, payload, payload)
	appendGroup(t, l, payload)
	appendGroup(t, l, payload)
	l.Close()

	rep, err := Inspect(segs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt {
		t.Fatalf("clean log reported corrupt: %v", rep.Errors)
	}
	if rep.End != 4 || len(rep.Segments) != 3 || rep.Segments[0].Groups != 1 || rep.Segments[0].Records != 2 {
		t.Fatalf("inspect = %+v, want 4 records in 3 segments, the first one group of 2", rep)
	}

	// Flip a byte inside the FIRST segment (not the final one): that can
	// never be a torn tail, so it must be flagged as corruption.
	dev, err := segs.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := dev.ReadAt(b[:], 30); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := dev.WriteAt(b[:], 30); err != nil {
		t.Fatal(err)
	}
	rep, err = Inspect(segs)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Corrupt {
		t.Fatal("mid-log bit flip not flagged as corruption")
	}
}
