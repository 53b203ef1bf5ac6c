//go:build !race

package inlog

import (
	"testing"

	"repro/internal/faster"
	"repro/internal/storage"
)

// Steady-state allocation guards for the two hot loops (ROADMAP item 2): the
// append + group-commit path and the pump's read-decode-apply path must not
// allocate per record or per group once their buffers have grown. Not under
// -race: the detector's instrumentation allocates.

func TestAppendAllocFree(t *testing.T) {
	l := mustOpen(t, Config{Segments: NewMemSegmentStore(), SegmentBytes: 64 << 20, Fsync: FsyncManual})
	defer l.Close()
	msg := EncodeMessage(nil, Message{Op: OpRMW, Key: counterKey(7), Value: one})
	group := func() {
		for i := 0; i < 64; i++ {
			if _, err := l.Append(msg); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	// Grow both group buffers, the segment index and the RAM device first.
	for i := 0; i < 2048; i++ {
		group()
	}
	if avg := testing.AllocsPerRun(512, group); avg != 0 {
		t.Fatalf("64 appends + 1 group commit allocate %v times, want 0", avg)
	}
}

// TestPumpApplyAllocFree: the pump's own work per group — one device read
// into its buffer, CRC, record walk, message decode, session dispatch —
// allocates nothing, for upsert records and for RMW records.
func TestPumpApplyAllocFree(t *testing.T) {
	const groups, per, keys = 600, 64, 16
	l := mustOpen(t, Config{Segments: NewMemSegmentStore(), Fsync: FsyncManual})
	defer l.Close()
	ops := []Op{OpUpsert, OpRMW} // first half of the log, second half
	for i := 0; i < groups*per; i++ {
		msg := EncodeMessage(nil, Message{Op: ops[i/(groups*per/2)], Key: counterKey(i % keys), Value: one})
		if _, err := l.Append(msg); err != nil {
			t.Fatal(err)
		}
		if i%per == per-1 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, err := faster.Open(storeConfig(storage.NewMemDevice(), storage.NewMemCheckpointStore()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := newPump(PumpConfig{Log: l, Store: s}) // no loop: the test is the apply loop
	if err != nil {
		t.Fatal(err)
	}
	defer p.sess.StopSession()
	cursor := uint64(0)
	apply := func() {
		next, err := p.applyGroup(cursor)
		if err != nil || next != cursor+per {
			t.Fatalf("applyGroup(%d) = (%d, %v)", cursor, next, err)
		}
		cursor = next
	}
	for i := 0; i < 40; i++ { // create the keys, grow the read buffer and the op freelist
		apply()
	}
	if avg := testing.AllocsPerRun(200, apply); avg != 0 {
		t.Fatalf("applying a group of %d upserts allocates %v times, want 0", per, avg)
	}
	for cursor < groups*per/2 {
		apply()
	}
	if avg := testing.AllocsPerRun(200, apply); avg != 0 {
		t.Fatalf("applying a group of %d RMWs allocates %v times, want 0", per, avg)
	}
}

// TestIngestSendAllocFree: Send builds its frame in the client's buffer and
// appends it to the pending run, the writer swaps that run with its spare:
// once the three buffers have grown, neither goroutine allocates.
func TestIngestSendAllocFree(t *testing.T) {
	c := newIngestClient(&stubConn{})
	defer c.Close()
	msg := Message{Op: OpRMW, Key: counterKey(7), Value: one}
	window := func() {
		for i := 0; i < 512; i++ {
			if err := c.Send(msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 64; i++ {
		window()
	}
	if avg := testing.AllocsPerRun(512, window); avg != 0 {
		t.Fatalf("512 sends allocate %v times, want 0", avg)
	}
}
