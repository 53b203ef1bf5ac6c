package inlog

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/faster"
	"repro/internal/storage"
)

// benchMessage is the 18-byte wire form the ingest workloads carry: an RMW
// of an 8-byte key by an 8-byte increment.
var benchMessage = EncodeMessage(nil, Message{Op: OpRMW, Key: counterKey(12345), Value: one})

// BenchmarkAppend measures one Append on file-backed segments under each
// fsync policy, through to the point where every record is durable (the
// final Sync is inside the timing). Besides ns/op, B/op and allocs/op it
// reports what the log costs on the device: bytes written per record and
// records per fsync. FsyncManual commits every 64 records, the batch
// policy's default trigger, from the appending goroutine itself.
func BenchmarkAppend(b *testing.B) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncBatch, FsyncManual} {
		policy := policy
		b.Run(policy.String(), func(b *testing.B) {
			segs, err := NewDirSegmentStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			l, err := Open(Config{Segments: segs, SegmentBytes: 8 << 20, Fsync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(benchMessage); err != nil {
					b.Fatal(err)
				}
				if policy == FsyncManual && i%64 == 63 {
					if err := l.Sync(); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := l.Sync(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			var bytes int64
			var groups int
			for _, info := range l.Segments() {
				bytes += info.Bytes
				groups += info.Groups
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "devB/rec")
			b.ReportMetric(float64(b.N)/float64(groups), "rec/fsync")
		})
	}
}

// BenchmarkPumpDrain measures the apply pump per record: b.N durable records
// in groups of 64 on RAM segments, drained into an in-memory store. The
// allocations it reports are the store's RMW path (see
// TestPumpApplyAllocFree), two per record.
func BenchmarkPumpDrain(b *testing.B) {
	l, err := Open(Config{Segments: NewMemSegmentStore(), Fsync: FsyncManual})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < b.N; i++ {
		msg := EncodeMessage(nil, Message{Op: OpRMW, Key: counterKey(i % 1024), Value: one})
		if _, err := l.Append(msg); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			if err := l.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := l.Sync(); err != nil {
		b.Fatal(err)
	}
	s, err := faster.Open(faster.Config{
		IndexBuckets: 1 << 12, PageBits: 16, MemPages: 64,
		Device: storage.NewMemDevice(), Checkpoints: storage.NewMemCheckpointStore(),
		RMW: faster.AddUint64{},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	p, err := StartPump(PumpConfig{Log: l, Store: s})
	if err != nil {
		b.Fatal(err)
	}
	if err := p.WaitApplied(uint64(b.N) - 1); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	p.Close()
}

// countConn counts the writes that reach the connection it wraps.
type countConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// BenchmarkIngestSendAck measures the ingest hop end to end over loopback —
// Send, the server's append, the batch policy's group commit (64 records /
// 2 ms, cprserver's default) on file-backed segments, Ack — with 1 and with
// 512 messages in flight. At window 1 every message waits out its own group commit, so
// ns/op is the fsync cadence; at 512 it is the hop. writes/msg is the client's
// conn.Write calls per message.
func BenchmarkIngestSendAck(b *testing.B) {
	for _, window := range []int{1, 512} {
		window := window
		b.Run(fmt.Sprintf("window%d", window), func(b *testing.B) {
			segs, err := NewDirSegmentStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			l, err := Open(Config{Segments: segs, SegmentBytes: 8 << 20, Fsync: FsyncBatch})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			srv := NewIngestServer(l, nil, nil)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(ln) //nolint:errcheck // returns nil on Close
			defer srv.Close()
			raw, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			conn := &countConn{Conn: raw}
			c := newIngestClient(conn)
			defer c.Close()

			msg := Message{Op: OpRMW, Key: counterKey(12345), Value: one}
			b.ReportAllocs()
			b.ResetTimer()
			for sent, acked := 0, 0; acked < b.N; acked++ {
				for ; sent < b.N && sent-acked < window; sent++ {
					if err := c.Send(msg); err != nil {
						b.Fatal(err)
					}
				}
				if off, err := c.Ack(); err != nil || off != uint64(acked) {
					b.Fatalf("ack = %d err=%v, want %d", off, err, acked)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
			b.ReportMetric(float64(conn.writes.Load())/float64(b.N), "writes/msg")
		})
	}
}
