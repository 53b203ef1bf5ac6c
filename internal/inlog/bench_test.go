package inlog

import (
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
