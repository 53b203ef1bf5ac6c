package inlog

import (
	"sync"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/obs"
	"repro/internal/storage"
)

// TestAppendsLeaveCommitInFlightRings: the flight rings are there to explain a
// commit after the fact, so ingest traffic must not push a commit's events out
// of them. A store commits; then 10 000 records are appended by eight
// producers, fsynced 64 to a group and applied; the recorder still holds the
// commit's five phase transitions, and one append event per group accounts for
// every record. (With one event per record the 10 000 wiped every ring.)
func TestAppendsLeaveCommitInFlightRings(t *testing.T) {
	const n, producers, batch = 10000, 8, 64
	fr := obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	l := mustOpen(t, Config{Segments: NewMemSegmentStore(), Fsync: FsyncBatch,
		BatchRecords: batch, BatchInterval: time.Minute, Flight: fr})
	defer l.Close()
	cfg := storeConfig(storage.NewMemDevice(), storage.NewMemCheckpointStore())
	cfg.Flight = fr
	s, err := faster.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := StartPump(PumpConfig{Log: l, Store: s, Flight: fr})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	token, err := s.Commit(faster.CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.WaitForCommit(token); res.Err != nil {
		t.Fatal(res.Err)
	}
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/producers; i++ {
				msg := EncodeMessage(nil, Message{Op: OpRMW, Key: counterKey(i % 16), Value: one})
				if _, err := l.Append(msg); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.WaitApplied(n - 1); err != nil {
		t.Fatal(err)
	}

	events, _ := fr.Events()
	var phases, groups, records uint64
	for _, e := range events {
		switch {
		case e.Kind == obs.FlightPhase && e.Token == token:
			phases++
		case e.Kind == obs.FlightInlogAppend:
			groups++
			records += e.Arg2
		}
	}
	t.Logf("%d events retained: %d of the commit's phase transitions, %d append events for %d records", len(events), phases, groups, records)
	if phases != 5 {
		t.Errorf("the recorder holds %d of commit %s's 5 phase transitions after %d appends (%d events retained)", phases, token, n, len(events))
	}
	if records != n || groups > n/batch+1 {
		t.Errorf("%d append events account for %d records, want one per group of %d and %d records", groups, records, batch, n)
	}
}
