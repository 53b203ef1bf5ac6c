package faster

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
)

// TestFlightCommitTimeline checks the recorder captures a commit's causal
// chain end to end, all on the store lane (-1; the log's lane, 0, holds only
// its flushes and page checksums): commit-start and the phase transitions,
// persist-done, then the one artifact-write of a log-only commit, its record,
// and commit-done, in that causal order.
func TestFlightCommitTimeline(t *testing.T) { onePartition(t, flightCommitTimeline) }

func flightCommitTimeline(t *testing.T) {
	fr := obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	s, err := Open(Config{IndexBuckets: 1 << 8, PageBits: 13, MemPages: 16, Flight: fr})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sess := s.StartSession()
	defer sess.StopSession()
	var kb, vb [8]byte
	for i := 0; i < 256; i++ {
		binary.LittleEndian.PutUint64(kb[:], uint64(i))
		binary.LittleEndian.PutUint64(vb[:], uint64(i))
		if st := sess.Upsert(kb[:], vb[:]); st == Pending {
			sess.CompletePending(true)
		}
	}
	res := driveCommit(t, s, []*Session{sess}, CommitOptions{})

	evs, _ := fr.Events()
	evs = obs.FilterFlightEvents(evs, res.Token)
	idx := func(kind obs.FlightKind, shard int) int {
		for i, e := range evs {
			if e.Kind == kind && (shard == -2 || e.Shard == shard) {
				return i
			}
		}
		return -1
	}
	start := idx(obs.FlightCommitStart, -1)
	manifest := idx(obs.FlightArtifactWrite, -2)
	done := idx(obs.FlightCommitDone, -1)
	if start < 0 || manifest < 0 || done < 0 {
		t.Fatalf("missing lifecycle events (start=%d record=%d done=%d) in %d events",
			start, manifest, done, len(evs))
	}
	if !(manifest < done) {
		t.Fatalf("commit-done (#%d) before the record's artifact-write (#%d)", done, manifest)
	}
	for _, e := range evs {
		if e.Kind == obs.FlightArtifactWrite && (e.Token != "cpr-manifest-"+res.Token || e.Shard != -1) {
			t.Fatalf("artifact-write of %s at shard %d: a log-only commit writes its record, on the store lane", e.Token, e.Shard)
		}
		if (e.Kind == obs.FlightCommitDone || e.Kind == obs.FlightPhase || e.Kind == obs.FlightPersistDone) && e.Shard != -1 {
			t.Fatalf("%v recorded at shard %d, want the store lane (-1)", e.Kind, e.Shard)
		}
	}
	if n := len(obs.FilterFlightEvents(evs, "cpr-manifest-")); n != 1 {
		t.Fatalf("%d artifact events for one commit record, want 1", n)
	}
	pd := idx(obs.FlightPersistDone, -1)
	if pd < 0 {
		t.Fatal("no persist-done event")
	}
	if pd > manifest {
		t.Fatalf("persist-done (#%d) after the record's artifact-write (#%d): causality violated", pd, manifest)
	}
	if idx(obs.FlightPhase, -1) < 0 {
		t.Fatal("no phase transition events on the store lane")
	}
}

// TestFlightCrashDump arms a crash point just before the record of the first
// commit is persisted, dumps the flight recorder from inside the callback (what
// a real crash handler does), and asserts causal consistency from the decoded
// dump alone: the capture had reported persist-done, and the commit had NOT
// been announced — no artifact-write (a log-only commit's only one is its
// record), commit-done or commit-announced event exists. If FLIGHT_DUMP_DIR is
// set, the framed dump artifact is also written there for `fasterctl flight
// -dump` (the CI crash-dump job decodes it and greps the ordering).
func TestFlightCrashDump(t *testing.T) { onePartition(t, flightCrashDump) }

func flightCrashDump(t *testing.T) {
	fr := obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	inj := storage.NewInjector(storage.FaultConfig{Seed: 7, Flight: fr})
	ckpts := storage.NewFaultCheckpointStore(storage.NewMemCheckpointStore(), inj)
	s, err := Open(Config{IndexBuckets: 1 << 8, PageBits: 13, MemPages: 16, Flight: fr, Checkpoints: ckpts})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The store's first commit deterministically takes token ckpt-000001.
	const token = "ckpt-000001"
	dumped := make(chan error, 1)
	inj.Arm("before:cpr-manifest-"+token, func() {
		dumped <- s.DumpFlight("crash")
	})

	sess := s.StartSession()
	defer sess.StopSession()
	var kb, vb [8]byte
	for i := 0; i < 256; i++ {
		binary.LittleEndian.PutUint64(kb[:], uint64(i))
		binary.LittleEndian.PutUint64(vb[:], uint64(i))
		if st := sess.Upsert(kb[:], vb[:]); st == Pending {
			sess.CompletePending(true)
		}
	}
	res := driveCommit(t, s, []*Session{sess}, CommitOptions{})
	if res.Token != token {
		t.Fatalf("first commit token %s, want %s", res.Token, token)
	}
	select {
	case err := <-dumped:
		if err != nil {
			t.Fatalf("DumpFlight: %v", err)
		}
	default:
		t.Fatal("crash point before:cpr-manifest never fired")
	}

	// Read the dump back exactly as a post-mortem tool would: verify the
	// storage envelope, then decode the flight payload.
	payload, err := storage.ReadArtifactChecked(ckpts, "flight-crash")
	if err != nil {
		t.Fatal(err)
	}
	var dump obs.FlightDump
	if err := json.Unmarshal(payload, &dump); err != nil {
		t.Fatal(err)
	}
	evs := obs.FilterFlightEvents(dump.Events, token)
	if len(evs) == 0 {
		t.Fatal("dump holds no events for the crashed commit")
	}

	persisted := false
	for _, e := range evs {
		switch e.Kind {
		case obs.FlightPersistDone:
			persisted = true
		case obs.FlightArtifactWrite, obs.FlightCommitDone, obs.FlightCommitAnnounced:
			// The dump was taken before the record became durable: the
			// commit must not look complete (or announced) in the dump.
			t.Fatalf("dump taken before the record was durable contains %v", e.Kind)
		}
	}
	if !persisted {
		t.Fatal("no persist-done in the crash dump")
	}
	// The dump itself records its trigger.
	if i := func() int {
		for i, e := range dump.Events {
			if e.Kind == obs.FlightCrashPoint && e.Token == "before:cpr-manifest-"+token {
				return i
			}
		}
		return -1
	}(); i < 0 {
		t.Fatal("crash-point event missing from dump")
	}

	if dir := os.Getenv("FLIGHT_DUMP_DIR"); dir != "" {
		framed := storage.EncodeArtifact(payload)
		path := filepath.Join(dir, "flight-crash")
		if err := os.WriteFile(path, framed, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote crash dump to %s", path)
	}
}

// TestSessionLags checks the durability-lag accounting: before any commit a
// session's issued serial runs ahead of t_i = 0; after a completed commit the
// lag collapses to zero and the histograms record the window.
func TestSessionLags(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Open(Config{IndexBuckets: 1 << 8, PageBits: 13, MemPages: 16, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sess := s.StartSession()
	defer sess.StopSession()
	var kb, vb [8]byte
	for i := 0; i < 100; i++ {
		binary.LittleEndian.PutUint64(kb[:], uint64(i))
		binary.LittleEndian.PutUint64(vb[:], uint64(i))
		if st := sess.Upsert(kb[:], vb[:]); st == Pending {
			sess.CompletePending(true)
		}
	}

	lags := s.SessionLags()
	if len(lags) != 1 {
		t.Fatalf("got %d session lags, want 1", len(lags))
	}
	if lags[0].ID != sess.ID() {
		t.Fatalf("lag for session %s, want %s", lags[0].ID, sess.ID())
	}
	if lags[0].IssuedSerial != 100 || lags[0].CommittedSerial != 0 || lags[0].LagOps != 100 {
		t.Fatalf("pre-commit lag = %+v, want issued 100, committed 0, lag 100", lags[0])
	}

	driveCommit(t, s, []*Session{sess}, CommitOptions{})
	lags = s.SessionLags()
	if lags[0].CommittedSerial != 100 || lags[0].LagOps != 0 || lags[0].LagNanos != 0 {
		t.Fatalf("post-commit lag = %+v, want committed 100, lag 0", lags[0])
	}
	if sess.CommittedSerial() != 100 {
		t.Fatalf("CommittedSerial = %d, want 100", sess.CommittedSerial())
	}

	snap := reg.Snapshot()
	if h := snap.Histograms["faster_session_lag_ops"]; h.Count == 0 || h.MaxNanos != 0 {
		// Count must reflect the commit's observation; the session was idle
		// at commit time so issued == point and the recorded lag is 0 ops.
		if h.Count == 0 {
			t.Fatalf("faster_session_lag_ops recorded nothing: %+v", h)
		}
	}
	if h := snap.Histograms["faster_session_lag_ns"]; h.Count == 0 {
		t.Fatalf("faster_session_lag_ns recorded nothing: %+v", h)
	}
	if _, ok := snap.Gauges["faster_session_lag_ops_max"]; !ok {
		t.Fatal("faster_session_lag_ops_max gauge not registered")
	}
	if _, ok := snap.Gauges["faster_session_lag_ns_max"]; !ok {
		t.Fatal("faster_session_lag_ns_max gauge not registered")
	}
}
