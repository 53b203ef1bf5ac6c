package health

import (
	"encoding/binary"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/obs"
	"repro/internal/storage"
)

// gatedStore wraps a CheckpointStore whose Create blocks while gated — the
// deterministic stall seed: a CPR commit's persist goroutine parks inside its
// artifact write, pinning the shard in WaitFlush with the commit counter
// frozen, exactly the cpr-commit-stuck signal.
type gatedStore struct {
	storage.CheckpointStore
	gated   atomic.Bool
	parked  atomic.Bool // a write is waiting at the gate
	release chan struct{}
}

func (g *gatedStore) Create(name string) (io.WriteCloser, error) {
	if g.gated.Load() {
		g.parked.Store(true)
		<-g.release
	}
	return g.CheckpointStore.Create(name)
}

func k64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// pump keeps a session refreshing, the paper's threads-continuously-process
// model; it also drains any epoch trigger actions so only the truly stuck
// detector fires.
func pump(sess *faster.Session, n int) {
	for i := 0; i < n; i++ {
		sess.Refresh()
		sess.CompletePending(false)
	}
}

// TestIntegrationCommitStuckIncident seeds a real stall on a real store and
// walks the whole incident path: detector fires after fireAfter bad samples,
// an incident bundle lands in the bundle store under a decodable name with
// flight + metrics + profiles inside, and the detector clears once the
// commit completes. With HEALTH_DUMP_DIR set the bundle is written to that
// directory so CI can decode it with `fasterctl incident`.
func TestIntegrationCommitStuckIncident(t *testing.T) {
	gate := &gatedStore{CheckpointStore: storage.NewMemCheckpointStore(), release: make(chan struct{})}
	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(1024)
	s, err := faster.Open(faster.Config{
		IndexBuckets: 1 << 8,
		PageBits:     13,
		MemPages:     16,
		Metrics:      reg,
		Checkpoints:  gate,
		Flight:       fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	for i := uint64(0); i < 64; i++ {
		if st := sess.Upsert(k64(i), k64(i*10)); st != faster.Ok {
			t.Fatalf("upsert %d: %v", i, st)
		}
	}

	dir := os.Getenv("HEALTH_DUMP_DIR")
	if dir == "" {
		dir = t.TempDir()
	}
	bundles, err := storage.NewDirCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	eng := New(Config{Registry: reg, Bundles: bundles, Flight: fr})
	clock := int64(1_000_000_000)
	eng.now = func() int64 { return clock }
	tick := func() {
		clock += int64(time.Second)
		eng.Tick()
	}
	firing := func(name string) DetectorStatus {
		for _, d := range eng.Verdict().Detectors {
			if d.Name == name {
				return d
			}
		}
		t.Fatalf("detector %s not in verdict", name)
		return DetectorStatus{}
	}

	// Gate the store and start a commit: it must park in WaitFlush, at the
	// write of its record — until then its phase and version still move.
	gate.gated.Store(true)
	token, err := s.Commit(faster.CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Phase() != faster.WaitFlush || !gate.parked.Load() {
		pump(sess, 16)
		if time.Now().After(deadline) {
			t.Fatalf("commit never reached WaitFlush; phase %v", s.Phase())
		}
	}

	// Baseline + fireAfter bad samples; the session keeps refreshing in
	// between (a stuck artifact write does not stop request threads).
	for i := 0; i < 4; i++ {
		pump(sess, 64)
		tick()
	}
	st := firing("cpr-commit-stuck")
	if !st.Firing {
		t.Fatalf("cpr-commit-stuck not firing over a pinned WaitFlush commit: %+v", eng.Verdict())
	}
	if got := eng.Verdict().State; got != "unhealthy:cpr-commit-stuck" {
		t.Fatalf("state = %q, want unhealthy:cpr-commit-stuck", got)
	}

	// The incident bundle is on disk under the detector-stamped name and
	// carries the full evidence set.
	payload, err := storage.ReadArtifactChecked(bundles, "incident-cpr-commit-stuck-1")
	if err != nil {
		t.Fatalf("read incident bundle: %v", err)
	}
	b, err := DecodeBundle(payload)
	if err != nil {
		t.Fatalf("decode incident bundle: %v", err)
	}
	if b.Detector != "cpr-commit-stuck" || b.Seq != 1 {
		t.Fatalf("bundle header: detector=%q seq=%d", b.Detector, b.Seq)
	}
	if b.Flight == nil || len(b.Flight.Events) == 0 {
		t.Fatal("bundle flight dump empty; commit lifecycle events expected")
	}
	if b.Metrics.Gauges["faster_phase"] != int64(faster.WaitFlush) {
		t.Fatalf("bundle metrics faster_phase = %d, want %d (WaitFlush)",
			b.Metrics.Gauges["faster_phase"], int64(faster.WaitFlush))
	}
	if len(b.GoroutineProfile) == 0 || len(b.HeapProfile) == 0 {
		t.Fatal("bundle missing goroutine/heap profile")
	}

	// Unblock the store: the commit completes and the detector clears after
	// clearAfter good samples.
	gate.gated.Store(false)
	close(gate.release)
	for {
		if res, ok := s.TryResult(token); ok {
			if res.Err != nil {
				t.Fatalf("commit failed after release: %v", res.Err)
			}
			break
		}
		pump(sess, 16)
		if time.Now().After(deadline) {
			t.Fatal("commit never completed after release")
		}
	}
	for i := 0; i < 2; i++ {
		pump(sess, 64)
		tick()
	}
	if firing("cpr-commit-stuck").Firing {
		t.Fatal("detector still firing after the commit completed")
	}
	if got := eng.Verdict().State; got != "healthy" {
		t.Fatalf("state = %q after recovery, want healthy", got)
	}
	evs, _ := fr.Events()
	var fires, clears int
	for _, ev := range evs {
		switch ev.Kind {
		case obs.FlightHealthFire:
			fires++
			if ev.Token != "cpr-commit-stuck" {
				t.Fatalf("fire event token %q", ev.Token)
			}
		case obs.FlightHealthClear:
			clears++
		}
	}
	if fires != 1 || clears != 1 {
		t.Fatalf("flight fire/clear = %d/%d, want 1/1", fires, clears)
	}
}

// TestHealthySoakNoFalsePositives runs a live store through ops and commits
// with every built-in detector plus the SLO armed and asserts the engine
// stays silent — the detectors' demand-present/progress-absent shape must
// not fire on a slow-but-progressing node. The soak loop takes a sample after
// each round of ops and its commit, on a clock that moves 5 ms a sample: a
// sampler on a wall-clock ticker could land three samples in a row while a
// loaded host kept the session off the CPU, and epoch-drain-stuck fired.
func TestHealthySoakNoFalsePositives(t *testing.T) {
	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(1024)
	s, err := faster.Open(faster.Config{
		IndexBuckets: 1 << 8,
		PageBits:     13,
		MemPages:     16,
		Metrics:      reg,
		Flight:       fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()

	eng := New(Config{
		Registry:  reg,
		Interval:  5 * time.Millisecond,
		SLODurLag: 10 * time.Second,
		Bundles:   storage.NewMemCheckpointStore(),
		Flight:    fr,
	})
	clock := time.Now().UnixNano()
	eng.now = func() int64 { return clock }

	var key uint64
	soakEnd := time.Now().Add(time.Second)
	for time.Now().Before(soakEnd) {
		for i := 0; i < 100; i++ {
			key++
			sess.Upsert(k64(key%512), k64(key))
		}
		token, err := s.Commit(faster.CommitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Bounded by wall time, not by a pass count: each pass yields, so the
		// commit's flush runs even on one processor.
		for deadline := time.Now().Add(30 * time.Second); ; runtime.Gosched() {
			if res, ok := s.TryResult(token); ok {
				if res.Err != nil {
					t.Fatalf("commit: %v", res.Err)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("commit %s did not finish in 30 s", token)
			}
			pump(sess, 8)
		}
		clock += int64(5 * time.Millisecond)
		eng.Tick()
	}

	snap := reg.Snapshot()
	if n := snap.Counters["faster_health_incidents_total"]; n != 0 {
		t.Errorf("healthy soak captured %d incident(s)", n)
	}
	if g := snap.Gauges["faster_health_state"]; g != 0 {
		t.Errorf("faster_health_state = %d after healthy soak, want 0: %+v", g, eng.Verdict())
	}
	if snap.Counters["faster_health_samples_total"] < 10 {
		t.Errorf("soak took only %d samples; engine not running?", snap.Counters["faster_health_samples_total"])
	}
	evs, _ := fr.Events()
	for _, ev := range evs {
		if ev.Kind == obs.FlightHealthFire {
			t.Errorf("healthy soak emitted a health-fire event: %s", ev.Token)
		}
	}
}

// TestSamplerOverheadBudget bounds the always-on cost: one Tick over a
// populated registry (store metrics, histograms, SLO scan) must cost well
// under 1% of the default 1s sampling interval.
func TestSamplerOverheadBudget(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := faster.Open(faster.Config{
		IndexBuckets: 1 << 8,
		PageBits:     13,
		MemPages:     16,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	for i := uint64(0); i < 2048; i++ {
		sess.Upsert(k64(i%256), k64(i))
	}

	eng := New(Config{Registry: reg, SLODurLag: time.Second})
	eng.Tick() // baseline
	const ticks = 200
	start := time.Now()
	for i := 0; i < ticks; i++ {
		eng.Tick()
	}
	avg := time.Since(start) / ticks
	if budget := time.Second / 100; avg > budget {
		t.Fatalf("average Tick cost %v exceeds the 1%% sampling budget (%v)", avg, budget)
	}
}
