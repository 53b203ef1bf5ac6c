package health

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// testEngine wires an Engine to a fake monotonic clock and a switchable
// detector, the minimal rig for exercising hysteresis and capture policy.
type testEngine struct {
	e      *Engine
	reg    *obs.Registry
	store  *storage.MemCheckpointStore
	fr     *obs.FlightRecorder
	clock  atomic.Int64
	bad    atomic.Bool
	badCrt atomic.Bool
}

func newTestEngine(t *testing.T, mutate func(*Config)) *testEngine {
	t.Helper()
	te := &testEngine{
		reg:   obs.NewRegistry(),
		store: storage.NewMemCheckpointStore(),
		fr:    obs.NewFlightRecorder(256),
	}
	te.clock.Store(1_000_000_000)
	cfg := Config{
		Registry:          te.reg,
		FireAfter:         3,
		ClearAfter:        2,
		Bundles:           te.store,
		Flight:            te.fr,
		MinBundleInterval: time.Minute,
		Detectors: []Detector{
			{
				Name:        "test-stall",
				Description: "fires while the test flag is set",
				Check: func(prev, cur Sample) (bool, string) {
					return te.bad.Load(), "test detail"
				},
			},
			{
				Name:     "test-critical",
				Critical: true,
				Check: func(prev, cur Sample) (bool, string) {
					return te.badCrt.Load(), "critical detail"
				},
			},
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	te.e = New(cfg)
	te.e.now = func() int64 { return te.clock.Load() }
	return te
}

// tick advances the fake clock by one second and takes a sample.
func (te *testEngine) tick() {
	te.clock.Add(int64(time.Second))
	te.e.Tick()
}

func (te *testEngine) status(name string) DetectorStatus {
	for _, d := range te.e.Verdict().Detectors {
		if d.Name == name {
			return d
		}
	}
	return DetectorStatus{}
}

func (te *testEngine) flightEvents(kind obs.FlightKind) []obs.FlightEvent {
	evs, _ := te.fr.Events()
	var out []obs.FlightEvent
	for _, ev := range evs {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

func TestHysteresisFireAndClear(t *testing.T) {
	te := newTestEngine(t, nil)

	te.tick() // baseline: no prev sample, nothing can fire
	te.bad.Store(true)
	for i := 1; i <= 2; i++ {
		te.tick()
		if te.status("test-stall").Firing {
			t.Fatalf("fired after %d bad sample(s); FireAfter is 3", i)
		}
	}
	te.tick() // third consecutive bad sample
	st := te.status("test-stall")
	if !st.Firing {
		t.Fatal("not firing after 3 consecutive bad samples")
	}
	if st.Detail != "test detail" || st.SinceUnixNanos == 0 {
		t.Fatalf("firing status incomplete: %+v", st)
	}
	if got := te.e.Verdict().State; got != "degraded:test-stall" {
		t.Fatalf("state = %q, want degraded:test-stall", got)
	}

	// One good sample must not clear (ClearAfter is 2)...
	te.bad.Store(false)
	te.tick()
	if !te.status("test-stall").Firing {
		t.Fatal("cleared after a single good sample; ClearAfter is 2")
	}
	// ...and a relapse resets the good streak.
	te.bad.Store(true)
	te.tick()
	te.bad.Store(false)
	te.tick()
	if !te.status("test-stall").Firing {
		t.Fatal("cleared with an interrupted good streak")
	}
	te.tick()
	st = te.status("test-stall")
	if st.Firing {
		t.Fatal("still firing after 2 consecutive good samples")
	}
	if st.Detail != "" || st.SinceUnixNanos != 0 {
		t.Fatalf("cleared status not reset: %+v", st)
	}
	if got := te.e.Verdict().State; got != "healthy" {
		t.Fatalf("state = %q, want healthy", got)
	}

	fires := te.flightEvents(obs.FlightHealthFire)
	if len(fires) != 1 || fires[0].Token != "test-stall" {
		t.Fatalf("flight fire events = %+v, want one for test-stall", fires)
	}
	clears := te.flightEvents(obs.FlightHealthClear)
	if len(clears) != 1 || clears[0].Token != "test-stall" {
		t.Fatalf("flight clear events = %+v, want one for test-stall", clears)
	}
}

func TestCriticalDetectorUnhealthy(t *testing.T) {
	te := newTestEngine(t, nil)
	te.tick()
	if v := te.e.Verdict(); !v.Healthy() {
		t.Fatalf("state = %q before any detector fired", v.State)
	}

	te.badCrt.Store(true)
	te.bad.Store(true)
	for i := 0; i < 3; i++ {
		te.tick()
	}
	v := te.e.Verdict()
	if v.State != "unhealthy:test-critical,test-stall" {
		t.Fatalf("state = %q, want unhealthy:test-critical,test-stall", v.State)
	}
	if v.Healthy() {
		t.Fatal("unhealthy verdict reported Healthy()")
	}

	// Gauges follow the verdict.
	snap := te.reg.Snapshot()
	if snap.Gauges["faster_health_state"] != 2 {
		t.Fatalf("faster_health_state = %d, want 2", snap.Gauges["faster_health_state"])
	}
	if snap.Gauges["faster_health_detectors_firing"] != 2 {
		t.Fatalf("faster_health_detectors_firing = %d, want 2", snap.Gauges["faster_health_detectors_firing"])
	}
	if snap.Gauges["faster_health_firing_test_critical"] != 1 {
		t.Fatal("faster_health_firing_test_critical not set")
	}

	// Clear only the critical detector: verdict degrades instead.
	te.badCrt.Store(false)
	te.tick()
	te.tick()
	if got := te.e.Verdict().State; got != "degraded:test-stall" {
		t.Fatalf("state = %q, want degraded:test-stall", got)
	}
	if g := te.reg.Snapshot().Gauges["faster_health_state"]; g != 1 {
		t.Fatalf("faster_health_state = %d, want 1", g)
	}
}

func TestIncidentBundleCaptureAndRateLimit(t *testing.T) {
	var incidents []*Bundle
	te := newTestEngine(t, func(cfg *Config) {
		cfg.OnIncident = func(b *Bundle) { incidents = append(incidents, b) }
	})
	te.tick()
	te.bad.Store(true)
	for i := 0; i < 3; i++ {
		te.tick()
	}

	// A bundle must exist under the detector-stamped name and decode whole.
	payload, err := storage.ReadArtifactChecked(te.store, "incident-test-stall-1")
	if err != nil {
		t.Fatalf("read incident artifact: %v", err)
	}
	b, err := DecodeBundle(payload)
	if err != nil {
		t.Fatalf("decode bundle: %v", err)
	}
	if b.Detector != "test-stall" || b.Seq != 1 || b.Detail != "test detail" {
		t.Fatalf("bundle header: %+v", b)
	}
	if b.Metrics.Counters["faster_health_samples_total"] == 0 {
		t.Fatal("bundle metrics snapshot missing health counters")
	}
	if !strings.HasPrefix(b.Verdict.State, "degraded") {
		t.Fatalf("bundle verdict state = %q", b.Verdict.State)
	}
	if b.Flight == nil {
		t.Fatal("bundle missing flight dump")
	}
	if len(b.GoroutineProfile) == 0 || !strings.Contains(string(b.GoroutineProfile), "goroutine") {
		t.Fatal("bundle missing goroutine profile")
	}
	if len(b.HeapProfile) == 0 {
		t.Fatal("bundle missing heap profile")
	}
	if len(incidents) != 1 {
		t.Fatalf("OnIncident called %d times, want 1", len(incidents))
	}
	if c := te.reg.Snapshot().Counters["faster_health_incidents_total"]; c != 1 {
		t.Fatalf("faster_health_incidents_total = %d, want 1", c)
	}

	// The fire event carries the bundle seq in Arg2.
	fires := te.flightEvents(obs.FlightHealthFire)
	if len(fires) != 1 || fires[0].Arg2 != 1 {
		t.Fatalf("fire event %+v, want Arg2=1", fires)
	}

	// A second detector firing 3s later is inside MinBundleInterval: the
	// detector fires but capture is rate-limited (no new artifact).
	te.badCrt.Store(true)
	for i := 0; i < 3; i++ {
		te.tick()
	}
	if !te.status("test-critical").Firing {
		t.Fatal("rate limit suppressed the detector, not just the bundle")
	}
	if _, err := storage.ReadArtifactChecked(te.store, "incident-test-critical-2"); err == nil {
		t.Fatal("rate-limited fire still wrote a bundle")
	}
	if len(incidents) != 1 {
		t.Fatal("OnIncident called for a rate-limited fire")
	}

	// After the interval passes, the next fire captures again.
	te.badCrt.Store(false)
	te.tick()
	te.tick() // cleared
	te.clock.Add(int64(2 * time.Minute))
	te.badCrt.Store(true)
	for i := 0; i < 3; i++ {
		te.tick()
	}
	if _, err := storage.ReadArtifactChecked(te.store, "incident-test-critical-2"); err != nil {
		t.Fatalf("post-interval fire did not capture: %v", err)
	}
	if len(incidents) != 2 {
		t.Fatalf("OnIncident called %d times, want 2", len(incidents))
	}
}

func TestEngineNoBundleStore(t *testing.T) {
	// Without a bundle store the engine still fires and verdicts degrade.
	te := newTestEngine(t, func(cfg *Config) { cfg.Bundles = nil })
	te.tick()
	te.bad.Store(true)
	for i := 0; i < 3; i++ {
		te.tick()
	}
	if !te.status("test-stall").Firing {
		t.Fatal("detector did not fire without a bundle store")
	}
	if c := te.reg.Snapshot().Counters["faster_health_incidents_total"]; c != 0 {
		t.Fatalf("faster_health_incidents_total = %d, want 0", c)
	}
}

func TestEngineStartStop(t *testing.T) {
	te := newTestEngine(t, func(cfg *Config) { cfg.Interval = time.Millisecond })
	te.e.Start()
	te.e.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for te.reg.Snapshot().Counters["faster_health_samples_total"] < 3 {
		if time.Now().After(deadline) {
			t.Fatal("sampling goroutine took no samples")
		}
		time.Sleep(time.Millisecond)
	}
	te.e.Stop()
	te.e.Stop() // idempotent
	after := te.reg.Snapshot().Counters["faster_health_samples_total"]
	time.Sleep(10 * time.Millisecond)
	if got := te.reg.Snapshot().Counters["faster_health_samples_total"]; got != after {
		t.Fatalf("samples kept accruing after Stop: %d -> %d", after, got)
	}
}

func TestBuiltinSuiteRegistersMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	New(Config{Registry: reg, SLODurLag: 10 * time.Millisecond})
	snap := reg.Snapshot()
	for _, name := range []string{
		"faster_health_firing_epoch_drain_stuck",
		"faster_health_firing_cpr_commit_stuck",
		"faster_health_firing_inlog_fsync_stalled",
		"faster_health_firing_repl_lag_growing",
		"faster_health_firing_restore_sweeper_stalled",
		"faster_health_firing_flush_starvation",
		"faster_health_firing_slo_durlag_burn",
		"faster_health_state",
		"faster_health_detectors_firing",
		"faster_health_slo_durlag_p99_ns",
	} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("gauge %s not registered", name)
		}
	}
	if _, ok := snap.Counters["faster_health_samples_total"]; !ok {
		t.Error("faster_health_samples_total not registered")
	}
}
