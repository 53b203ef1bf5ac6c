package kvserver

import (
	"testing"
	"time"

	"repro/internal/health"
)

// TestStatsCarriesHealthVerdict: a server with a health engine puts the
// engine's verdict, every built-in detector listed, in each STATS reply.
func TestStatsCarriesHealthVerdict(t *testing.T) {
	srv, addr, store := startServer(t, smallCfg())
	eng := health.New(health.Config{Registry: store.Metrics(), Interval: 5 * time.Millisecond})
	srv.Health = eng.Verdict
	eng.Tick() // the baseline sample: a verdict asked for before it lists no detectors
	eng.Start()
	defer eng.Stop()

	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	v := stats.Health
	if v == nil || v.State != "healthy" {
		t.Fatalf("stats.Health = %+v, want a healthy verdict", v)
	}
	names := map[string]bool{}
	for _, d := range v.Detectors {
		names[d.Name] = true
	}
	for _, want := range []string{"cpr-commit-stuck", "epoch-drain-stuck", "flush-starvation"} {
		if !names[want] {
			t.Errorf("verdict missing built-in detector %s: %v", want, names)
		}
	}
}

// TestStatsWithoutHealthEngine: without an engine STATS still answers, with
// no health block.
func TestStatsWithoutHealthEngine(t *testing.T) {
	_, addr, _ := startServer(t, smallCfg())
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Health != nil {
		t.Fatalf("stats.Health = %+v on a server without an engine, want nil", stats.Health)
	}
}
