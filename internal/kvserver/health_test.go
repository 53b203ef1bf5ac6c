package kvserver

import (
	"strings"
	"testing"
	"time"

	"repro/internal/health"
)

func TestOpHealthRoundTrip(t *testing.T) {
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

	v, err := c.Health()
	if err != nil {
		t.Fatalf("health op: %v", err)
	}
	if v.State != "healthy" {
		t.Fatalf("verdict state = %q, want healthy", v.State)
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

	// The stats snapshot carries the same verdict when the hook is wired.
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Health == nil || stats.Health.State != "healthy" {
		t.Fatalf("stats.Health = %+v, want healthy verdict", stats.Health)
	}
}

func TestOpHealthDisabled(t *testing.T) {
	_, addr, _ := startServer(t, smallCfg())
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Health(); err == nil || !strings.Contains(err.Error(), "health engine disabled") {
		t.Fatalf("health on a server without an engine: err = %v, want disabled error", err)
	}

	// Stats still works, just without the health block.
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Health != nil {
		t.Fatalf("stats.Health = %+v on a server without an engine, want nil", stats.Health)
	}
}
