package obs_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/obs"
)

// TestTracingOverheadGuard is the regression guard for request tracing's
// always-on contract, mirroring TestFlightOverheadGuard: driving the full
// per-request trace lifecycle (Begin, exec + durwait-shaped spans, Finish)
// around store upserts must stay within 10% of the identical loop with a nil
// tracer. The lifecycle is pooled and allocation-free; if someone adds
// allocation, locking or formatting to the hot path, this catches it.
func TestTracingOverheadGuard(t *testing.T) {
	timingGuard(t)

	const (
		keys   = 128
		ops    = 150_000
		trials = 5
	)
	keybuf := make([][]byte, keys)
	for i := range keybuf {
		keybuf[i] = []byte(fmt.Sprintf("key-%04d", i))
	}
	val := []byte("value-00000000")

	run := func(tr *obs.RequestTracer) time.Duration {
		store, err := faster.Open(faster.Config{Metrics: obs.NewNop()})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		sess := store.StartSession()
		defer sess.StopSession()
		for _, k := range keybuf {
			if st := sess.Upsert(k, val); st != faster.Ok {
				t.Fatalf("warmup upsert: %v", st)
			}
		}
		var at obs.ActiveTrace
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			start := time.Now().UnixNano()
			tr.Begin(&at, obs.TraceContext{}, "SET", "guard")
			if st := sess.Upsert(keybuf[i%keys], val); st != faster.Ok {
				t.Fatalf("upsert: %v", st)
			}
			end := time.Now().UnixNano()
			at.Span(obs.SpanExec, start, end, uint64(i), 0, "")
			tr.Finish(&at, start, end)
		}
		return time.Since(t0)
	}

	best := map[string]time.Duration{"off": 1<<63 - 1, "on": 1<<63 - 1}
	for i := 0; i < trials; i++ {
		if d := run(nil); d < best["off"] {
			best["off"] = d
		}
		if d := run(obs.NewRequestTracer(obs.DefaultTraceReservoir)); d < best["on"] {
			best["on"] = d
		}
	}

	offRate := float64(ops) / best["off"].Seconds()
	onRate := float64(ops) / best["on"].Seconds()
	t.Logf("traced upsert throughput: tracer off %.0f ops/s, on %.0f ops/s (%.1f%%)",
		offRate, onRate, 100*onRate/offRate)
	if onRate < 0.90*offRate {
		t.Fatalf("request tracing overhead exceeds 10%%: on %.0f ops/s vs off baseline %.0f ops/s",
			onRate, offRate)
	}
}
