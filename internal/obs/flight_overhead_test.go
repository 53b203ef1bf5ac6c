package obs_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/obs"
)

// TestFlightOverheadGuard is the regression guard for the flight recorder's
// "always-on" contract: upsert throughput on a store recording flight events
// — including the commit-lifecycle events produced by periodic commits — must
// stay within 10% of the identical store with recording disabled (nil
// recorder). The hot paths only ever pay a nil check plus, on commit/flush
// boundaries, one lock-free ring append; if someone adds locking, allocation
// or formatting to Emit or its call sites, this test catches it.
func TestFlightOverheadGuard(t *testing.T) {
	timingGuard(t)

	const (
		keys      = 128
		ops       = 150_000
		commitEvg = 25_000 // ops between commits: lifecycle events flow too
		trials    = 5
	)
	keybuf := make([][]byte, keys)
	for i := range keybuf {
		keybuf[i] = []byte(fmt.Sprintf("key-%04d", i))
	}
	val := []byte("value-00000000")

	run := func(fr *obs.FlightRecorder) time.Duration {
		store, err := faster.Open(faster.Config{Metrics: obs.NewNop(), Flight: fr})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		sess := store.StartSession()
		defer sess.StopSession()
		for _, k := range keybuf { // warm the index
			if st := sess.Upsert(k, val); st != faster.Ok {
				t.Fatalf("warmup upsert: %v", st)
			}
		}
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			if st := sess.Upsert(keybuf[i%keys], val); st != faster.Ok {
				t.Fatalf("upsert: %v", st)
			}
			if i%commitEvg == commitEvg-1 {
				token, err := store.Commit(faster.CommitOptions{})
				if err != nil {
					t.Fatalf("commit: %v", err)
				}
				for {
					if res, ok := store.TryResult(token); ok {
						if res.Err != nil {
							t.Fatalf("commit result: %v", res.Err)
						}
						break
					}
					sess.Refresh()
				}
			}
		}
		return time.Since(t0)
	}

	best := map[string]time.Duration{"off": 1<<63 - 1, "on": 1<<63 - 1}
	for i := 0; i < trials; i++ {
		if d := run(nil); d < best["off"] {
			best["off"] = d
		}
		if d := run(obs.NewFlightRecorder(obs.DefaultFlightCapacity)); d < best["on"] {
			best["on"] = d
		}
	}

	offRate := float64(ops) / best["off"].Seconds()
	onRate := float64(ops) / best["on"].Seconds()
	t.Logf("upsert throughput with commits: recorder off %.0f ops/s, on %.0f ops/s (%.1f%%)",
		offRate, onRate, 100*onRate/offRate)
	if onRate < 0.90*offRate {
		t.Fatalf("flight recorder overhead exceeds 10%%: on %.0f ops/s vs off baseline %.0f ops/s",
			onRate, offRate)
	}
}
