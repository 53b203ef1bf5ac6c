//go:build !race

package kvserver

import (
	"maps"
	"testing"

	"repro/internal/faster"
	"repro/internal/obs"
)

// TestOpPathCosts counts what the operation path costs an instrumented store
// with a flight recorder and a request tracer, where timed throughput
// comparisons flapped on a small host. Per in-memory Read, Upsert and RMW:
// no allocation, no flight event, and exactly one registry counter increment,
// of the op kind's own counter. Per traced BATCH of 64: the documented span
// set — request, decode, exec spans while three of the trace's twelve slots
// remain, batch and resp-write — with none dropped. (AllocsPerRun counts the
// race detector's own allocations, hence the build tag.)
func TestOpPathCosts(t *testing.T) {
	const calls = 10_000
	fr := obs.NewFlightRecorder(1024)
	rt := obs.NewRequestTracer(128)
	store, err := faster.Open(faster.Config{IndexBuckets: 1 << 10, PageBits: 16, MemPages: 8, Flight: fr, ReqTrace: rt})
	if err != nil {
		t.Fatal(err)
	}
	sess := store.StartSession()
	t.Cleanup(func() { sess.StopSession(); store.Close() })
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = u64(uint64(i) * 0x9e3779b97f4a7c15)
		if st := sess.Upsert(keys[i], u64(uint64(i))); st != faster.Ok {
			t.Fatalf("preload %d: %v", i, st)
		}
	}
	events := func() uint64 { evs, dropped := fr.Events(); return uint64(len(evs)) + dropped }

	for _, c := range []struct {
		kind, counter string
		op            func(key []byte) faster.Status
	}{
		{"Read", "faster_reads_total", func(k []byte) faster.Status { _, st := sess.Read(k, nil); return st }},
		{"Upsert", "faster_upserts_total", func(k []byte) faster.Status { return sess.Upsert(k, k) }},
		{"RMW", "faster_rmws_total", func(k []byte) faster.Status { return sess.RMW(k, k) }},
	} {
		before, evBefore, failed := store.Metrics().Snapshot(), events(), 0
		// AllocsPerRun runs the loop twice: once to warm up, once measured.
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < calls; i++ {
				if c.op(keys[i%len(keys)]) != faster.Ok {
					failed++
				}
			}
		})
		if failed > 0 || allocs != 0 {
			t.Errorf("%s: %d of %d calls not Ok, %.0f allocations", c.kind, failed, 2*calls, allocs)
		}
		for name, n := range store.Metrics().Snapshot().Sub(before).Counters {
			want := uint64(0)
			if name == c.counter {
				want = 2 * calls
			}
			if n != want {
				t.Errorf("%s: %s grew by %d in %d calls, want %d", c.kind, name, n, 2*calls, want)
			}
		}
		if n := events() - evBefore; n != 0 {
			t.Errorf("%s: %d flight events from the op path, want 0", c.kind, n)
		}
	}

	// 100 traced BATCHes, each under a trace ID of its own.
	var raw []byte
	for i := uint64(1); i <= 100; i++ {
		raw = append(raw, batch64(t, keys, obs.TraceContext{TraceID: i, ParentSpan: 1})...)
	}
	if err := newReplayConn(NewServer(store), sess, raw, 100).pass(); err != nil {
		t.Fatal(err)
	}
	dump := rt.Dump(0, nil)
	if dump.SpanDrops != 0 || len(dump.Traces) == 0 {
		t.Fatalf("%d spans dropped, %d traces retained", dump.SpanDrops, len(dump.Traces))
	}
	want := map[obs.SpanKind]int{obs.SpanRequest: 1, obs.SpanDecode: 1, obs.SpanExec: 9, obs.SpanBatch: 1, obs.SpanRespWrite: 1}
	for _, tr := range dump.Traces {
		got := map[obs.SpanKind]int{}
		for _, sp := range tr.Spans {
			got[sp.Kind]++
		}
		if !maps.Equal(got, want) {
			t.Fatalf("trace %d: spans %v, want %v", tr.TraceID, got, want)
		}
	}
}
