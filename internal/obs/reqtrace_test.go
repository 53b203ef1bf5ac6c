package obs

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

// TestNilRequestTracerIsNoop: every method on a nil tracer and a nil active
// trace must be safe — call sites never branch on whether tracing is on.
func TestNilRequestTracerIsNoop(t *testing.T) {
	var tr *RequestTracer
	var at ActiveTrace
	tr.Begin(&at, TraceContext{TraceID: 7}, "SET", "s1")
	at.Span(SpanExec, 1, 2, 0, 0, "")
	tr.Finish(&at, 1, 2)
	var nilAt *ActiveTrace
	tr.Begin(nilAt, TraceContext{}, "SET", "")
	nilAt.Span(SpanExec, 1, 2, 0, 0, "")
	if got := tr.Slowest(5); got != nil {
		t.Fatalf("nil tracer retained traces: %v", got)
	}
	if d := tr.Dump(5, nil); len(d.Traces) != 0 || d.Finished != 0 {
		t.Fatalf("nil tracer dump not empty: %+v", d)
	}
	if tr.ThresholdNanos() != 0 || tr.Finished() != 0 {
		t.Fatal("nil tracer reported non-zero state")
	}
}

// TestRequestTraceRetention: during warmup everything is retained with the
// full span tree, span IDs chain off the wire-propagated parent, and the
// trace window extends back to the earliest span (the client issue instant).
func TestRequestTraceRetention(t *testing.T) {
	tr := NewRequestTracer(DefaultTraceReservoir)
	tc := TraceContext{TraceID: 42, ParentSpan: 10, IssuedUnixNanos: 900}
	var at ActiveTrace
	tr.Begin(&at, tc, "SET", "sess-a")
	// Server saw the frame at t=1000; the queue span reaches back to issue.
	at.Span(SpanQueue, 900, 1000, 0, 0, "")
	at.Span(SpanExec, 1000, 1400, 17, 0, "")
	at.Span(SpanDurWait, 1400, 1900, 5, 5, "ckpt-0001")
	tr.Finish(&at, 1000, 2000)
	// Finish disarms the scratch: further spans and a double Finish are no-ops.
	at.Span(SpanExec, 1, 2, 0, 0, "")
	tr.Finish(&at, 1, 2)

	traces := tr.Slowest(0)
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(traces))
	}
	rt := traces[0]
	if rt.TraceID != 42 || rt.Op != "SET" || rt.Session != "sess-a" {
		t.Fatalf("trace identity wrong: %+v", rt)
	}
	if rt.StartUnixNanos != 900 || rt.TotalNanos != 1100 {
		t.Fatalf("window = [%d, +%d], want [900, +1100]", rt.StartUnixNanos, rt.TotalNanos)
	}
	if len(rt.Spans) != 4 {
		t.Fatalf("got %d spans, want 4 (root + 3 hops)", len(rt.Spans))
	}
	root := rt.Spans[0]
	if root.Kind != SpanRequest || root.ID != 11 || root.Parent != 10 {
		t.Fatalf("root span wrong: %+v", root)
	}
	for i, sp := range rt.Spans[1:] {
		if sp.Parent != root.ID {
			t.Fatalf("span %d parent = %d, want root %d", i, sp.Parent, root.ID)
		}
		if sp.ID != root.ID+uint64(i)+1 {
			t.Fatalf("span %d id = %d, want sequential", i, sp.ID)
		}
	}
	if dw := rt.Spans[3]; dw.Token != "ckpt-0001" || dw.DurationNanos() != 500 {
		t.Fatalf("durwait span wrong: %+v", dw)
	}
}

// TestRequestTracerAssignsTraceID: a zero TraceContext still traces; the
// server mints a process-unique ID.
func TestRequestTracerAssignsTraceID(t *testing.T) {
	tr := NewRequestTracer(16)
	var at ActiveTrace
	tr.Begin(&at, TraceContext{}, "GET", "")
	tr.Finish(&at, 100, 200)
	traces := tr.Slowest(1)
	if len(traces) != 1 || traces[0].TraceID == 0 {
		t.Fatalf("expected minted trace ID, got %+v", traces)
	}
	if a, b := NewTraceID(), NewTraceID(); a == b || a == 0 || b == 0 {
		t.Fatalf("NewTraceID not unique: %d %d", a, b)
	}
}

// TestTailSamplerThreshold: after warmup, only requests at or above the
// self-adjusted p99 threshold are retained. 10_000 fast requests (~1us) and a
// sprinkle of slow ones (~1ms) must leave the slow ones in the reservoir and
// a threshold between the two populations.
func TestTailSamplerThreshold(t *testing.T) {
	tr := NewRequestTracer(DefaultTraceReservoir)
	const fast, slow = 1_000, 1_000_000
	var at ActiveTrace
	for i := 0; i < 10_000; i++ {
		tr.Begin(&at, TraceContext{}, "GET", "")
		tr.Finish(&at, 0, fast)
	}
	thr := tr.ThresholdNanos()
	if thr == 0 || thr > fast*2 {
		t.Fatalf("threshold after uniform load = %d, want within the fast bucket", thr)
	}
	for i := 0; i < 8; i++ {
		tr.Begin(&at, TraceContext{}, "COMMIT", "")
		tr.Finish(&at, 0, slow)
	}
	got := tr.Slowest(8)
	if len(got) != 8 {
		t.Fatalf("retained %d slow traces, want 8", len(got))
	}
	for _, rt := range got {
		if rt.TotalNanos != slow {
			t.Fatalf("fast request leaked into the tail reservoir: %+v", rt)
		}
	}
	// Slowest must be sorted descending.
	for i := 1; i < len(got); i++ {
		if got[i].TotalNanos > got[i-1].TotalNanos {
			t.Fatal("Slowest not sorted descending")
		}
	}
}

// TestSpanOverflowDropsNotGrows: more spans than the inline capacity are
// dropped and counted, never heap-grown.
func TestSpanOverflowDropsNotGrows(t *testing.T) {
	tr := NewRequestTracer(16)
	var at ActiveTrace
	tr.Begin(&at, TraceContext{}, "SET", "")
	for i := 0; i < maxTraceSpans+5; i++ {
		at.Span(SpanExec, int64(i), int64(i+1), 0, 0, "")
	}
	tr.Finish(&at, 0, 100)
	if d := tr.Dump(1, nil); d.SpanDrops != 5 {
		t.Fatalf("span drops = %d, want 5", d.SpanDrops)
	}
	rt := tr.Slowest(1)[0]
	if len(rt.Spans) != maxTraceSpans+1 {
		t.Fatalf("retained %d spans, want inline cap %d + root", len(rt.Spans), maxTraceSpans)
	}
}

// TestReplSpans: the global spans are a function of the repl-ship and
// commit-announced flight events — a ship span as long as the event says, ending
// at it; an announce span from the token's shipping to its announcement.
func TestReplSpans(t *testing.T) {
	const wall = 1_000_000
	dump := FlightDump{WallStartNanos: wall, Events: []FlightEvent{
		{AtNanos: 50, Kind: FlightCommitAnnounced, Shard: -1, Version: 1, Token: "tok-0"}, // its shipping is gone
		{AtNanos: 300, Kind: FlightReplShip, Shard: -1, Version: 2, Token: "tok-a", Arg1: 4096, Arg2: 100},
		{AtNanos: 310, Kind: FlightCommitDone, Shard: -1, Version: 3, Token: "tok-b"},
		{AtNanos: 350, Kind: FlightCommitAnnounced, Shard: -1, Version: 2, Token: "tok-a"},
	}}
	want := []Span{
		{Kind: SpanReplShip, Token: "tok-a", StartUnixNanos: wall + 200, EndUnixNanos: wall + 300, Arg1: 4096, Arg2: 2},
		{Kind: SpanReplAnnounce, Token: "tok-a", StartUnixNanos: wall + 300, EndUnixNanos: wall + 350, Arg1: 2},
	}
	if got := ReplSpans(dump); !reflect.DeepEqual(got, want) {
		t.Fatalf("spans:\n got %+v\nwant %+v", got, want)
	}
}

// TestTraceDumpJSONRoundTrip: the dump survives JSON — span kinds encode as
// stable names and decode back.
func TestTraceDumpJSONRoundTrip(t *testing.T) {
	tr := NewRequestTracer(16)
	var at ActiveTrace
	tr.Begin(&at, TraceContext{TraceID: 9}, "RMW", "s")
	at.Span(SpanDurWait, 10, 20, 3, 3, "ckpt-0002")
	tr.Finish(&at, 10, 25)
	fr := NewFlightRecorder(64)
	fr.Emit(FlightReplShip, -1, 2, "ckpt-0002", "", 64, 6)

	raw, err := json.Marshal(tr.Dump(5, fr))
	if err != nil {
		t.Fatal(err)
	}
	var back TraceDump
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Traces) != 1 || len(back.Global) != 1 {
		t.Fatalf("round-trip lost data: %d traces, %d global", len(back.Traces), len(back.Global))
	}
	if back.Traces[0].Spans[1].Kind != SpanDurWait {
		t.Fatalf("span kind did not survive JSON: %+v", back.Traces[0].Spans[1])
	}
	if back.Global[0].Kind != SpanReplShip || back.Global[0].Token != "ckpt-0002" {
		t.Fatalf("global span did not survive JSON: %+v", back.Global[0])
	}
	var k SpanKind
	if err := k.UnmarshalJSON([]byte(`"bogus"`)); err == nil {
		t.Fatal("unknown span kind name accepted")
	}
	if err := k.UnmarshalJSON([]byte(`5`)); err == nil {
		t.Fatal("a span kind's number accepted in place of its name")
	}
}

// TestRequestTracerConcurrent exercises the lock-free reservoir from many
// goroutines; run under -race in CI.
func TestRequestTracerConcurrent(t *testing.T) {
	tr := NewRequestTracer(DefaultTraceReservoir)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var at ActiveTrace
			for i := 0; i < 2_000; i++ {
				tr.Begin(&at, TraceContext{}, "SET", "s")
				at.Span(SpanExec, int64(i), int64(i)+100, 0, 0, "")
				tr.Finish(&at, int64(i), int64(i)+200)
				if i%64 == 0 {
					tr.Slowest(4)
				}
			}
		}(g)
	}
	wg.Wait()
	if tr.Finished() != 16_000 {
		t.Fatalf("finished = %d, want 16000", tr.Finished())
	}
}
