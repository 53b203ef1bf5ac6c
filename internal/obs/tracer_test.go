package obs

import (
	"reflect"
	"testing"
)

// phaseEv is a hand-built phase event of the lifecycle ring.
func phaseEv(seq uint64, at int64, shard int, token string, from, to uint64) FlightEvent {
	return FlightEvent{Ring: 1, Seq: seq, AtNanos: at, Kind: FlightPhase, Shard: shard,
		Version: 3, Token: token, Arg1: from, Arg2: to}
}

// TestBuildTimelineEvents: phase, session-crossing and epoch-drain flight
// events become timeline events in order; everything else is skipped; a drain
// is the drain of the latest transition recorded before its epoch was bumped.
func TestBuildTimelineEvents(t *testing.T) {
	evs := []FlightEvent{
		{AtNanos: 5, Kind: FlightEpochDrain, Shard: -1, Arg1: 1, Arg2: 2}, // before any transition: nobody's
		{AtNanos: 10, Kind: FlightCommitStart, Shard: -1, Version: 3, Token: "tok"},
		phaseEv(1, 10, -1, "tok", 0, 1),
		{AtNanos: 11, Kind: FlightEpochBump, Shard: -1, Arg1: 7},
		{AtNanos: 20, Kind: FlightAckPrepare, Shard: -1, Version: 3, Token: "tok", Session: "s1", Arg1: 10},
		phaseEv(2, 21, -1, "tok", 1, 2),
		{AtNanos: 25, Kind: FlightEpochDrain, Shard: -1, Arg1: 7, Arg2: 14}, // bumped at 11: prepare's
		{AtNanos: 26, Kind: FlightEpochDrain, Shard: -1, Arg1: 8, Arg2: 4},  // bumped at 22: in-progress's
		{AtNanos: 27, Kind: FlightEpochDrain, Shard: -1, Arg1: 9, Arg2: 1},  // in-progress has its drain
		{AtNanos: 28, Kind: FlightEpochDrain, Shard: 0, Arg1: 9, Arg2: 1},   // another machine's epochs
		{AtNanos: 30, Kind: FlightDemarcate, Shard: -1, Version: 3, Token: "tok", Session: "s1", Arg1: 12},
		{AtNanos: 31, Kind: FlightDrop, Shard: -1, Version: 3, Token: "tok", Session: "s2", Arg1: 4},
		{AtNanos: 40, Kind: FlightPersistDone, Shard: -1, Version: 3, Token: "tok", Arg1: 4096},
	}
	want := []Event{
		{Seq: 0, AtNanos: 10, Kind: KindPhase, Token: "tok", Version: 3, From: "rest", Phase: "prepare"},
		{Seq: 1, AtNanos: 20, Kind: KindSession, Token: "tok", Version: 3, Session: "s1", Event: "ack-prepare", Serial: 10},
		{Seq: 2, AtNanos: 21, Kind: KindPhase, Token: "tok", Version: 3, From: "prepare", Phase: "in-progress"},
		{Seq: 3, AtNanos: 25, Kind: KindDrain, Token: "tok", Version: 3, Phase: "prepare", DurationNanos: 14},
		{Seq: 4, AtNanos: 26, Kind: KindDrain, Token: "tok", Version: 3, Phase: "in-progress", DurationNanos: 4},
		{Seq: 5, AtNanos: 30, Kind: KindSession, Token: "tok", Version: 3, Session: "s1", Event: "demarcate", Serial: 12},
		{Seq: 6, AtNanos: 31, Kind: KindSession, Token: "tok", Version: 3, Session: "s2", Event: "drop", Serial: 4},
	}
	if got := BuildTimeline(evs, 50).Events; !reflect.DeepEqual(got, want) {
		t.Fatalf("events:\n got %+v\nwant %+v", got, want)
	}
}

// TestBuildTimelineSpans: spans are paired per machine — two lanes walking
// one commit interleaved, two transitions of one machine at the same instant —
// and only a machine's last span is open. Tokens are the bare commit token.
func TestBuildTimelineSpans(t *testing.T) {
	evs := []FlightEvent{
		phaseEv(1, 100, 0, "tok", 0, 1),
		phaseEv(2, 110, 1, "tok", 0, 1),
		phaseEv(3, 150, 0, "tok", 1, 2),
		phaseEv(4, 150, 0, "tok", 2, 3), // same instant, later ticket
		phaseEv(5, 400, 1, "tok", 1, 2),
		phaseEv(6, 900, 0, "tok", 3, 0),
		phaseEv(7, 950, 0, "tok2", 0, 1), // the rest span ends where the next commit starts
	}
	tl := BuildTimeline(evs, 1000)
	span := func(phase, token string, shard int, start, end int64, open bool) PhaseSpan {
		return PhaseSpan{Phase: phase, Token: token, Shard: shard, Version: 3,
			StartNanos: start, EndNanos: end, DurationNanos: end - start, Open: open}
	}
	want := []PhaseSpan{
		span("prepare", "tok", 0, 100, 150, false),
		span("in-progress", "tok", 0, 150, 150, false),
		span("prepare", "tok", 1, 110, 400, false),
		span("wait-pending", "tok", 0, 150, 900, false),
		span("rest", "tok", 0, 900, 950, false),
		span("prepare", "tok2", 0, 950, 1000, true),
		span("in-progress", "tok", 1, 400, 1000, true),
	}
	if !reflect.DeepEqual(tl.Spans, want) {
		t.Fatalf("spans:\n got %+v\nwant %+v", tl.Spans, want)
	}
	for i, e := range tl.Events {
		if e.Token != evs[i].Token {
			t.Fatalf("event %d token %q, want %q", i, e.Token, evs[i].Token)
		}
	}
}

// TestTracerView: the view reads the recorder it was made from, reports its
// drops, and is empty without one.
func TestTracerView(t *testing.T) {
	f := NewFlightRecorder(64)
	for i := uint64(0); i < flightLifecycleSlots+24; i++ {
		f.Emit(FlightPhase, 0, i, "tok", "", 0, 1)
	}
	tl := f.Tracer().Timeline()
	if len(tl.Events) != flightLifecycleSlots || tl.Dropped != 24 {
		t.Fatalf("%d events, %d dropped; want %d and 24", len(tl.Events), tl.Dropped, flightLifecycleSlots)
	}
	// The ring keeps the tail, in order.
	if first, last := tl.Events[0], tl.Events[len(tl.Events)-1]; first.Version != 24 || last.Version != flightLifecycleSlots+23 {
		t.Fatalf("retained versions [%d, %d]", first.Version, last.Version)
	}
	if last := tl.Spans[len(tl.Spans)-1]; !last.Open || last.EndNanos < last.StartNanos {
		t.Fatalf("trailing span %+v, want an open one", last)
	}
	var none *FlightRecorder
	var nilView *Tracer
	for _, v := range []*Tracer{none.Tracer(), nilView} {
		if tl := v.Timeline(); len(tl.Events) != 0 || len(tl.Spans) != 0 {
			t.Fatal("a view of no recorder returned a timeline")
		}
	}
}
