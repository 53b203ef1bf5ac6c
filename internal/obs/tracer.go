package obs

import "time"

// Event kinds of a Timeline.
const (
	// KindPhase is a checkpoint state-machine transition (From -> Phase).
	KindPhase = "phase"
	// KindSession is a per-session/worker thread-crossing event: the moment
	// one participant acknowledged a phase ("ack-prepare"), demarcated its
	// CPR point ("demarcate"), or left an active commit ("drop").
	KindSession = "session"
	// KindDrain is an epoch-drain measurement: how long after a phase was
	// published every registered thread had observed it.
	KindDrain = "drain"
)

// Event is one timeline record. AtNanos is monotonic time since the flight
// recorder was created, so event deltas are exact even across wall-clock
// adjustments.
type Event struct {
	Seq     uint64 `json:"seq"`
	AtNanos int64  `json:"at_ns"`
	Kind    string `json:"kind"`
	// Token is the commit token.
	Token   string `json:"token,omitempty"`
	Version uint64 `json:"version,omitempty"`
	// Phase transitions: From -> Phase. Drain events set Phase to the phase
	// whose publication was drained.
	Phase string `json:"phase,omitempty"`
	From  string `json:"from,omitempty"`
	// Session events. Session is the recorder's FlightSessionBytes-long
	// prefix of the session ID.
	Session string `json:"session,omitempty"`
	Event   string `json:"event,omitempty"`
	Serial  uint64 `json:"serial,omitempty"`
	// Drain events.
	DurationNanos int64 `json:"duration_ns,omitempty"`
}

// PhaseSpan is one computed phase occupancy interval of one state machine:
// from the transition into Phase to that machine's next transition.
type PhaseSpan struct {
	Phase string `json:"phase"`
	// Token is the commit token; Shard the lane the machine's events carry
	// (-1, the store lane, for FASTER's and txdb's machines).
	Token         string `json:"token,omitempty"`
	Shard         int    `json:"shard"`
	Version       uint64 `json:"version,omitempty"`
	StartNanos    int64  `json:"start_ns"`
	EndNanos      int64  `json:"end_ns"`
	DurationNanos int64  `json:"duration_ns"`
	// Open marks a machine's most recent phase, still running at snapshot
	// time; EndNanos is then the snapshot instant.
	Open bool `json:"open,omitempty"`
}

// Timeline is the exportable trace: the state-machine events plus per-phase
// spans derived from the phase-transition events.
type Timeline struct {
	Events []Event     `json:"events"`
	Spans  []PhaseSpan `json:"spans"`
	// Dropped counts the events the recorder's rings lost to wraparound.
	Dropped uint64 `json:"dropped,omitempty"`
}

// Tracer is the phase-timeline view of a flight recorder: it records nothing
// and holds nothing but the recorder. With no recorder (nil Tracer included)
// the timeline is empty.
type Tracer struct{ flight *FlightRecorder }

// Tracer returns the phase-timeline view of f.
func (f *FlightRecorder) Tracer() *Tracer { return &Tracer{flight: f} }

// Timeline is BuildTimeline over the recorder's current events.
func (t *Tracer) Timeline() Timeline {
	if t == nil || t.flight == nil {
		return Timeline{}
	}
	evs, dropped := t.flight.Events()
	tl := BuildTimeline(evs, time.Since(t.flight.start).Nanoseconds())
	tl.Dropped = dropped
	return tl
}

// BuildTimeline computes the phase timeline from flight events in Events
// order. Phase, ack-prepare/demarcate/drop and epoch-drain events become
// timeline events, everything else is skipped. A state machine is the lane its
// events carry (the store lane, -1, for a store's one machine): each of its
// phase events closes the span its previous one opened, and the span left open
// is closed at now and marked Open.
//
// An epoch-drain event carries its lane, not a transition: the logs bump the
// same epochs for their own shifts. But any epoch of the lane bumped after a
// transition was recorded shows, once drained, that every registered thread
// has observed the transition — and the machine bumps right after most. So a
// drain whose bump (AtNanos - Arg2) follows a phase event of its lane that has
// no drain yet is that transition's drain; the others are left out.
func BuildTimeline(evs []FlightEvent, now int64) Timeline {
	type machine struct {
		span      PhaseSpan
		undrained []int // its phase events still without a drain, as indexes into tl.Events
	}
	var tl Timeline
	var machines []*machine // in order of first appearance
	byShard := make(map[int]*machine)
	for _, fe := range evs {
		e := Event{Seq: uint64(len(tl.Events)), AtNanos: fe.AtNanos, Version: fe.Version}
		m := byShard[fe.Shard]
		switch fe.Kind {
		case FlightPhase:
			e.Kind, e.Token, e.From, e.Phase = KindPhase, fe.Token, FlightPhaseName(fe.Arg1), FlightPhaseName(fe.Arg2)
			if m == nil {
				m = &machine{}
				machines, byShard[fe.Shard] = append(machines, m), m
			} else {
				tl.Spans = append(tl.Spans, m.span.closedAt(fe.AtNanos))
			}
			m.span = PhaseSpan{Phase: e.Phase, Token: fe.Token, Shard: fe.Shard, Version: fe.Version, StartNanos: fe.AtNanos}
			m.undrained = append(m.undrained, len(tl.Events))
		case FlightAckPrepare, FlightDemarcate, FlightDrop:
			e.Kind, e.Token, e.Event, e.Session, e.Serial = KindSession, fe.Token, fe.Kind.String(), fe.Session, fe.Arg1
		case FlightEpochDrain:
			if m == nil {
				continue
			}
			bumped := fe.AtNanos - int64(fe.Arg2)
			i := len(m.undrained) - 1
			for i >= 0 && tl.Events[m.undrained[i]].AtNanos > bumped {
				i--
			}
			if i < 0 {
				continue
			}
			p := tl.Events[m.undrained[i]]
			m.undrained = m.undrained[i+1:] // epochs drain in order: an older transition's drain is gone
			e.Kind, e.Token, e.Version, e.Phase, e.DurationNanos = KindDrain, p.Token, p.Version, p.Phase, int64(fe.Arg2)
		default:
			continue
		}
		tl.Events = append(tl.Events, e)
	}
	for _, m := range machines {
		sp := m.span.closedAt(now)
		sp.Open = true
		tl.Spans = append(tl.Spans, sp)
	}
	return tl
}

func (sp PhaseSpan) closedAt(at int64) PhaseSpan {
	sp.EndNanos = at
	sp.DurationNanos = at - sp.StartNanos
	return sp
}
