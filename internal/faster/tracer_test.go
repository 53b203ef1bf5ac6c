package faster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
)

// wantTransitions is the full CPR state machine walk every successful commit
// must record, in order.
var wantTransitions = [][2]string{
	{"rest", "prepare"},
	{"prepare", "in-progress"},
	{"in-progress", "wait-pending"},
	{"wait-pending", "wait-flush"},
	{"wait-flush", "rest"},
}

// timelineStore opens a store whose timeline can be read — it has a flight
// recorder, sized as cprserver and benchmark/env.go size theirs — with one
// session that has written a hundred keys. With shards > 1 it is opened as
// benchmark/env.go opens its network workloads' stores: with the deprecated
// Shards and a DeviceFactory.
func timelineStore(t *testing.T, shards int) (*Store, *Session) {
	t.Helper()
	cfg := Config{IndexBuckets: 1 << 10, Metrics: obs.NewRegistry(),
		Flight: obs.NewFlightRecorder(obs.DefaultFlightCapacity)}
	if shards > 1 {
		cfg.Shards = shards
		cfg.DeviceFactory = func(int) (storage.Device, error) { return storage.NewMemDevice(), nil }
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	for i := 0; i < 100; i++ {
		if st := sess.Upsert([]byte(fmt.Sprintf("key-%03d", i)), []byte("v")); st != Ok {
			t.Fatalf("upsert: %v", st)
		}
	}
	t.Cleanup(func() { sess.StopSession(); s.Close() })
	return s, sess
}

// TestCheckpointPhaseTimeline drives one fold-over and one snapshot commit on
// a live store and asserts the timeline — a view of the flight recorder — holds
// every transition of the store's one state machine exactly once, in order,
// with non-decreasing timestamps, plus the session's thread-crossing events and
// the epoch drains; and nothing once the store has no recorder.
func TestCheckpointPhaseTimeline(t *testing.T) {
	for _, kind := range []CommitKind{FoldOver, Snapshot} {
		t.Run(kind.String(), func(t *testing.T) {
			s, sess := timelineStore(t, 1)
			token := driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true, Kind: &kind}).Token

			tl := s.Tracer().Timeline()
			if tl.Dropped != 0 {
				t.Fatalf("recorder dropped %d events", tl.Dropped)
			}
			for i := 1; i < len(tl.Events); i++ {
				if tl.Events[i].AtNanos < tl.Events[i-1].AtNanos {
					t.Fatalf("timestamp regression at event %d: %d < %d",
						i, tl.Events[i].AtNanos, tl.Events[i-1].AtNanos)
				}
			}
			var got [][2]string
			sessionEvents := map[string]int{}
			drains := 0
			for _, e := range tl.Events {
				if e.Token != token {
					continue
				}
				switch e.Kind {
				case obs.KindPhase:
					got = append(got, [2]string{e.From, e.Phase})
				case obs.KindSession:
					if !strings.HasPrefix(sess.ID(), e.Session) || e.Session == "" {
						t.Fatalf("session event of %q, want a prefix of %q", e.Session, sess.ID())
					}
					sessionEvents[e.Event]++
				case obs.KindDrain:
					drains++
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(wantTransitions) {
				t.Fatalf("recorded transitions %v, want %v", got, wantTransitions)
			}
			if sessionEvents["ack-prepare"] != 1 || sessionEvents["demarcate"] != 1 {
				t.Fatalf("session events %v, want one ack-prepare and one demarcate", sessionEvents)
			}
			if drains == 0 {
				t.Fatal("no epoch-drain events")
			}
		})
	}

	s, err := Open(Config{IndexBuckets: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	driveCommit(t, s, nil, CommitOptions{})
	if tl := s.Tracer().Timeline(); len(tl.Events) != 0 || len(tl.Spans) != 0 {
		t.Fatalf("a store without a flight recorder has a timeline: %+v", tl)
	}
}

// TestTimelineSpansPerMachine: after one commit the store's one machine has the
// closed spans prepare, in-progress, wait-pending
// and wait-flush, contiguous, each ending at its next transition, and an open
// rest span.
func TestTimelineSpansPerMachine(t *testing.T) { onePartition(t, timelineSpansPerMachine) }

func timelineSpansPerMachine(t *testing.T) {
	s, sess := timelineStore(t, 1)
	driveCommit(t, s, []*Session{sess}, CommitOptions{})

	tl := s.Tracer().Timeline()
	transitions := map[string][]obs.Event{} // by machine
	for _, e := range tl.Events {
		if e.Kind == obs.KindPhase {
			transitions[e.Token] = append(transitions[e.Token], e)
		}
	}
	if len(transitions) != 1 {
		t.Fatalf("%d machines on the timeline, want 1", len(transitions))
	}
	spanFrom := func(e obs.Event) obs.PhaseSpan {
		for _, sp := range tl.Spans {
			if sp.Phase == e.Phase && sp.StartNanos == e.AtNanos {
				return sp
			}
		}
		t.Fatalf("no %s span starts at %d", e.Phase, e.AtNanos)
		panic("unreachable")
	}
	for machine, evs := range transitions {
		if len(evs) != len(wantTransitions) {
			t.Fatalf("%s has %d transitions, want %d", machine, len(evs), len(wantTransitions))
		}
		for i, e := range evs {
			sp := spanFrom(e)
			if i == len(evs)-1 {
				if e.Phase != "rest" || !sp.Open {
					t.Fatalf("%s ends in %+v, want an open rest span", machine, sp)
				}
				continue
			}
			if next := evs[i+1].AtNanos; sp.Open || sp.EndNanos != next || sp.DurationNanos != next-e.AtNanos {
				t.Fatalf("%s: %s span %+v, want it closed at the machine's next transition, %d",
					machine, e.Phase, sp, next)
			}
		}
	}
	if want := len(wantTransitions); len(tl.Spans) != want {
		t.Fatalf("%d spans, want %d", len(tl.Spans), want)
	}
}

// TestTimelineFeedsBenchmark pins what benchmark/layers.go phaseDurations
// reads, which no file outside benchmark/ otherwise spells out: on a store
// configured as benchmark/env.go configures it — one Device, or the network
// workloads' Shards: 2 and a DeviceFactory — Store.Tracer().Timeline().Events
// has, for every commit, the five obs.KindPhase entries whose Token cut at "/"
// is the commit token, whose Phase is one of the five names, and whose AtNanos
// does not decrease along one Token.
func TestTimelineFeedsBenchmark(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { timelineFeedsBenchmark(t, shards) })
	}
}

func timelineFeedsBenchmark(t *testing.T, shards int) {
	s, sess := timelineStore(t, shards)
	commits := map[string]bool{}
	for i := 0; i < 3; i++ {
		commits[driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: i == 0}).Token] = true
	}
	names := map[string]bool{"prepare": true, "in-progress": true, "wait-pending": true, "wait-flush": true, "rest": true}
	last := map[string]int64{}
	perCommit := map[string]int{}
	for _, e := range s.Tracer().Timeline().Events {
		if e.Kind != obs.KindPhase {
			continue
		}
		token, _, _ := strings.Cut(e.Token, "/")
		if !commits[token] || !names[e.Phase] {
			t.Fatalf("phase event %+v: token of no commit, or phase of no name", e)
		}
		if e.AtNanos < last[e.Token] {
			t.Fatalf("%s: AtNanos %d after %d", e.Token, e.AtNanos, last[e.Token])
		}
		last[e.Token] = e.AtNanos
		perCommit[token]++
	}
	if len(last) != len(commits) {
		t.Fatalf("%d tokens on the timeline, want one per commit, %d", len(last), len(commits))
	}
	for token := range commits {
		if perCommit[token] != len(wantTransitions) {
			t.Fatalf("%s has %d phase events, want %d", token, perCommit[token], len(wantTransitions))
		}
	}
}
