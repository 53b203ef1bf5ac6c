package faster

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/hashfn"
	"repro/internal/obs"
)

// TestOneMachinePerStore pins that a store runs one CPR state machine: a
// commit walks the five phases once, every session
// acknowledges prepare once and demarcates once, each session holds one entry
// in one epoch table, and the point a commit reports for a session is the
// serial the session demarcated at.
func TestOneMachinePerStore(t *testing.T) { onePartition(t, oneMachinePerStore) }

func oneMachinePerStore(t *testing.T) {
	const sessions = 3
	fr := obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	cfg := smallConfig()
	cfg.Flight, cfg.Metrics = fr, obs.NewRegistry()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var ss []*Session
	for i := 0; i < sessions; i++ {
		ss = append(ss, s.StartSession())
	}
	defer func() {
		for _, sess := range ss {
			sess.StopSession()
		}
	}()
	for i, sess := range ss {
		for k := uint64(i) << 32; k < uint64(i)<<32+64; k++ {
			if st := sess.Upsert(key(k), u64(k)); st == Pending {
				sess.CompletePending(true)
			}
		}
	}

	registered := func() (sum int64) {
		for name, v := range s.Metrics().Snapshot().Gauges {
			if strings.HasSuffix(name, "epoch_registered") {
				sum += v
			}
		}
		return sum
	}
	if got := registered(); got != sessions {
		t.Errorf("epoch tables hold %d entries for %d sessions", got, sessions)
	}

	for _, opts := range []CommitOptions{{}, {WithIndex: true}} {
		res := driveCommit(t, s, ss, opts)
		evs, _ := fr.Events()
		var phases int
		acks, demarcs := map[string]int{}, map[string]int{}
		points := map[string]uint64{}
		for _, e := range evs {
			if e.Token != res.Token {
				continue
			}
			switch e.Kind {
			case obs.FlightPhase:
				phases++
			case obs.FlightAckPrepare:
				acks[e.Session]++
			case obs.FlightDemarcate:
				demarcs[e.Session]++
				points[e.Session] = e.Arg1
			}
		}
		if phases != len(wantTransitions) {
			t.Fatalf("commit %s (with index %v): %d phase transitions, want %d", res.Token, opts.WithIndex, phases, len(wantTransitions))
		}
		for _, sess := range ss {
			prefix := sess.ID()[:obs.FlightSessionBytes]
			if acks[prefix] != 1 || demarcs[prefix] != 1 {
				t.Fatalf("commit %s: session %s acknowledged prepare %d times and demarcated %d times, want once each",
					res.Token, prefix, acks[prefix], demarcs[prefix])
			}
			if got := res.Serials[sess.ID()]; got != points[prefix] || got != sess.Serial() {
				t.Fatalf("commit %s: session %s reported at %d, demarcated at %d, issued %d",
					res.Token, prefix, got, points[prefix], sess.Serial())
			}
		}
		if got := registered(); got != sessions {
			t.Fatalf("after commit %s epoch tables hold %d entries for %d sessions", res.Token, got, sessions)
		}
	}
}

// TestPrepareOpUnderLaggingLatch: in prepare, an op's shared latch can fail
// against an exclusive latch a session still in the previous commit holds.
// That is no CPR shift — the store has not reached in-progress — so the op
// stays in v, and so do the ones after it: the point the session demarcates
// covers them all.
func TestPrepareOpUnderLaggingLatch(t *testing.T) {
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, b := s.StartSession(), s.StartSession()
	defer a.StopSession()
	defer b.StopSession()
	idx := s.index
	h := hashfn.Hash64(key(7))
	if !idx.tryExclusiveLatch(h) {
		t.Fatal("exclusive latch taken")
	}
	token, err := s.Commit(CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a.Refresh() // a acknowledges prepare; b has not, so the store stays there
	if a.view.Phase != Prepare || s.Phase() != Prepare {
		t.Fatalf("a in %v, store in %v", a.view.Phase, s.Phase())
	}
	time.AfterFunc(5*time.Millisecond, func() { idx.releaseExclusiveLatch(h) })
	for k := uint64(7); k < 10; k++ {
		if st := a.Upsert(key(k), u64(k)); st != Ok {
			t.Fatalf("upsert %d: %v", k, st)
		}
	}
	// Bounded by wall time, not by a pass count: each pass yields, so the
	// goroutine Machine.Flush starts and the I/O workers it waits on run even
	// on one processor.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if res, ok := s.TryResult(token); ok {
			if got := res.Serials[a.ID()]; res.Err != nil || got != 3 {
				t.Fatalf("a's point %d (%v), want 3: its ops in prepare belong to the commit", got, res.Err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("commit stuck in %v", s.Phase())
		}
		a.Refresh()
		b.Refresh()
		runtime.Gosched()
	}
}
