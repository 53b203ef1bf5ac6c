package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/epoch"
)

// part is a test participant: a serial and a view.
type part struct {
	serial uint64
	view   View
}

// newTestMachine returns a machine whose flush returns to rest and ends the
// commit with its points, after the phases the test adds in demarcated.
func newTestMachine(demarcated func(m *Machine[*part, map[*part]uint64])) *Machine[*part, map[*part]uint64] {
	var m *Machine[*part, map[*part]uint64]
	m = NewMachine(epoch.New(), nil, Hooks[*part, map[*part]uint64]{
		Name:       func(p *part) string { return fmt.Sprintf("%p", p) },
		Serial:     func(p *part) uint64 { return p.serial },
		Point:      func(p *part) uint64 { return p.serial },
		Demarcated: func(*Commit[*part, map[*part]uint64]) { demarcated(m) },
		Flush: func(c *Commit[*part, map[*part]uint64]) {
			m.Rest(c, nil)
			m.Done(c, c.Points(), nil, 0)
		},
	})
	return m
}

// TestMachineWalk: a commit walks the phases the engine's hooks take it
// through, each participant acknowledging on its own refresh; a second commit
// is refused while the first runs, and a leaving participant contributes its
// serial.
func TestMachineWalk(t *testing.T) {
	for _, pending := range []bool{false, true} {
		m := newTestMachine(func(m *Machine[*part, map[*part]uint64]) {
			from := InProgress
			if pending {
				m.Advance(InProgress, WaitPending)
				from = WaitPending
			}
			m.Flush(from)
		})
		newPart := func(serial uint64) *part {
			return m.Register(func(v View) *part { return &part{serial: serial, view: v} })
		}
		a, b, gone := newPart(5), newPart(7), newPart(9)
		token, err := m.Begin(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Begin(nil, nil); !errors.Is(err, ErrCommitInProgress) {
			t.Fatalf("second Begin: %v", err)
		}
		m.Refresh(a, &a.view)
		m.Leave(gone, gone.view)
		if m.Phase() != Prepare {
			t.Fatalf("phase %v with b not acknowledged", m.Phase())
		}
		m.Refresh(b, &b.view)
		if m.Phase() != InProgress {
			t.Fatalf("phase %v, want in-progress", m.Phase())
		}
		a.serial++ // after a's view shifted: not in the commit
		m.Refresh(a, &a.view)
		m.Refresh(b, &b.view)
		points, ok := m.WaitForCommit(token)
		if !ok || points[a] != 6 || points[b] != 7 || points[gone] != 9 {
			t.Fatalf("pending %v: points %v ok %v", pending, points, ok)
		}
		if p, v := m.State(); p != Rest || v != 2 || m.Phase() != Rest {
			t.Fatalf("after the commit: %v v%d", p, v)
		}
		if m.Count() != 2 {
			t.Fatalf("%d participants, want 2", m.Count())
		}
	}
}

// TestMachineResultsBounded: the ring keeps the newest MaxResults results,
// whether the machine ran the commits or an engine recorded them, and a token
// recorded twice once.
func TestMachineResultsBounded(t *testing.T) {
	m := newTestMachine(func(m *Machine[*part, map[*part]uint64]) { m.Flush(InProgress) })
	const commits = 3 * MaxResults
	var tokens []string
	for i := range commits {
		if i%2 == 0 {
			tok, err := m.Begin(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			m.WaitForCommit(tok)
			tokens = append(tokens, tok)
		} else {
			tokens = append(tokens, fmt.Sprint("wal-", i))
			m.Record(tokens[i], nil)
		}
	}
	for i, tok := range tokens {
		_, ok := m.TryResult(tok)
		if _, waited := m.WaitForCommit(tok); ok != (i >= commits-MaxResults) || waited != ok {
			t.Fatalf("result %d of %d: retained %v, waited %v", i, commits, ok, waited)
		}
	}
	// A token recorded again takes no second slot: every other result stays.
	m.Record(tokens[commits-1], nil)
	for _, tok := range tokens[commits-MaxResults:] {
		if _, ok := m.TryResult(tok); !ok {
			t.Fatalf("result %s dropped when %s was recorded again", tok, tokens[commits-1])
		}
	}
}

// TestRegisterYieldsToTheCommit: a registration that meets a running commit
// yields the processor while it waits. On one processor, a participant the
// commit waits for that yields at every step (a scheduling hook,
// CompletePending) would otherwise get one step per preemption of the waiter,
// 10–20 ms apart, and the 400 steps here would take seconds.
func TestRegisterYieldsToTheCommit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := newTestMachine(func(m *Machine[*part, map[*part]uint64]) { m.Flush(InProgress) })
	a := m.Register(func(v View) *part { return &part{view: v} })
	token, err := m.Begin(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 1; ; i++ {
			if _, ok := m.TryResult(token); ok {
				return
			}
			runtime.Gosched()
			if i%200 == 0 {
				m.Refresh(a, &a.view)
			}
		}
	}()
	start := time.Now()
	m.Register(func(v View) *part { return &part{view: v} })
	if d := time.Since(start); d > time.Second {
		t.Fatalf("registration waited %v for a commit of 400 yielding steps", d)
	}
}
