// Package core implements the CPR commit protocol once, for both CPR systems
// in this repository: the transactional database of Sec. 4 (Alg. 2, Fig. 4)
// and FASTER (Sec. 6.2, Fig. 9a).
//
// A CPR commit cannot use client-chosen commit points without blocking
// (Sec. 2's impossibility argument), so the roles are flipped: the system
// requests a commit and each participant — a session or worker thread —
// acknowledges two transitions on its own schedule:
//
//  1. entering prepare (after latching its pending work), and
//  2. entering in-progress, at which instant it demarcates its commit
//     point t_i: all of its operations up to t_i belong to the commit,
//     none after.
//
// Coordinator tracks those acknowledgments and fires each transition
// callback exactly once when the last participant arrives, including when
// participants leave mid-commit. Machine is the state machine around it:
// the phase and version word every participant reads on refresh, the
// participant's refresh walk, registration at rest, admission of one commit
// at a time, the publication of each phase, the return to rest and the
// results of the newest commits by token. An engine adds its participants'
// entry work, the phases between in-progress and wait-flush, and the flush
// itself (Hooks).
package core

import "sync"

// Coordinator coordinates one commit's participant acknowledgments.
// P identifies a participant (typically a session or worker pointer).
type Coordinator[P comparable] struct {
	// fireMu serializes transition callbacks so the demarcation callback can
	// never start before the prepare callback has completed, even when the
	// enabling acknowledgments race on different goroutines.
	fireMu sync.Mutex

	mu           sync.Mutex
	participants map[P]bool
	sealed       bool

	ackedPrepare   int
	ackedDemarcate int
	points         map[P]uint64

	onAllPrepared   func()
	onAllDemarcated func()
	firedPrepared   bool
	firedDemarcated bool
}

// NewCoordinator creates a coordinator whose callbacks fire exactly once:
// onAllPrepared when every participant has acknowledged prepare entry, then
// onAllDemarcated when every participant has demarcated its commit point.
// Callbacks run on the acknowledging participant's goroutine, outside the
// coordinator's lock.
func NewCoordinator[P comparable](onAllPrepared, onAllDemarcated func()) *Coordinator[P] {
	return &Coordinator[P]{
		participants:    make(map[P]bool),
		points:          make(map[P]uint64),
		onAllPrepared:   onAllPrepared,
		onAllDemarcated: onAllDemarcated,
	}
}

// Add registers a participant. Must happen before Seal.
func (c *Coordinator[P]) Add(p P) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sealed {
		panic("core: Add after Seal")
	}
	c.participants[p] = true
}

// Seal fixes the participant set and evaluates the transitions (a commit
// with zero participants fires both callbacks immediately).
func (c *Coordinator[P]) Seal() {
	c.mu.Lock()
	c.sealed = true
	c.mu.Unlock()
	c.evaluate()
}

// AckPrepare records that p finished its prepare-entry work.
func (c *Coordinator[P]) AckPrepare(p P) {
	c.mu.Lock()
	if c.participants[p] {
		c.ackedPrepare++
	}
	c.mu.Unlock()
	c.evaluate()
}

// Demarcate records p's commit point: all of p's operations with serial <=
// point are part of the commit, none after (Definition 1).
func (c *Coordinator[P]) Demarcate(p P, point uint64) {
	c.mu.Lock()
	if c.participants[p] {
		c.points[p] = point
		c.ackedDemarcate++
	}
	c.mu.Unlock()
	c.evaluate()
}

// Drop removes a participant that stops mid-commit. prepared and demarcated
// report which acknowledgments it had already delivered; when it leaves
// before demarcating, fallbackPoint becomes its commit point (everything it
// issued belongs to the commit — it can issue nothing further).
func (c *Coordinator[P]) Drop(p P, prepared, demarcated bool, fallbackPoint uint64) {
	c.mu.Lock()
	if !c.participants[p] {
		c.mu.Unlock()
		return
	}
	delete(c.participants, p)
	if prepared {
		c.ackedPrepare--
	}
	if demarcated {
		c.ackedDemarcate--
	} else if _, ok := c.points[p]; !ok {
		c.points[p] = fallbackPoint
	}
	c.mu.Unlock()
	c.evaluate()
}

// evaluate fires any transition whose condition now holds, each exactly
// once, and strictly in order (prepare before demarcation).
func (c *Coordinator[P]) evaluate() {
	c.fireMu.Lock()
	defer c.fireMu.Unlock()

	c.mu.Lock()
	runPrepared := c.sealed && !c.firedPrepared && c.ackedPrepare >= len(c.participants)
	if runPrepared {
		c.firedPrepared = true
	}
	c.mu.Unlock()
	if runPrepared && c.onAllPrepared != nil {
		c.onAllPrepared()
	}

	c.mu.Lock()
	runDemarcated := c.sealed && c.firedPrepared && !c.firedDemarcated &&
		c.ackedDemarcate >= len(c.participants)
	if runDemarcated {
		c.firedDemarcated = true
	}
	c.mu.Unlock()
	if runDemarcated && c.onAllDemarcated != nil {
		c.onAllDemarcated()
	}
}

// Points returns each participant's commit point (including fallback points
// of dropped participants). Call after the demarcation transition fired.
func (c *Coordinator[P]) Points() map[P]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[P]uint64, len(c.points))
	for p, pt := range c.points {
		out[p] = pt
	}
	return out
}
