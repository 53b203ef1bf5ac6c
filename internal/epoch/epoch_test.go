package epoch

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/obs"
)

func TestAcquireRefreshRelease(t *testing.T) {
	m := New()
	if got := m.Current(); got != 1 {
		t.Fatalf("initial epoch = %d, want 1", got)
	}
	g := m.Acquire()
	if m.Registered() != 1 {
		t.Fatalf("registered = %d, want 1", m.Registered())
	}
	m.Bump()
	g.Refresh()
	if m.Safe() != m.Current()-1 {
		t.Fatalf("safe = %d, want %d", m.Safe(), m.Current()-1)
	}
	g.Release()
	if m.Registered() != 0 {
		t.Fatalf("registered after release = %d, want 0", m.Registered())
	}
}

func TestBumpEpochNoThreadsFiresImmediately(t *testing.T) {
	m := New()
	fired := false
	m.BumpEpoch(func() { fired = true })
	if !fired {
		t.Fatal("action did not fire with empty epoch table")
	}
}

func TestBumpEpochWaitsForAllThreads(t *testing.T) {
	m := New()
	g1 := m.Acquire()
	g2 := m.Acquire()
	var fired atomic.Bool
	m.BumpEpoch(func() { fired.Store(true) })
	if fired.Load() {
		t.Fatal("action fired before any thread refreshed")
	}
	g1.Refresh()
	if fired.Load() {
		t.Fatal("action fired before second thread refreshed")
	}
	g2.Refresh()
	if !fired.Load() {
		t.Fatal("action did not fire after all threads refreshed")
	}
	g1.Release()
	g2.Release()
}

func TestReleaseTriggersDrain(t *testing.T) {
	m := New()
	g1 := m.Acquire()
	g2 := m.Acquire()
	var fired atomic.Bool
	m.BumpEpoch(func() { fired.Store(true) })
	g1.Refresh()
	// g2 never refreshes; releasing it must unblock the action.
	g2.Release()
	if !fired.Load() {
		t.Fatal("action did not fire after blocking thread released")
	}
	g1.Release()
}

func TestActionFiresExactlyOnce(t *testing.T) {
	m := New()
	g := m.Acquire()
	var count atomic.Int32
	m.BumpEpoch(func() { count.Add(1) })
	for i := 0; i < 10; i++ {
		g.Refresh()
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("action fired %d times, want 1", got)
	}
	g.Release()
}

func TestChainedBumps(t *testing.T) {
	m := New()
	g := m.Acquire()
	var order []int
	m.BumpEpoch(func() {
		order = append(order, 1)
		m.BumpEpoch(func() { order = append(order, 2) })
	})
	g.Refresh() // fires 1, registers 2
	g.Refresh() // fires 2
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
	g.Release()
}

func TestSafeInvariant(t *testing.T) {
	// Invariant from Sec. 3: forall T: E_s < E_T <= E.
	m := New()
	guards := make([]*Guard, 8)
	for i := range guards {
		guards[i] = m.Acquire()
	}
	for step := 0; step < 100; step++ {
		m.Bump()
		guards[step%len(guards)].Refresh()
		es, e := m.Safe(), m.Current()
		if es >= e {
			t.Fatalf("step %d: E_s=%d >= E=%d", step, es, e)
		}
		for i, g := range guards {
			et := m.table[g.slot].local.Load()
			if !(es < et && et <= e) {
				t.Fatalf("step %d guard %d: violated E_s(%d) < E_T(%d) <= E(%d)", step, i, es, et, e)
			}
		}
	}
	for _, g := range guards {
		g.Release()
	}
}

func TestConcurrentRefreshAndBump(t *testing.T) {
	m := New()
	const threads = 8
	const actions = 200
	var fired atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := m.Acquire()
			defer g.Release()
			for {
				select {
				case <-stop:
					return
				default:
					g.Refresh()
				}
			}
		}()
	}
	for i := 0; i < actions; i++ {
		m.BumpEpoch(func() { fired.Add(1) })
	}
	close(stop)
	wg.Wait()
	// All guards released; any remaining actions must have drained.
	m.drainReady()
	if got := fired.Load(); got != actions {
		t.Fatalf("fired %d actions, want %d", got, actions)
	}
}

func TestQuickSafeNeverExceedsCurrent(t *testing.T) {
	// Property: under any interleaving of bumps and refreshes, Safe < Current.
	f := func(ops []bool) bool {
		m := New()
		g := m.Acquire()
		defer g.Release()
		for _, bump := range ops {
			if bump {
				m.Bump()
			} else {
				g.Refresh()
			}
			if m.Safe() >= m.Current() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGuardSlotReuse(t *testing.T) {
	m := New()
	g1 := m.Acquire()
	slot := g1.slot
	g1.Release()
	g2 := m.Acquire()
	if g2.slot != slot {
		t.Fatalf("freed slot %d not reused, got %d", slot, g2.slot)
	}
	g2.Release()
}

// TestRefreshNoScanWhenIdle: with nothing on the drain list a Refresh is one
// load and one store; only while an action waits does it walk the table.
// Counted, not timed: epoch_scans_total stays put over idle refreshes and
// moves once per refresh while an action is held back by a guard that never
// refreshes.
func TestRefreshNoScanWhenIdle(t *testing.T) {
	m := New()
	reg := obs.NewRegistry()
	m.Instrument(reg)
	scans := func() uint64 { return reg.Snapshot().Counters["epoch_scans_total"] }
	g, lagging := m.Acquire(), m.Acquire()
	const n = 1000
	before := scans()
	for i := 0; i < n; i++ {
		g.Refresh()
	}
	if got := scans() - before; got != 0 {
		t.Fatalf("%d table scans in %d idle refreshes, want none", got, n)
	}
	var fired atomic.Bool
	m.BumpEpoch(func() { fired.Store(true) })
	before = scans()
	for i := 0; i < n; i++ {
		g.Refresh()
	}
	if got := scans() - before; got != n {
		t.Fatalf("%d table scans in %d refreshes with an action waiting, want one each", got, n)
	}
	if fired.Load() {
		t.Fatal("action fired though one guard never refreshed")
	}
	lagging.Release()
	if !fired.Load() {
		t.Fatal("action did not fire once the lagging guard was released")
	}
	before = scans()
	g.Refresh()
	if got := scans() - before; got != 0 {
		t.Fatalf("refresh after the drain scanned %d times, want none", got)
	}
	g.Release()
}

// TestDrainFiresAfterLazyRefresh: an action bumped while every guard is idle
// (none refreshing, so none scanning) fires on the refresh that makes its
// epoch safe, and the epoch_safe gauge — computed on demand now — advances
// with it.
func TestDrainFiresAfterLazyRefresh(t *testing.T) {
	m := New()
	reg := obs.NewRegistry()
	m.Instrument(reg)
	safe := func() int64 { return reg.Snapshot().Gauges["epoch_safe"] }
	g1, g2, g3 := m.Acquire(), m.Acquire(), m.Acquire()
	g3.Release() // a freed slot below the high-water mark is skipped, not read as epoch 0
	for i := 0; i < 100; i++ {
		g1.Refresh() // idle refreshes: nothing to drain
		g2.Refresh()
	}
	before := safe()
	var fired atomic.Int32
	m.BumpEpoch(func() { fired.Add(1) })
	if fired.Load() != 0 || safe() != before {
		t.Fatalf("before any refresh: fired %d, epoch_safe %d -> %d", fired.Load(), before, safe())
	}
	g1.Refresh()
	if fired.Load() != 0 {
		t.Fatal("action fired with one guard still behind")
	}
	g2.Refresh()
	if fired.Load() != 1 {
		t.Fatalf("action fired %d times after every guard refreshed, want 1", fired.Load())
	}
	if got := safe(); got != before+1 {
		t.Fatalf("epoch_safe %d -> %d, want one higher", before, got)
	}
	if n := reg.Snapshot().Gauges["epoch_pending_drains"]; n != 0 {
		t.Fatalf("epoch_pending_drains = %d after the drain", n)
	}
	g1.Refresh() // back to the no-scan path
	g1.Release()
	g2.Release()
}

// BenchmarkRefresh: a guard's refresh with 64 guards registered, with nothing
// to drain (the steady state of every session) and with an action held back
// by a guard that does not refresh (the table is scanned every time).
func BenchmarkRefresh(b *testing.B) {
	for _, draining := range []bool{false, true} {
		name := "idle"
		if draining {
			name = "draining"
		}
		b.Run(name, func(b *testing.B) {
			m := New()
			guards := make([]*Guard, 64)
			for i := range guards {
				guards[i] = m.Acquire()
			}
			if draining {
				m.BumpEpoch(func() {})
			}
			g := guards[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Refresh()
			}
		})
	}
}

// BenchmarkBumpDrain: one BumpEpoch(fn) plus the refreshes of three guards
// that let fn run — the cost a commit's phase publication puts on the epoch
// framework.
func BenchmarkBumpDrain(b *testing.B) {
	m := New()
	guards := []*Guard{m.Acquire(), m.Acquire(), m.Acquire()}
	fired := 0
	fn := func() { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.BumpEpoch(fn)
		for _, g := range guards {
			g.Refresh()
		}
	}
	if fired != b.N {
		b.Fatalf("%d actions fired in %d bumps", fired, b.N)
	}
}
