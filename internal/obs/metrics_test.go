package obs

import (
	"math/bits"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrentSum(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ops")
	const goroutines = 16
	const each = 10000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*each {
		t.Fatalf("counter = %d, want %d", got, goroutines*each)
	}
	if got := reg.Snapshot().Counters["ops"]; got != goroutines*each {
		t.Fatalf("snapshot counter = %d, want %d", got, goroutines*each)
	}
}

func TestCounterSameNameSameCounter(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x")
	b := reg.Counter("x")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Add(3)
	b.Add(4)
	if got := a.Value(); got != 7 {
		t.Fatalf("value = %d, want 7", got)
	}
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	if got := reg.Snapshot().Gauges["depth"]; got != 7 {
		t.Fatalf("snapshot gauge = %d, want 7", got)
	}
}

func TestGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	v := int64(41)
	reg.GaugeFunc("live", func() int64 { return v })
	v = 42
	if got := reg.Snapshot().Gauges["live"]; got != 42 {
		t.Fatalf("gauge func = %d, want 42", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat")
	// 90 fast observations (~1us) and 10 slow (~1ms).
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := reg.Snapshot().Histograms["lat"]
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.MaxNanos != uint64(time.Millisecond.Nanoseconds()) {
		t.Fatalf("max = %d, want %d", s.MaxNanos, time.Millisecond.Nanoseconds())
	}
	// p50 lands in the ~1us bucket (upper bound < 2us), p99 in the ~1ms one.
	if s.P50Nanos >= 2048 {
		t.Fatalf("p50 = %dns, want < 2048ns", s.P50Nanos)
	}
	if s.P99Nanos < uint64(time.Millisecond.Nanoseconds())/2 {
		t.Fatalf("p99 = %dns, want >= %dns", s.P99Nanos, time.Millisecond.Nanoseconds()/2)
	}
	if s.MeanNanos < float64(time.Microsecond.Nanoseconds()) {
		t.Fatalf("mean = %v, implausibly small", s.MeanNanos)
	}
}

// TestHistogramObserveN: n observations of one value in one update land where
// n single observations would — count, sum, bucket and max — and ObserveValue
// is ObserveN of one.
func TestHistogramObserveN(t *testing.T) {
	reg := NewRegistry()
	batched, single := reg.Histogram("batched"), reg.Histogram("single")
	batched.ObserveN(300, 64)
	batched.ObserveN(5000, 2)
	batched.ObserveN(7, 0) // nothing
	for i := 0; i < 64; i++ {
		single.ObserveValue(300)
	}
	single.ObserveValue(5000)
	single.ObserveValue(5000)
	snap := reg.Snapshot()
	b, s := snap.Histograms["batched"], snap.Histograms["single"]
	if b.Count != 66 || b.SumNanos != 64*300+2*5000 || b.MaxNanos != 5000 {
		t.Fatalf("count %d sum %d max %d, want 66, %d, 5000", b.Count, b.SumNanos, b.MaxNanos, 64*300+2*5000)
	}
	if b.Buckets[bits.Len64(300)] != 64 || b.Buckets[bits.Len64(5000)] != 2 {
		t.Fatalf("buckets %v: want 64 in %d and 2 in %d", b.Buckets, bits.Len64(300), bits.Len64(5000))
	}
	if !reflect.DeepEqual(b, s) {
		t.Fatalf("ObserveN %+v differs from as many ObserveValue calls %+v", b, s)
	}
}

func TestSnapshotSub(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ops")
	h := reg.Histogram("lat")
	c.Add(5)
	h.Observe(time.Microsecond)
	before := reg.Snapshot()
	c.Add(7)
	h.Observe(time.Microsecond)
	h.Observe(time.Microsecond)
	delta := reg.Snapshot().Sub(before)
	if got := delta.Counters["ops"]; got != 7 {
		t.Fatalf("delta counter = %d, want 7", got)
	}
	if got := delta.Histograms["lat"].Count; got != 2 {
		t.Fatalf("delta histogram count = %d, want 2", got)
	}
}

// TestSnapshotSubQuantiles: a window's quantiles are those of its own
// observations, by the rule a histogram's snapshot uses — 100 slow
// observations before the window do not move its p99, and an empty window
// reports none.
func TestSnapshotSubQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat")
	for i := 0; i < 100; i++ {
		h.ObserveValue(1 << 20)
	}
	before := reg.Snapshot()
	for i := 0; i < 50; i++ {
		h.ObserveValue(1000)
	}
	cur := reg.Snapshot()
	win := cur.Sub(before).Histograms["lat"]
	if win.Count != 50 || win.MeanNanos != 1000 {
		t.Fatalf("window count %d mean %v, want 50 and 1000", win.Count, win.MeanNanos)
	}
	alone := NewRegistry()
	for i := 0; i < 50; i++ {
		alone.Histogram("lat").ObserveValue(1000)
	}
	want := alone.Snapshot().Histograms["lat"]
	if win.P50Nanos != want.P50Nanos || win.P99Nanos != want.P99Nanos || win.P999Nanos != want.P999Nanos {
		t.Fatalf("window quantiles p50 %d p99 %d p999 %d, want those of the window alone: %d %d %d",
			win.P50Nanos, win.P99Nanos, win.P999Nanos, want.P50Nanos, want.P99Nanos, want.P999Nanos)
	}
	if empty := reg.Snapshot().Sub(reg.Snapshot()).Histograms["lat"]; empty.Count != 0 || empty.P99Nanos != 0 {
		t.Fatalf("empty window: count %d p99 %d", empty.Count, empty.P99Nanos)
	}
	if cur.Histograms["lat"].Buckets[bits.Len64(1<<20)] != 100 {
		t.Fatal("Sub wrote into the snapshot it was called on")
	}
}

func TestNilAndNopSafety(t *testing.T) {
	// All of these must be no-ops, not panics.
	var nilReg *Registry
	for _, reg := range []*Registry{nilReg, NewNop()} {
		c := reg.Counter("x")
		c.Inc()
		c.Add(10)
		if c.Value() != 0 {
			t.Fatal("nil counter has a value")
		}
		g := reg.Gauge("y")
		g.Set(1)
		g.Add(1)
		if g.Value() != 0 {
			t.Fatal("nil gauge has a value")
		}
		h := reg.Histogram("z")
		h.Observe(time.Second)
		if h.Count() != 0 {
			t.Fatal("nil histogram has observations")
		}
		reg.GaugeFunc("f", func() int64 { return 1 })
		s := reg.Snapshot()
		if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
			t.Fatal("nop snapshot not empty")
		}
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterAddParallel(b *testing.B) {
	c := NewRegistry().Counter("bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkCounterAddDisabled(b *testing.B) {
	c := NewNop().Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}
