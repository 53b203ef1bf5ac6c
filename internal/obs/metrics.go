// Package obs is the repository's unified observability layer: a
// dependency-free (stdlib-only) metrics registry with one flat namespace (a
// store registers each name once), the flight
// recorder that is the one writer of commit-lifecycle events (flight.go) with
// the CPR phase timeline computed from it (tracer.go), the request tracer's
// tail-sampled span trees (reqtrace.go) and the Prometheus exposition with
// the debug mux that serves it beside pprof (prom.go). A live process is read
// through the kvserver wire (STATS, FLIGHT, TRACE), not through this package.
//
// The registry is designed for the CPR hot path: a counter increment is one
// atomic add to the counter's one word (no locks, no map lookups — call sites
// hold *Counter pointers resolved at registration time). Disabling metrics
// does not change the shape of the hot path: a nil *Counter (returned by a
// nil or nop Registry) is a safe no-op, so instrumented code never branches
// on configuration.
//
// Metric names are a stable interface; see the "Observability" section of
// README.md for the full catalogue.
package obs

import (
	"maps"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter, one word added to atomically.
// The nil Counter is a valid no-op sink: every method is nil-receiver-safe, so
// uninstrumented components pay only a predictable branch.
type Counter struct {
	name string
	n    atomic.Uint64
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.n.Add(n)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a settable instantaneous value. The nil Gauge is a no-op.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count: bucket i holds observations with
// bits.Len64(nanos) == i, i.e. [2^(i-1), 2^i) ns, covering 1 ns to ~1.6 days.
const histBuckets = 48

// Histogram is a fixed-bucket log2 histogram (of latencies in nanoseconds,
// or of any other non-negative value via ObserveValue). Observe costs three
// atomic adds (bucket, count, sum) plus a CAS only when a new maximum is set.
// The nil Histogram is a no-op.
type Histogram struct {
	name    string
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveValue(uint64(d.Nanoseconds()))
}

// ObserveValue records one raw value. The "nanos" in snapshot field names is
// then just a unit label — the histogram works for any non-negative quantity
// (e.g. a durability lag in operations).
func (h *Histogram) ObserveValue(v uint64) { h.ObserveN(v, 1) }

// ObserveN records n observations of v in one update — count and bucket grow by
// n, the sum by v*n — so n items timed as one span count as n at their mean.
func (h *Histogram) ObserveN(v, n uint64) {
	if h == nil || n == 0 {
		return
	}
	b := bits.Len64(v)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(n)
	h.count.Add(n)
	h.sum.Add(v * n)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// snapshot captures the histogram's current distribution.
func (h *Histogram) snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Buckets = make([]uint64, histBuckets)
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.SumNanos = h.sum.Load()
	s.MaxNanos = h.max.Load()
	s.summarize()
	return s
}

// summarize derives Mean and the quantiles from Count, SumNanos, MaxNanos and
// Buckets — the one quantile rule, for a histogram's snapshot and for the
// window between two (Snapshot.Sub). Without buckets (a snapshot decoded from
// JSON) the quantiles are zero.
func (s *HistogramSnapshot) summarize() {
	s.MeanNanos, s.P50Nanos, s.P90Nanos, s.P95Nanos, s.P99Nanos, s.P999Nanos = 0, 0, 0, 0, 0, 0
	if s.Count == 0 {
		return
	}
	s.MeanNanos = float64(s.SumNanos) / float64(s.Count)
	if len(s.Buckets) == 0 {
		return
	}
	quantile := func(q float64) uint64 {
		target := max(uint64(q*float64(s.Count)), 1)
		var seen uint64
		for i, c := range s.Buckets {
			seen += c
			if seen >= target {
				// Midpoint of bucket i, which covers [2^(i-1), 2^i) ns
				// (bucket 0 is exactly 0). The midpoint bounds the error at
				// a factor of 1.5 either way, versus 2x for a bucket bound.
				if i == 0 {
					return 0
				}
				lo := uint64(1) << uint(i-1)
				hi := uint64(1)<<uint(i) - 1
				return min(lo+(hi-lo)/2, s.MaxNanos)
			}
		}
		return s.MaxNanos
	}
	s.P50Nanos = quantile(0.50)
	s.P90Nanos = quantile(0.90)
	s.P95Nanos = quantile(0.95)
	s.P99Nanos = quantile(0.99)
	s.P999Nanos = quantile(0.999)
}

// HistogramSnapshot is a point-in-time distribution summary. Quantiles are
// log2-bucket midpoints: the quantile's bucket covers [2^(i-1), 2^i), so the
// reported midpoint is within a factor of 1.5 of the true value (at most 50%
// above, at most 25% below), and never above Max. Max is exact. Mean is exact
// up to concurrent-update skew.
type HistogramSnapshot struct {
	Count     uint64  `json:"count"`
	SumNanos  uint64  `json:"sum_ns"`
	MeanNanos float64 `json:"mean_ns"`
	P50Nanos  uint64  `json:"p50_ns"`
	P90Nanos  uint64  `json:"p90_ns"`
	P95Nanos  uint64  `json:"p95_ns"`
	P99Nanos  uint64  `json:"p99_ns"`
	P999Nanos uint64  `json:"p999_ns"`
	MaxNanos  uint64  `json:"max_ns"`

	// Buckets are the raw per-bucket counts (bucket i covers values with
	// bits.Len64(v) == i). Excluded from JSON — consumed by the Prometheus
	// text exposition, which needs cumulative series.
	Buckets []uint64 `json:"-"`
}

// Registry names and snapshots a set of metrics. Registration (Counter,
// Gauge, Histogram, GaugeFunc) takes a lock and is meant for setup time; the
// returned pointers are then updated lock-free. A nil *Registry — and one
// returned by NewNop — hands out nil metrics, turning all updates into
// no-ops with no call-site changes.
type Registry struct {
	nop bool

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() int64
	hists    map[string]*Histogram
	help     map[string]string
	infos    map[string]map[string]string
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
		help:     make(map[string]string),
		infos:    make(map[string]map[string]string),
	}
}

// NewNop returns a registry whose metrics are all no-op sinks: registration
// returns nil pointers and Snapshot is empty. Use it to disable collection.
func NewNop() *Registry { return &Registry{nop: true} }

// Counter returns the named counter, creating it on first use: every caller
// of one name shares one counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil || r.nop {
		return nil
	}
	return lookup(&r.mu, r.counters, name, func() *Counter { return &Counter{name: name} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil || r.nop {
		return nil
	}
	return lookup(&r.mu, r.gauges, name, func() *Gauge { return &Gauge{name: name} })
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil || r.nop {
		return nil
	}
	return lookup(&r.mu, r.hists, name, func() *Histogram { return &Histogram{name: name} })
}

// lookup returns m[name] under mu, made by mk on first use.
func lookup[T any](mu *sync.Mutex, m map[string]*T, name string, mk func() *T) *T {
	mu.Lock()
	defer mu.Unlock()
	v, ok := m[name]
	if !ok {
		v = mk()
		m[name] = v
	}
	return v
}

// SetHelp attaches a human-readable description to the named metric. The
// text surfaces as a `# HELP` line in the Prometheus exposition; special
// characters are escaped at render time, so free text is fine here.
func (r *Registry) SetHelp(name, text string) {
	if r == nil || r.nop {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = text
}

// Info registers a constant info metric (the Prometheus build-info idiom): a
// gauge whose value is always 1 and whose payload is its label set. Snapshots
// carry the labels verbatim; the Prometheus exposition renders
// `name{k="v",...} 1`. Re-registering a name replaces its labels. The labels
// map is copied, so the caller may reuse it.
func (r *Registry) Info(name string, labels map[string]string) {
	if r == nil || r.nop {
		return
	}
	cp := maps.Clone(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.infos[name] = cp
}

// GaugeFunc registers a callback evaluated at snapshot time — the natural fit
// for values the system already maintains (log region offsets, session
// counts). fn must be safe to call from any goroutine. Re-registering a name
// replaces the callback.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || r.nop {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// Snapshot captures every registered metric. The result marshals to stable
// (key-sorted) JSON.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`

	// Infos carries constant info metrics (see Registry.Info): metric name to
	// label set; the metric's value is always 1.
	Infos map[string]map[string]string `json:"infos,omitempty"`

	// Help carries metric descriptions for the Prometheus exposition.
	// Excluded from JSON so STATS documents and bench metric deltas stay
	// value-only.
	Help map[string]string `json:"-"`
}

// Snapshot evaluates all metrics, including gauge callbacks.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil || r.nop {
		return s
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	fns := make(map[string]func() int64, len(r.gaugeFns))
	for n, fn := range r.gaugeFns {
		fns[n] = fn
	}
	s.Help = make(map[string]string, len(r.help))
	for n, h := range r.help {
		s.Help[n] = h
	}
	if len(r.infos) > 0 {
		s.Infos = make(map[string]map[string]string, len(r.infos))
		for n, labels := range r.infos {
			s.Infos[n] = labels
		}
	}
	r.mu.Unlock()

	s.Counters = make(map[string]uint64, len(counters))
	for _, c := range counters {
		s.Counters[c.name] = c.Value()
	}
	s.Gauges = make(map[string]int64, len(gauges)+len(fns))
	for _, g := range gauges {
		s.Gauges[g.name] = g.Value()
	}
	// Callbacks run outside the registry lock: they may take subsystem locks.
	for n, fn := range fns {
		s.Gauges[n] = fn()
	}
	s.Histograms = make(map[string]HistogramSnapshot, len(hists))
	for _, h := range hists {
		s.Histograms[h.name] = h.snapshot()
	}
	return s
}

// Sub returns the window s - prev: counters and histogram counts, sums and
// buckets subtract (missing keys in prev count as zero) and each histogram's
// mean and quantiles are those of the window's own observations; gauges and
// histogram maxima keep s's point-in-time values. Use it to scope metrics to
// one experiment run or one sampling interval.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
		Infos:      s.Infos,
		Help:       s.Help,
	}
	for k, v := range s.Counters {
		out.Counters[k] = v - prev.Counters[k]
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range s.Histograms {
		p := prev.Histograms[k]
		v.Count -= p.Count
		v.SumNanos -= p.SumNanos
		v.Buckets = append([]uint64(nil), v.Buckets...)
		for i := range min(len(v.Buckets), len(p.Buckets)) {
			v.Buckets[i] -= p.Buckets[i]
		}
		v.summarize()
		out.Histograms[k] = v
	}
	return out
}
