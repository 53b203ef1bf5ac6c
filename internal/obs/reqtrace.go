package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"
)

// Request tracing is the third leg of the observability layer, next to the
// metrics registry (aggregates) and the flight recorder (causal commit
// timeline): a request-scoped span API that decomposes one client operation's
// latency into the hops of its life — client issue, frame decode/queue,
// FASTER execute, durability wait, replication wait, response
// write. Spans carry a trace ID propagated over the kvserver wire protocol
// (a frame's optional trace field), so the client's round-trip and the
// server's hop decomposition join into one tree.
//
// Like the flight recorder, the nil *RequestTracer is a valid no-op — every
// method costs one pointer test — and the hot path never allocates: active
// traces come from a pool and hold their spans in a fixed inline array;
// retained traces (the slow tail) are the only heap copies.
//
// The tail sampler is always on: every finished request feeds a log2
// histogram from which a p99 threshold is recomputed periodically; any
// request slower than the current threshold has its full span tree copied
// into a lock-free, fixed-size reservoir (newest-wins ring), so the
// interesting tail is retained under bounded memory no matter the request
// rate. Durability-wait spans carry the covering commit token, cross-linking
// a slow request to the flight recorder's commit timeline.

// SpanKind identifies the hop a span covers. The names (see String) are a
// stable interface: `fasterctl why` and the bench decomposition report them.
type SpanKind uint8

// Span kinds. Request-scoped kinds decompose one operation; global kinds
// (repl-ship, repl-announce) are token-keyed commit-lifecycle spans, computed
// from the flight recorder's events (ReplSpans) and merged into trace output
// by commit token.
const (
	SpanNone SpanKind = iota
	// SpanRequest is the root: the server handling one request frame.
	SpanRequest
	// SpanClientIssue is the client-side round trip (issue to response).
	SpanClientIssue
	// SpanQueue covers client issue to server frame decode: network transit
	// plus server accept/read queueing. Requires the client's issue timestamp
	// from the frame's trace field.
	SpanQueue
	// SpanDecode covers payload decode. Arg1 is a BATCH's op count (0 for a
	// frame that carries no data ops).
	SpanDecode
	// SpanExec covers the FASTER operation, including pending completion.
	// Arg1 is the operation serial.
	SpanExec
	// SpanDurWait covers a durability wait: issued serial to committed
	// serial. Token is the covering commit token; Arg1 the awaited serial,
	// Arg2 the committed serial reached.
	SpanDurWait
	// SpanReplWait covers waiting on replication progress inside a request.
	SpanReplWait
	// SpanRespWrite covers response serialization and the write syscall.
	SpanRespWrite
	// SpanReplShip (global) covers the primary shipping one commit's log
	// coverage and artifacts to a replica. Arg1 is bytes shipped.
	SpanReplShip
	// SpanReplAnnounce (global) covers local commit completion to the
	// commit-announce reaching a replica.
	SpanReplAnnounce
	// SpanBatch covers the execution window of one BATCH frame, the one
	// kvserver frame that carries data ops. Arg1 is the op count, Arg2 the
	// reply bytes.
	// Per-op hops inside the window appear as SpanExec children while the
	// trace has room (see ActiveTrace.Remaining).
	SpanBatch

	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	SpanNone:         "none",
	SpanRequest:      "request",
	SpanClientIssue:  "client-issue",
	SpanQueue:        "queue",
	SpanDecode:       "decode",
	SpanExec:         "exec",
	SpanDurWait:      "durwait",
	SpanReplWait:     "replwait",
	SpanRespWrite:    "resp-write",
	SpanReplShip:     "repl-ship",
	SpanReplAnnounce: "repl-announce",
	SpanBatch:        "batch",
}

var spanKindByName = func() map[string]SpanKind {
	m := make(map[string]SpanKind, numSpanKinds)
	for k, n := range spanKindNames {
		m[n] = SpanKind(k)
	}
	return m
}()

// String implements fmt.Stringer.
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return fmt.Sprintf("span(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its stable name.
func (k SpanKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes either the stable name or a bare number.
func (k *SpanKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		if v, ok := spanKindByName[s]; ok {
			*k = v
			return nil
		}
		return fmt.Errorf("obs: unknown span kind %q", s)
	}
	var n uint8
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*k = SpanKind(n)
	return nil
}

// TraceContext is the wire-propagated trace identity: which trace a request
// belongs to, the issuing side's span (the server parents its root under it),
// and when the client issued the request (for the queue hop). The zero
// TraceContext means "untraced".
type TraceContext struct {
	TraceID    uint64
	ParentSpan uint64
	// IssuedUnixNanos is the client's issue timestamp. Meaningful deltas
	// require client and server clocks to agree (same host, or NTP-close);
	// the server clamps negative queue spans to zero.
	IssuedUnixNanos int64
}

// traceIDBase is a per-process random base so trace IDs from different
// processes (client vs server self-initiated, restarts) do not collide.
var traceIDBase = func() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("obs: trace id seed: %v", err))
	}
	return binary.LittleEndian.Uint64(b[:]) | 1
}()

var traceIDCounter atomic.Uint64

// NewTraceID returns a process-unique, never-zero trace ID. Cheap: one atomic
// add mixed into a per-process random base.
func NewTraceID() uint64 {
	n := traceIDCounter.Add(1)
	id := traceIDBase + n*0x9e3779b97f4a7c15 // golden-ratio stride spreads IDs
	if id == 0 {
		id = 1
	}
	return id
}

// Span is one hop of a request (or a global, token-keyed commit-lifecycle
// hop). Timestamps are wall-clock UnixNano so spans from different processes
// line up on one axis.
type Span struct {
	ID             uint64   `json:"id"`
	Parent         uint64   `json:"parent,omitempty"`
	Kind           SpanKind `json:"kind"`
	StartUnixNanos int64    `json:"start_unix_ns"`
	EndUnixNanos   int64    `json:"end_unix_ns"`
	Arg1           uint64   `json:"arg1,omitempty"`
	Arg2           uint64   `json:"arg2,omitempty"`
	// Token is the commit token this hop waited on (durwait, repl-*): the
	// cross-link into the flight recorder's commit timeline.
	Token string `json:"token,omitempty"`
}

// DurationNanos is the span's length.
func (s Span) DurationNanos() int64 { return s.EndUnixNanos - s.StartUnixNanos }

// RequestTrace is one retained request's full span tree.
type RequestTrace struct {
	TraceID uint64 `json:"trace_id"`
	// Op names the request operation ("SET", "COMMIT", ...).
	Op      string `json:"op,omitempty"`
	Session string `json:"session,omitempty"`
	// StartUnixNanos is the earliest span start (the client's issue instant
	// when the queue hop is present); TotalNanos spans to the latest end, so
	// it approximates the client-observed latency.
	StartUnixNanos int64  `json:"start_unix_ns"`
	TotalNanos     int64  `json:"total_ns"`
	Spans          []Span `json:"spans"`
}

// maxTraceSpans bounds one request's span count; later spans are dropped (and
// counted) rather than grown onto the heap.
const maxTraceSpans = 12

// ActiveTrace accumulates one in-flight request's spans without allocating.
// It is a caller-owned scratch: embed one per connection (or declare one on
// the stack) and reuse it across requests — Begin re-arms it, Finish disarms
// it. The zero value is ready. Methods on a nil or disarmed ActiveTrace are
// no-ops, so call sites never branch on whether tracing is on.
type ActiveTrace struct {
	tr      *RequestTracer
	traceID uint64
	op      string
	session string
	rootID  uint64
	parent  uint64 // the issuing side's span, parent of the root
	nextID  uint64
	n       int
	// tick counts Finishes on this scratch across requests (never reset):
	// single-goroutine by the scratch ownership contract, so it samples the
	// latency histogram without atomics.
	tick  uint64
	spans [maxTraceSpans]Span
}

// Span records one hop. start/end are UnixNano timestamps supplied by the
// caller (call sites already read the clock for the decomposition
// histograms, so the tracer adds no clock reads of its own).
func (at *ActiveTrace) Span(kind SpanKind, startUnix, endUnix int64, arg1, arg2 uint64, token string) {
	if at == nil || at.tr == nil {
		return
	}
	if at.n >= maxTraceSpans {
		at.tr.spanDrops.Add(1)
		return
	}
	id := at.nextID
	at.nextID++
	at.spans[at.n] = Span{
		ID: id, Parent: at.rootID, Kind: kind,
		StartUnixNanos: startUnix, EndUnixNanos: endUnix,
		Arg1: arg1, Arg2: arg2, Token: token,
	}
	at.n++
}

// Remaining reports how many more spans this trace can record before drops
// begin (0 when disarmed). Emitters of per-item spans inside a bounded window
// — the batch loop's per-op exec spans — use it to stop early instead of
// flooding the drop counter: the window span (SpanBatch) still summarizes the
// whole run.
func (at *ActiveTrace) Remaining() int {
	if at == nil || at.tr == nil {
		return 0
	}
	return maxTraceSpans - at.n
}

// reservoir geometry.
const (
	// DefaultTraceReservoir is the retained-trace slot count: enough to hold
	// the recent slow tail without unbounded growth.
	DefaultTraceReservoir = 64
	// thresholdRecalcEvery is how many finished requests between p99
	// threshold recomputations.
	thresholdRecalcEvery = 64
	// latSampleEvery (power of two) is the per-scratch sampling stride for
	// the latency histogram: 1-in-8 keeps the p99 estimate unbiased while
	// cutting the hot path's atomics by 8x. Retention itself stays
	// per-request — every slow request is caught, only the threshold
	// estimate is sampled.
	latSampleEvery = 8
)

// RequestTracer is the request-scoped tracing engine: it arms caller-owned
// ActiveTraces, aggregates total latencies into a log2 histogram, keeps a
// self-adjusting p99 threshold, and retains the span trees of requests slower
// than that threshold in a lock-free newest-wins reservoir. The nil
// RequestTracer is a valid no-op.
type RequestTracer struct {
	// latency histogram feeding the threshold: bucket i counts requests with
	// bits.Len64(totalNs) == i.
	latBuckets [histBuckets]atomic.Uint64
	finished   atomic.Uint64
	threshold  atomic.Uint64 // retain traces with total >= this (ns)

	slotMask uint64
	slots    []atomic.Pointer[RequestTrace]
	pos      atomic.Uint64
	retained atomic.Uint64

	spanDrops atomic.Uint64
}

// NewRequestTracer returns a tracer retaining up to reservoir slow traces
// (rounded up to a power of two, floor 16). Pass DefaultTraceReservoir
// unless profiling says otherwise.
func NewRequestTracer(reservoir int) *RequestTracer {
	if reservoir < 16 {
		reservoir = 16
	}
	c := 1
	for c < reservoir {
		c <<= 1
	}
	return &RequestTracer{
		slotMask: uint64(c - 1),
		slots:    make([]atomic.Pointer[RequestTrace], c),
	}
}

// Begin arms the caller's scratch ActiveTrace for one request. tc.TraceID of
// zero still traces (an ID is minted lazily if the trace is retained), so
// self-initiated server work can be sampled. On a nil tracer, Begin disarms
// the scratch so the rest of the lifecycle costs one pointer test per call.
func (t *RequestTracer) Begin(at *ActiveTrace, tc TraceContext, op, session string) {
	if t == nil {
		if at != nil {
			at.tr = nil
		}
		return
	}
	at.tr = t
	at.traceID = tc.TraceID // zero: minted lazily if the trace is retained
	at.op = op
	at.session = session
	at.parent = tc.ParentSpan
	at.rootID = tc.ParentSpan + 1
	at.nextID = at.rootID + 1
	at.n = 0
}

// Finish completes the request: the root span is closed over
// [startUnix, endUnix], the total latency (from the earliest recorded span,
// so a queue hop extends the window back to client issue) feeds the
// threshold histogram, and the span tree is retained if the request lands in
// the slow tail. The scratch is disarmed; re-arm it with Begin.
func (t *RequestTracer) Finish(at *ActiveTrace, startUnix, endUnix int64) {
	if t == nil || at == nil || at.tr == nil {
		return
	}
	first := startUnix
	last := endUnix
	for i := 0; i < at.n; i++ {
		if s := at.spans[i].StartUnixNanos; s != 0 && s < first {
			first = s
		}
		if e := at.spans[i].EndUnixNanos; e > last {
			last = e
		}
	}
	total := last - first
	if total < 0 {
		total = 0
	}
	at.tick++
	if at.tick&(latSampleEvery-1) == 0 {
		t.latBuckets[lenBucket(uint64(total))].Add(1)
		if n := t.finished.Add(latSampleEvery); n%thresholdRecalcEvery == 0 {
			t.recalcThreshold()
		}
	}
	// threshold of 0 means warmup (no recalc yet): retain everything.
	if uint64(total) >= t.threshold.Load() {
		if at.traceID == 0 {
			at.traceID = NewTraceID()
		}
		rt := &RequestTrace{
			TraceID:        at.traceID,
			Op:             at.op,
			Session:        at.session,
			StartUnixNanos: first,
			TotalNanos:     total,
			Spans:          make([]Span, 0, at.n+1),
		}
		rt.Spans = append(rt.Spans, Span{
			ID: at.rootID, Parent: at.parent, Kind: SpanRequest,
			StartUnixNanos: startUnix, EndUnixNanos: endUnix,
		})
		rt.Spans = append(rt.Spans, at.spans[:at.n]...)
		t.slots[(t.pos.Add(1)-1)&t.slotMask].Store(rt)
		t.retained.Add(1)
	}
	// Disarm without zeroing: the scratch is per-connection and bounded, so
	// stale span contents just wait for the next Begin (zeroing the ~1KB
	// struct would cost more per request than the rest of the lifecycle).
	at.tr = nil
}

// lenBucket maps a value to its log2 histogram bucket.
func lenBucket(n uint64) int {
	b := bits.Len64(n)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// recalcThreshold recomputes the p99 retention threshold from the latency
// histogram: the UPPER bound of the bucket holding the 99th percentile.
// Using the upper bound matters for the overhead guarantee — with a uniform
// workload the p99 falls inside the majority bucket, and a lower-bound
// threshold would retain (and heap-copy) most requests instead of the tail.
func (t *RequestTracer) recalcThreshold() {
	var counts [histBuckets]uint64
	var total uint64
	for i := range counts {
		counts[i] = t.latBuckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return
	}
	target := total - total/100 // count below p99
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= target {
			t.threshold.Store(uint64(1) << uint(i))
			return
		}
	}
}

// ThresholdNanos returns the current tail-retention threshold (0 while the
// sampler is still warming up or all requests are sub-nanosecond buckets).
func (t *RequestTracer) ThresholdNanos() uint64 {
	if t == nil {
		return 0
	}
	return t.threshold.Load()
}

// Finished returns the number of requests the tracer has completed,
// accurate to the latSampleEvery stride.
func (t *RequestTracer) Finished() uint64 {
	if t == nil {
		return 0
	}
	return t.finished.Load()
}

// ReplSpans computes the global spans from a flight dump: a repl-ship event is
// a span ending at the event and as long as its Arg2; a commit-announced event
// is a repl-announce span from the latest shipping of the same token to the
// event.
func ReplSpans(d FlightDump) []Span {
	var out []Span
	shipped := make(map[string]int64)
	for _, e := range d.Events {
		at := d.WallStartNanos + e.AtNanos
		switch e.Kind {
		case FlightReplShip:
			shipped[e.Token] = at
			out = append(out, Span{Kind: SpanReplShip, Token: e.Token,
				StartUnixNanos: at - int64(e.Arg2), EndUnixNanos: at, Arg1: e.Arg1, Arg2: e.Version})
		case FlightCommitAnnounced:
			if from, ok := shipped[e.Token]; ok {
				out = append(out, Span{Kind: SpanReplAnnounce, Token: e.Token,
					StartUnixNanos: from, EndUnixNanos: at, Arg1: e.Version})
			}
		}
	}
	return out
}

// Slowest snapshots the reservoir and returns up to n retained traces,
// slowest first. n <= 0 returns everything retained.
func (t *RequestTracer) Slowest(n int) []RequestTrace {
	if t == nil {
		return nil
	}
	out := make([]RequestTrace, 0, len(t.slots))
	seen := make(map[uint64]bool, len(t.slots))
	for i := range t.slots {
		if rt := t.slots[i].Load(); rt != nil && !seen[rt.TraceID] {
			seen[rt.TraceID] = true
			out = append(out, *rt)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalNanos > out[j].TotalNanos })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TraceDump is the wire form of a tracer snapshot: the slowest retained
// traces plus the global token-keyed spans and sampler state.
type TraceDump struct {
	ThresholdNanos uint64         `json:"threshold_ns"`
	Finished       uint64         `json:"finished"`
	Retained       uint64         `json:"retained"`
	SpanDrops      uint64         `json:"span_drops,omitempty"`
	Traces         []RequestTrace `json:"traces"`
	Global         []Span         `json:"global,omitempty"`
}

// Dump snapshots the tracer for surfacing (the TRACE kvserver op, incident
// bundles). n bounds the trace count as in Slowest; the global spans are read
// from fr (none if nil).
func (t *RequestTracer) Dump(n int, fr *FlightRecorder) TraceDump {
	if t == nil {
		return TraceDump{}
	}
	return TraceDump{
		ThresholdNanos: t.threshold.Load(),
		Finished:       t.finished.Load(),
		Retained:       t.retained.Load(),
		SpanDrops:      t.spanDrops.Load(),
		Traces:         t.Slowest(n),
		Global:         ReplSpans(fr.Dump()),
	}
}
