package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The traced run records one span around every call the driver makes into a
// layer. Spans live in preallocated rings (one per client goroutine plus one
// shared ring for calls made on the program's own goroutines: device,
// checkpoint-store and segment-store wrappers, and the commit driver) and are
// analysed and written out only after the window.

type spanName uint8

const (
	spBatch spanName = iota // one pass of a client's loop; its self time is load-generator overhead
	spRead
	spRMW
	spUpsert
	spCompletePending
	spCommit
	spWaitForCommit
	spRecover
	spWaitRestored
	spPipeFill
	spFlush
	spGet
	spSet
	spSend
	spAck
	spWaitApplied
	spDevRead
	spDevWrite
	spDevSync
	spArtifactWrite
	spSegWrite
	spSegSync
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.batch", "Session.Read", "Session.RMW", "Session.Upsert", "Session.CompletePending",
	"Store.Commit", "Store.WaitForCommit", "faster.Recover", "Store.WaitRestored",
	"Pipeline.fill", "Pipeline.Flush", "Client.Get", "Client.Set",
	"IngestClient.Send", "IngestClient.Ack", "Pump.WaitApplied",
	"Device.ReadAt", "Device.WriteAt", "Device.Sync", "CheckpointStore.write",
	"Segment.WriteAt", "Segment.Sync",
}

func (n spanName) String() string { return spanNames[n] }

var opSpan = [numOpKinds]spanName{opRead: spRead, opRMW: spRMW, opUpsert: spUpsert}

var processStart = time.Now()

// now is the benchmark's clock: monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(processStart)) }

// span is one recorded call. Parent is the sequence number of the enclosing
// span in the same ring, or -1 for a top-level span.
type span struct {
	Start, End int64
	Parent     int64
	Name       spanName
}

const (
	ringSpans     = 1 << 20 // retained per ring; older spans are overwritten
	traceDumpSpan = 1 << 13 // newest spans per ring written to the trace file
)

// ring is a fixed-size span recorder. begin/end/leaf are for the goroutine
// that owns the ring; sharedLeaf may be called from any goroutine.
type ring struct {
	client int // client index, or -1 for the shared background ring
	buf    []span
	n      int64   // spans ever recorded; span seq s lives at buf[s%len(buf)]
	open   []int64 // stack of open span seqs
	mu     sync.Mutex
}

func newRing(client int) *ring {
	return &ring{client: client, buf: make([]span, ringSpans), open: make([]int64, 0, 8)}
}

func (r *ring) parent() int64 {
	if len(r.open) == 0 {
		return -1
	}
	return r.open[len(r.open)-1]
}

// begin opens a span that later spans nest under, until end.
func (r *ring) begin(name spanName, at int64) int64 {
	seq := r.n
	r.buf[seq%int64(len(r.buf))] = span{Start: at, Parent: r.parent(), Name: name}
	r.n++
	r.open = append(r.open, seq)
	return seq
}

func (r *ring) end(seq, at int64) {
	r.open = r.open[:len(r.open)-1]
	if r.n-seq <= int64(len(r.buf)) { // not overwritten meanwhile
		r.buf[seq%int64(len(r.buf))].End = at
	}
}

// leaf records a finished span under the currently open one.
func (r *ring) leaf(name spanName, start, end int64) {
	r.buf[r.n%int64(len(r.buf))] = span{Start: start, End: end, Parent: r.parent(), Name: name}
	r.n++
}

// sharedLeaf records a finished top-level span from any goroutine. A nil ring
// (tracing off) drops it.
func (r *ring) sharedLeaf(name spanName, start, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.n%int64(len(r.buf))] = span{Start: start, End: end, Parent: -1, Name: name}
	r.n++
	r.mu.Unlock()
}

// retained returns the spans still in the ring, oldest first, and the
// sequence number of the first.
func (r *ring) retained() ([]span, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	first := r.n - int64(len(r.buf))
	if first < 0 {
		first = 0
	}
	out := make([]span, 0, r.n-first)
	for s := first; s < r.n; s++ {
		out = append(out, r.buf[s%int64(len(r.buf))])
	}
	return out, first
}

// spanStat aggregates one span name: self time is the span's duration minus
// the part its child spans cover.
type spanStat struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// selfTimes computes per-name totals and self times over spans (in sequence
// order, the first having sequence number first). Unfinished spans, and
// children whose parent has been overwritten, are skipped.
func selfTimes(spans []span, first int64) map[string]*spanStat {
	child := make([]int64, len(spans))
	for _, sp := range spans {
		if sp.End == 0 || sp.Parent < first {
			continue
		}
		if p := sp.Parent - first; spans[p].End != 0 {
			child[p] += sp.End - sp.Start
		}
	}
	out := make(map[string]*spanStat)
	for i, sp := range spans {
		if sp.End == 0 || (sp.Parent >= 0 && sp.Parent < first) {
			continue
		}
		st := out[sp.Name.String()]
		if st == nil {
			st = &spanStat{}
			out[sp.Name.String()] = st
		}
		d := sp.End - sp.Start
		st.Count++
		st.TotalNs += d
		st.SelfNs += d - child[i]
	}
	return out
}

// coverage is the share of the interval from the first retained top-level
// span's start to the last one's end that top-level spans account for.
func coverage(spans []span) float64 {
	var covered, from, to int64
	seen := false
	for _, sp := range spans {
		if sp.Parent != -1 || sp.End == 0 {
			continue
		}
		if !seen {
			from, seen = sp.Start, true
		}
		covered += sp.End - sp.Start
		to = sp.End
	}
	if !seen || to == from {
		return 0
	}
	return float64(covered) / float64(to-from)
}

// traceFile is what benchmark/out/trace_<workload>.json holds.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Rings    []traceRing `json:"rings"`
}

type traceRing struct {
	Client   int                  `json:"client"` // -1 = background ring
	Recorded int64                `json:"recorded"`
	Coverage float64              `json:"top_level_coverage"`
	Self     map[string]*spanStat `json:"self_times"`
	Spans    []traceSpan          `json:"spans"` // the newest traceDumpSpan spans
}

type traceSpan struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int64  `json:"parent"`
	Client int    `json:"client"`
}

// writeTrace analyses every ring, writes the trace file under dir and returns
// the lowest per-client top-level coverage.
func writeTrace(dir, workload string, seed uint64, rings []*ring) (float64, error) {
	tf := traceFile{Workload: workload, Seed: seed}
	minCov := 1.0
	for _, r := range rings {
		spans, first := r.retained()
		tr := traceRing{Client: r.client, Recorded: r.n, Coverage: coverage(spans), Self: selfTimes(spans, first)}
		if r.client >= 0 && tr.Coverage < minCov {
			minCov = tr.Coverage
		}
		from := 0
		if len(spans) > traceDumpSpan {
			from = len(spans) - traceDumpSpan
		}
		for i := from; i < len(spans); i++ {
			sp := spans[i]
			tr.Spans = append(tr.Spans, traceSpan{sp.Name.String(), sp.Start, sp.End, sp.Parent, r.client})
		}
		tf.Rings = append(tf.Rings, tr)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	buf, err := json.Marshal(tf)
	if err != nil {
		return 0, err
	}
	return minCov, os.WriteFile(filepath.Join(dir, "trace_"+workload+".json"), buf, 0o644)
}
