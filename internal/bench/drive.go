package bench

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// sampleTick is the interval the sampler asks for: fine enough that a commit
// span of a few tens of milliseconds covers several samples. Beside as many
// spinning workers as there are cores the sampler runs only when Go's
// scheduler preempts one, every 10-40 ms on a 2-core host; the ruler reads
// whatever spacing it gets.
const sampleTick = 2 * time.Millisecond

// worker is one thread of a run. op does the n-th operation and reports
// whether it completed (false: a transaction aborted, a client blocked on
// its buffer); stop runs on the same goroutine once the run is over (drain,
// close the session).
type worker struct {
	op   func(n int) bool
	stop func()
}

// load is what drive runs: threads workers, each calling its op until
// seconds have passed, while the calling goroutine samples the op counter
// every sampleTick.
type load struct {
	threads int
	seconds float64
	// flight is the time base of the samples: the recorder the store emits
	// its commit phases to (nil: Unix time).
	flight *obs.FlightRecorder
	worker func(i int) worker
	// tick, when set, runs after each sample with the seconds since the
	// start and the ops completed: the caller issues its commits here. An
	// error ends the run.
	tick func(t float64, ops int64) error
	// gauge, when set, is read with each sample (the log's extent).
	gauge func() int64
}

// sample is one reading of the counters.
type sample struct {
	at    int64 // ns on the flight recorder's time base
	ops   int64 // ops completed since the start
	gauge int64
}

// latSample is one timed op, every 256th a worker issues: when it started
// and how long it took.
type latSample struct{ at, ns int64 }

// run is what drive measured.
type run struct {
	elapsed float64 // seconds, the workers' drain included
	ops     int64   // completed
	samples []sample
	lats    []latSample
}

func (r run) mops() float64 { return float64(r.ops) / r.elapsed / 1e6 }

func (r run) avgLatencyUs() float64 {
	if len(r.lats) == 0 {
		return 0
	}
	var sum int64
	for _, l := range r.lats {
		sum += l.ns
	}
	return float64(sum) / float64(len(r.lats)) / 1e3
}

// drive runs l: the workers' stop/count/latency loop, and the sampler.
func drive(l load) (run, error) {
	base := l.flight.WallStart()
	now := func() int64 { return time.Now().UnixNano() - base }
	var (
		stop atomic.Bool
		ops  atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		r    run
	)
	workers := make([]worker, l.threads) // built before the clock starts
	for i := range workers {
		workers[i] = l.worker(i)
	}
	start := now()
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var done int64
			var lats []latSample
			for n := 0; ; n++ {
				if n%64 == 0 {
					if stop.Load() {
						break
					}
					ops.Add(done)
					done = 0
				}
				var t0 int64
				if n%256 == 0 {
					t0 = now()
				}
				if w.op(n) {
					done++
				}
				if n%256 == 0 {
					lats = append(lats, latSample{t0, now() - t0})
				}
			}
			ops.Add(done)
			w.stop()
			mu.Lock()
			r.lats = append(r.lats, lats...)
			mu.Unlock()
		}()
	}
	r.samples = []sample{{at: start}}
	var err error
	for err == nil {
		time.Sleep(sampleTick)
		s := sample{at: now(), ops: ops.Load()}
		if l.gauge != nil {
			s.gauge = l.gauge()
		}
		r.samples = append(r.samples, s)
		t := float64(s.at-start) / 1e9
		if l.tick != nil {
			err = l.tick(t, s.ops)
		}
		if t >= l.seconds {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	r.elapsed = float64(now()-start) / 1e9
	r.ops = ops.Load()
	return r, err
}

// atMarks returns a tick that calls issue once for each mark (seconds) the
// run has passed.
func atMarks(marks []float64, issue func() error) func(float64, int64) error {
	next := 0
	return func(t float64, _ int64) error {
		for ; next < len(marks) && t >= marks[next]; next++ {
			if err := issue(); err != nil {
				return err
			}
		}
		return nil
	}
}

// Series is a run in intervals: each one's end (seconds since the start),
// its throughput, and the gauge at its end as the log's extent (Fig. 12d).
type Series struct {
	T      []float64 `json:"t_sec"`
	Mops   []float64 `json:"mops"`
	LogMiB []float64 `json:"log_mib"`
}

// series cuts the run into n intervals at evenly spaced samples.
func (r run) series(n int) Series {
	var out Series
	prev := r.samples[0]
	for k := 1; k <= n; k++ {
		cur := r.samples[k*(len(r.samples)-1)/n]
		if cur.at == prev.at {
			continue
		}
		out.T = append(out.T, float64(cur.at-r.samples[0].at)/1e9)
		out.Mops = append(out.Mops, float64(cur.ops-prev.ops)/float64(cur.at-prev.at)*1e3)
		out.LogMiB = append(out.LogMiB, float64(cur.gauge)/(1<<20))
		prev = cur
	}
	return out
}

// The ruler. A commit span runs from a commit's first phase out of rest to
// the machine's return to rest, as the store's phase timeline has it; the
// samples are on the same time base, so the run splits into the time inside
// the spans and the time outside.

// span is an interval on the flight recorder's time base.
type span struct{ from, to int64 }

// Reading is the ruler over one set of spans: ops/s and the median sampled
// op latency over the time the spans cover. A sample interval straddling a
// span edge adds its ops in proportion to its overlap; a timed op counts
// where it started.
type Reading struct {
	Mops  float64 `json:"mops"`
	P50Us float64 `json:"p50_us"`
	Sec   float64 `json:"sec"`
}

// Dip is a run read inside versus outside its commit spans: all of them,
// each one, and each phase's.
type Dip struct {
	Outside Reading            `json:"outside"`
	Inside  Reading            `json:"inside"`
	Commits []Reading          `json:"commits"`
	Phases  map[string]Reading `json:"phases"`
}

// Ratio is inside over outside throughput, 0 with no time on either side.
func (d Dip) Ratio() float64 { return d.rel(d.Inside) }

// rel is rd's throughput over the throughput outside the commit spans, 0 if
// rd covers no time.
func (d Dip) rel(rd Reading) float64 {
	if rd.Sec == 0 || d.Outside.Mops == 0 {
		return 0
	}
	return rd.Mops / d.Outside.Mops
}

// dipPhases are the phases a commit span is made of, in order.
var dipPhases = []string{"prepare", "in-progress", "wait-pending", "wait-flush"}

// readDip rules r against tl's closed commit spans.
func (r run) readDip(tl obs.Timeline) Dip {
	var commits []span
	phases := map[string][]span{}
	byToken := map[string]int{}
	for _, sp := range tl.Spans {
		if sp.Open || sp.Phase == "rest" {
			continue
		}
		s := span{sp.StartNanos, sp.EndNanos}
		phases[sp.Phase] = append(phases[sp.Phase], s)
		if i, ok := byToken[sp.Token]; ok {
			commits[i] = span{min(commits[i].from, s.from), max(commits[i].to, s.to)}
		} else {
			byToken[sp.Token] = len(commits)
			commits = append(commits, s)
		}
	}
	slices.SortFunc(commits, func(a, b span) int { return cmp.Compare(a.from, b.from) })
	var d Dip
	d.Inside, d.Outside = r.read(commits)
	for _, c := range commits {
		in, _ := r.read([]span{c})
		d.Commits = append(d.Commits, in)
	}
	d.Phases = map[string]Reading{}
	for ph, spans := range phases {
		d.Phases[ph], _ = r.read(spans)
	}
	return d
}

// read splits the run at spans (sorted, disjoint).
func (r run) read(spans []span) (in, out Reading) {
	var inOps, outOps float64
	var inNs, outNs int64
	for i := 1; i < len(r.samples); i++ {
		a, b := r.samples[i-1], r.samples[i]
		d := b.at - a.at
		if d <= 0 {
			continue
		}
		o := overlap(a.at, b.at, spans)
		f := float64(o) / float64(d)
		inOps += float64(b.ops-a.ops) * f
		outOps += float64(b.ops-a.ops) * (1 - f)
		inNs, outNs = inNs+o, outNs+d-o
	}
	var inLat, outLat []int64
	for _, l := range r.lats {
		if overlap(l.at, l.at+1, spans) > 0 {
			inLat = append(inLat, l.ns)
		} else {
			outLat = append(outLat, l.ns)
		}
	}
	return reading(inOps, inNs, inLat), reading(outOps, outNs, outLat)
}

func reading(ops float64, ns int64, lat []int64) Reading {
	rd := Reading{Sec: float64(ns) / 1e9}
	if ns > 0 {
		rd.Mops = ops / float64(ns) * 1e3
	}
	if len(lat) > 0 {
		slices.Sort(lat)
		rd.P50Us = float64(lat[len(lat)/2]) / 1e3
	}
	return rd
}

// overlap is how much of [a, b) the spans cover.
func overlap(a, b int64, spans []span) int64 {
	var o int64
	for _, s := range spans {
		if lo, hi := max(a, s.from), min(b, s.to); hi > lo {
			o += hi - lo
		}
	}
	return o
}

// dipHeader and printDip print the ruler's reading of a run: throughput
// outside and inside the commit spans, their ratio, the p50 sampled latency
// on each side, then the ratio inside each phase and inside each commit.
func dipHeader(w io.Writer, unit string) {
	fmt.Fprintf(w, "%-24s %8s %8s %6s %8s %8s   %s\n", "", "out "+unit, "in "+unit, "in/out",
		"p50 out", "p50 in", "in/out per phase (prep inprog waitpend waitflush) | per commit")
}

func printDip(w io.Writer, label string, d Dip) {
	fmt.Fprintf(w, "%-24s %8.3f %8.3f %6.2f %8.3f %8.3f  ", label, d.Outside.Mops, d.Inside.Mops,
		d.Ratio(), d.Outside.P50Us, d.Inside.P50Us)
	cell := func(rd Reading) string {
		if rd.Sec == 0 {
			return "    -"
		}
		return fmt.Sprintf(" %4.2f", d.rel(rd))
	}
	for _, ph := range dipPhases {
		fmt.Fprint(w, cell(d.Phases[ph]))
	}
	fmt.Fprint(w, " |")
	for _, c := range d.Commits {
		fmt.Fprint(w, cell(c))
	}
	fmt.Fprintln(w)
}

// The ruler's predicates, over rows as an artifact holds them.

// dipOf decodes the ruler's reading a row carries.
func dipOf(r Row) (Dip, bool) {
	var d Dip
	raw, err := json.Marshal(r["dip"])
	if err != nil || r["dip"] == nil || json.Unmarshal(raw, &d) != nil {
		return d, false
	}
	return d, true
}

// rowName names a row by the fields that set it apart from the others.
func rowName(r Row) string {
	var parts []string
	for _, k := range []string{"label", "op", "transfer", "kind", "dist"} {
		if v, ok := r[k]; ok {
			parts = append(parts, fmt.Sprint(v))
		}
	}
	return strings.Join(parts, " ")
}

// dipShape is the paper's "no collapse at a commit" (Figs. 11a/b, 12a/b,
// 18a/b): in every run, throughput inside the commit spans is at least half
// of what it is outside them. The WAL engine's commit is a group flush with
// no phases, so its rows have no span and are not read.
func dipShape(rows []Row) error {
	if len(rows) == 0 {
		return fmt.Errorf("no rows")
	}
	for _, r := range rows {
		if r["engine"] == "WAL" {
			continue
		}
		d, ok := dipOf(r)
		switch {
		case !ok || d.Inside.Sec == 0:
			return fmt.Errorf("%s: no commit span", rowName(r))
		case d.Ratio() < 0.5:
			return fmt.Errorf("%s: %.3f inside the commit spans, below half of %.3f outside",
				rowName(r), d.Inside.Mops, d.Outside.Mops)
		}
	}
	return nil
}
