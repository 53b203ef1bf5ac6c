package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"sort"
	"time"

	"repro/internal/faster"
	"repro/internal/health"
	"repro/internal/kvserver"
	"repro/internal/obs"
)

// whyCmd implements `fasterctl why -addr <server> [-json]`, the one live
// view: on one connection it sends one FLIGHT, one TRACE and one STATS and
// prints, in order, the health verdict, the running (or last) commit's phase
// spans, the sessions furthest from durable, the log's offsets,
// replication and the three slowest traces. -json prints the three documents
// as one.
//
// The exit code is a liveness probe's: 0 healthy, 1 degraded or unhealthy, 2
// on a transport error or when the server runs no health engine. STATS goes
// last: a failed exchange leaves the connection out of step, so a STATS that
// succeeds shows that an earlier FLIGHT or TRACE error was the server's
// answer (its recorder or tracer is off), not the transport's.
func whyCmd(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("why", flag.ContinueOnError)
	addr := fs.String("addr", "", "live server address (kvserver protocol)")
	asJSON := fs.Bool("json", false, "print the STATS, FLIGHT and TRACE documents as one JSON document")
	if err := fs.Parse(args); err != nil || *addr == "" {
		fmt.Fprintln(fs.Output(), "usage: fasterctl why -addr <server-addr> [-json]")
		return 2
	}
	c, err := kvserver.Dial(*addr, "")
	if err != nil {
		log.Print(err)
		return 2
	}
	defer c.Close()
	var doc struct {
		Stats  kvserver.StatsSnapshot `json:"stats"`
		Flight *obs.FlightDump        `json:"flight"`
		Trace  *obs.TraceDump         `json:"trace"`
	}
	flight, flightErr := c.Flight("")
	trace, traceErr := c.Trace(3)
	if doc.Stats, err = c.Stats(); err != nil {
		log.Print(err)
		return 2
	}
	if flightErr == nil {
		doc.Flight = &flight
	}
	if traceErr == nil {
		doc.Trace = &trace
	}
	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			log.Print(err)
			return 2
		}
	} else {
		snap := doc.Stats
		printVerdict(w, snap.Health)
		printCommit(w, snap, doc.Flight, flightErr)
		printLags(w, snap.SessionLags)
		printLog(w, snap.Log)
		printRepl(w, snap.Repl)
		if traceErr != nil {
			fmt.Fprintf(w, "\nslowest traces: none (%v)\n", traceErr)
		} else {
			fmt.Fprintln(w, "\nslowest traces:")
			printTraceDump(w, trace)
		}
	}
	switch v := doc.Stats.Health; {
	case v == nil:
		return 2
	case v.Healthy():
		return 0
	}
	return 1
}

// printVerdict renders the health verdict: the state line, the SLO standing,
// and one line per detector.
func printVerdict(w io.Writer, v *health.Verdict) {
	if v == nil {
		fmt.Fprintln(w, "health:   no health engine (cprserver -health-interval 0)")
		return
	}
	fmt.Fprintf(w, "health:   %s (sampled %s, %d samples)\n", v.State,
		time.Unix(0, v.SampledUnixNanos).Format(time.RFC3339), v.Samples)
	if v.SLO != nil {
		fmt.Fprintf(w, "slo:      durability-lag p99 %v vs objective %v (%d obs in window)\n",
			time.Duration(v.SLO.WindowP99Nanos), time.Duration(v.SLO.ObjectiveNanos), v.SLO.WindowObservations)
	}
	for _, d := range v.Detectors {
		mark := "ok"
		if d.Firing {
			mark = "FIRING"
			if d.Critical {
				mark = "FIRING (critical)"
			}
			mark += " since " + time.Unix(0, d.SinceUnixNanos).Format(time.RFC3339) + "\n      " + d.Detail
		}
		fmt.Fprintf(w, "  %-24s %s\n", d.Name, mark)
	}
}

// printCommit prints the store's version and phase and the phase spans of the
// running commit — or, at rest, of the last one — computed from the flight
// events. The open span ends at the newest event the server recorded, on the
// server's clock, so its length is a lower bound ("or more").
func printCommit(w io.Writer, snap kvserver.StatsSnapshot, dump *obs.FlightDump, err error) {
	fmt.Fprintf(w, "\ncommit:   version %d, phase %s\n", snap.Version, snap.Phase)
	if dump == nil {
		fmt.Fprintf(w, "  no phase spans (%v)\n", err)
		return
	}
	var newest int64
	for _, e := range dump.Events {
		newest = max(newest, e.AtNanos)
	}
	tl := obs.BuildTimeline(dump.Events, newest)
	if len(tl.Spans) == 0 {
		fmt.Fprintln(w, "  no commit in the flight recorder's window")
		return
	}
	last := tl.Spans[len(tl.Spans)-1]
	state := "done"
	if last.Phase != "rest" {
		state = "running"
	}
	fmt.Fprintf(w, "  %s (version %d, %s):\n", last.Token, last.Version, state)
	for _, sp := range tl.Spans {
		if sp.Token == last.Token && sp.Phase != "rest" {
			open := ""
			if sp.Open {
				open = " or more (still open)"
			}
			fmt.Fprintf(w, "    %-14s %10s%s\n", sp.Phase, ns(sp.DurationNanos), open)
		}
	}
}

// printLags prints the five sessions furthest ahead of their committed
// prefix: what each would replay after a crash.
func printLags(w io.Writer, lags []faster.SessionLag) {
	fmt.Fprintf(w, "\ndurability lag: %d session(s)\n", len(lags))
	sort.Slice(lags, func(i, j int) bool { return lags[i].LagNanos > lags[j].LagNanos })
	for _, l := range lags[:min(len(lags), 5)] {
		fmt.Fprintf(w, "  %-36s %8d ops %10s  (issued %d, committed %d)\n",
			l.ID, l.LagOps, ns(l.LagNanos), l.IssuedSerial, l.CommittedSerial)
	}
}

// printLog prints the HybridLog's offsets in region order.
func printLog(w io.Writer, s kvserver.LogStats) {
	fmt.Fprintf(w, "\nlog offsets: begin %d head %d safe-read-only %d read-only %d durable %d tail %d\n",
		s.Begin, s.Head, s.SafeReadOnly, s.ReadOnly, s.Durable, s.Tail)
}

// printRepl prints the server's replication role and, on a replica, how far
// it trails the primary.
func printRepl(w io.Writer, r *kvserver.ReplStats) {
	if r == nil {
		fmt.Fprintln(w, "\nreplication: standalone (not configured)")
		return
	}
	fmt.Fprintf(w, "\nreplication: %s", r.Role)
	if r.Upstream != "" {
		fmt.Fprintf(w, " of %s", r.Upstream)
	}
	if r.Role == "primary" {
		fmt.Fprintf(w, ", %d replica(s)", r.Replicas)
	}
	fmt.Fprintf(w, "\n  applied version %d, %d version(s) and %d byte(s) behind\n",
		r.AppliedVersion, r.VersionsBehind, r.BytesBehind)
}

// printTraceDump prints each retained trace as an indented span tree with
// per-hop durations, merging the token-keyed global replication spans under
// the durability-wait hop they explain.
func printTraceDump(w io.Writer, dump obs.TraceDump) {
	fmt.Fprintf(w, "threshold %s · %d finished · %d retained\n",
		ns(int64(dump.ThresholdNanos)), dump.Finished, dump.Retained)
	if dump.SpanDrops > 0 {
		fmt.Fprintf(w, "warning: %d spans dropped (per-request span cap)\n", dump.SpanDrops)
	}

	// Global replication spans grouped by commit token; consumed as they are
	// merged under matching durwait hops, leftovers printed at the end.
	globalByToken := make(map[string][]obs.Span)
	for _, sp := range dump.Global {
		globalByToken[sp.Token] = append(globalByToken[sp.Token], sp)
	}
	merged := make(map[string]bool)
	line := func(depth int, sp obs.Span) {
		fmt.Fprintf(w, "  %*s%-*s %10s%s\n", 2*depth, "", 24-2*depth, sp.Kind, ns(sp.DurationNanos()), spanNote(sp))
	}

	for _, tr := range dump.Traces {
		fmt.Fprintf(w, "\ntrace %016x op=%s session=%s total=%s\n",
			tr.TraceID, tr.Op, tr.Session, ns(tr.TotalNanos))
		children := make(map[uint64][]obs.Span)
		ids := make(map[uint64]bool, len(tr.Spans))
		for _, sp := range tr.Spans {
			ids[sp.ID] = true
		}
		var roots []obs.Span
		for _, sp := range tr.Spans {
			if ids[sp.Parent] {
				children[sp.Parent] = append(children[sp.Parent], sp)
			} else {
				// Parent is on the other side of the wire (the client's root).
				roots = append(roots, sp)
			}
		}
		var hopSum int64
		var walk func(sp obs.Span, depth int)
		walk = func(sp obs.Span, depth int) {
			line(depth, sp)
			if len(children[sp.ID]) == 0 && sp.Kind != obs.SpanRequest {
				hopSum += sp.DurationNanos()
			}
			for _, ch := range children[sp.ID] {
				walk(ch, depth+1)
			}
			if sp.Kind == obs.SpanDurWait && sp.Token != "" {
				for _, g := range globalByToken[sp.Token] {
					merged[sp.Token] = true
					line(depth+1, g)
				}
			}
		}
		for _, root := range roots {
			walk(root, 0)
		}
		if tr.TotalNanos > 0 {
			fmt.Fprintf(w, "  %-24s %10s  (%.0f%% of total attributed)\n",
				"hops", ns(hopSum), 100*float64(hopSum)/float64(tr.TotalNanos))
		}
	}

	var leftover []obs.Span
	for tok, spans := range globalByToken {
		if !merged[tok] {
			leftover = append(leftover, spans...)
		}
	}
	if len(leftover) > 0 {
		sort.Slice(leftover, func(i, j int) bool {
			return leftover[i].StartUnixNanos < leftover[j].StartUnixNanos
		})
		fmt.Fprintf(w, "\nglobal (replication, by commit token):\n")
		for _, g := range leftover {
			line(0, g)
		}
	}
}

// spanNote renders a span's typed annotations for the tree output.
func spanNote(sp obs.Span) string {
	switch sp.Kind {
	case obs.SpanDecode:
		if sp.Arg1 > 0 {
			return fmt.Sprintf("  ops=%d", sp.Arg1)
		}
	case obs.SpanExec:
		return fmt.Sprintf("  serial=%d", sp.Arg1)
	case obs.SpanDurWait:
		return fmt.Sprintf("  awaited=%d committed=%d commit=%s", sp.Arg1, sp.Arg2, sp.Token)
	case obs.SpanRespWrite:
		return fmt.Sprintf("  bytes=%d", sp.Arg1)
	case obs.SpanReplShip:
		return fmt.Sprintf("  bytes=%d version=%d commit=%s", sp.Arg1, sp.Arg2, sp.Token)
	case obs.SpanReplAnnounce:
		return fmt.Sprintf("  version=%d commit=%s", sp.Arg1, sp.Token)
	}
	return ""
}

// ns renders a nanosecond duration in a human unit.
func ns(v int64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fs", float64(v)/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fms", float64(v)/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fus", float64(v)/1e3)
	}
	return fmt.Sprintf("%dns", v)
}
