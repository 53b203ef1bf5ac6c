package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one metric and its unit. The two lists below are the
// benchmark's vocabulary; BENCHMARK.json repeats them (a test keeps the two
// in step) and adds direction and bound to the end-to-end ones.
type metricDef struct{ name, unit string }

// endToEnd are the costs a user of the system pays that repeat from run to
// run on a shared host, so a bound on them means something. Every workload
// emits all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"write_amp", "ratio"},
	{"space_amp", "ratio"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is what --trace 1 reports. First the time-based numbers a user
// sees (see timeMetrics), then the layers' own, named <module>.<metric>. A
// metric whose layer is not on a workload's path reads 0 there.
var perLayer = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"cpu_us_per_op", "us"},
	{"commit_p50_ms", "ms"},
	{"recover_ttfo_ms", "ms"},
	{"recover_full_ms", "ms"},

	{"hashfn.hash64_ns", "ns"},

	{"epoch.refresh_ns", "ns"},
	{"epoch.bump_drain_us", "us"},
	{"epoch.bumps", "count"},
	{"epoch.drain_p50_us", "us"},

	{"hlog.alloc_write_ns", "ns"},
	{"hlog.flush_bytes", "bytes"},
	{"hlog.flush_mb_per_s", "MiB/s"},
	{"hlog.flush_segments", "count"},
	{"hlog.async_reads", "count"},

	{"storage.dev_reads", "count"},
	{"storage.dev_read_bytes", "bytes"},
	{"storage.dev_read_p50_us", "us"},
	{"storage.dev_writes", "count"},
	{"storage.dev_write_bytes", "bytes"},
	{"storage.dev_write_p50_us", "us"},
	{"storage.dev_syncs", "count"},
	{"storage.artifact_writes", "count"},
	{"storage.artifact_bytes", "bytes"},
	{"storage.artifact_write_p50_us", "us"},
	{"storage.io_queue_p50_us", "us"},
	{"storage.io_retries", "count"},
	{"storage.envelope_ns_per_kib", "ns"},

	{"faster.read_p50_ns", "ns"},
	{"faster.read_p99_ns", "ns"},
	{"faster.rmw_p50_ns", "ns"},
	{"faster.rmw_p99_ns", "ns"},
	{"faster.upsert_p50_ns", "ns"},
	{"faster.upsert_p99_ns", "ns"},
	{"faster.complete_pending_p50_us", "us"},
	{"faster.commit_call_us", "us"},
	{"faster.commit_wait_ms", "ms"},
	{"faster.commit_dip_ratio", "ratio"},
	{"faster.recover_ns_per_record", "ns"},
	{"faster.pending_ratio", "ratio"},
	{"faster.io_reads", "count"},
	{"faster.commit_bytes", "bytes"},
	{"faster.phase_prepare_ms", "ms"},
	{"faster.phase_inprogress_ms", "ms"},
	{"faster.phase_waitpending_ms", "ms"},
	{"faster.phase_waitflush_ms", "ms"},
	{"faster.session_lag_p50_ms", "ms"},
	{"faster.restore_ondemand_warms", "count"},
	{"faster.restore_blocked_ops", "count"},
	{"faster.restore_replayed_records", "count"},

	{"obs.counter_inc_ns", "ns"},
	{"obs.hist_observe_ns", "ns"},
	{"obs.flight_emit_ns", "ns"},
	{"obs.metrics_cost_pct", "%"},
	{"obs.flight_cost_pct", "%"},

	{"kvserver.flush_rtt_p50_us", "us"},
	{"kvserver.client_encode_ns_per_op", "ns"},
	{"kvserver.batch_depth_p50", "count"},
	{"kvserver.replies_per_flush", "ratio"},
	{"kvserver.op_queue_p50_ns", "ns"},
	{"kvserver.op_exec_p50_ns", "ns"},
	{"kvserver.batches", "count"},
	{"kvserver.wire_ratio", "ratio"},

	{"inlog.append_ns", "ns"},
	{"inlog.message_codec_ns", "ns"},
	{"inlog.seg_writes", "count"},
	{"inlog.seg_write_bytes", "bytes"},
	{"inlog.seg_syncs", "count"},
	{"inlog.seg_sync_p50_us", "us"},
	{"inlog.msgs_per_fsync", "ratio"},
	{"inlog.apply_lag_p50", "count"},
	{"inlog.trimmed_bytes", "bytes"},
	{"inlog.replayed", "count"},
	{"inlog.send_p50_us", "us"},
	{"inlog.wait_applied_ms", "ms"},

	{"process.allocs_per_op", "count"},
	{"process.gc_cycles", "count"},
	{"process.gc_pause_ms", "ms"},
	{"process.goroutines_max", "count"},

	{"loadgen.clock_ns", "ns"},
	{"loadgen.trace_overhead_pct", "%"},
	{"loadgen.span_coverage_pct", "%"},
}

// timed is the head of perLayer: rates, latencies, commit and recovery times.
var timed = perLayer[:7]

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// seal turns the measured values into the reported metric set, insisting
// that it is exactly the declared one: nothing missing, nothing undeclared.
func seal(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// detail is everything a run knows beyond the result line; it is printed
// before the result and saved under benchmark/out.
type detail struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Smoke    bool               `json:"smoke,omitempty"`
	Clients  int                `json:"clients"`
	Host     hostFacts          `json:"host"`
	Streams  []string           `json:"stream_hashes"`
	Ops      uint64             `json:"window_ops"`
	Commits  int                `json:"window_commits"`
	Latency  map[string]summary `json:"latency_ns"` // sample count beside every percentile
	Phases   map[string]float64 `json:"phase_seconds"`
	Ungated  map[string]float64 `json:"ungated,omitempty"` // untraced run: the time-based metrics, for information
	Notes    []string           `json:"notes,omitempty"`
	Result   result             `json:"result"`
}

func (d *detail) print() {
	fmt.Printf("workload %s  seed %d  window %.3gs  clients %d  trace %v  smoke %v\n",
		d.Workload, d.Seed, d.Seconds, d.Clients, d.Trace, d.Smoke)
	fmt.Printf("host: nproc %d  GOMAXPROCS %d  %s  commit %s  load1 %.2f\n",
		d.Host.NProc, d.Host.GOMAXPROCS, d.Host.GoVersion, d.Host.Commit, d.Host.Load1)
	fmt.Printf("streams: %v  window ops %d  window commits %d\n", d.Streams, d.Ops, d.Commits)
	names := make([]string, 0, len(d.Latency))
	for n := range d.Latency {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := d.Latency[n]
		fmt.Printf("  latency %-24s n=%-8d p50=%.0fns p99=%.0fns p%g=%.0fns (highest with 10 samples beyond)\n",
			n, s.N, s.P50, s.P99, s.TopP*100, s.TopValue)
	}
	defs := endToEnd
	if d.Trace {
		defs = perLayer
	}
	for _, def := range defs {
		fmt.Printf("  %-34s %16.6g %s\n", def.name, d.Result.Metrics[def.name].Value, def.unit)
	}
	if !d.Trace {
		for _, def := range timed {
			fmt.Printf("  %-34s %16.6g %s (not bounded; --trace 1 reports it)\n", def.name, d.Ungated[def.name], def.unit)
		}
	}
	fmt.Printf("  %-34s %16.6g ratio (%d failed of %d attempted)\n", "fail_ratio",
		float64(d.Result.Failed)/float64(d.Result.Attempted), d.Result.Failed, d.Result.Attempted)
	fmt.Printf("phases (s): %v\n", d.Phases)
	for _, n := range d.Notes {
		fmt.Println("  note:", n)
	}
}

func (d *detail) save(root string) error {
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	trace := 0
	if d.Trace {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("result_%s_trace%d.json", d.Workload, trace)), buf, 0o644)
}
