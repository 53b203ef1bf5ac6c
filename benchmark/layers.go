package main

import (
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
)

// Per-layer metrics come from four places, all outside the program:
//
//	S  spans and samples the driver takes around its own calls into a layer;
//	P  probes that replay generated inputs into one layer (probes.go);
//	W  the counting wrappers under the store and the ingestion log;
//	R  the delta, over the traced window, of counters and histograms the
//	   program already keeps (Store.Metrics().Snapshot(), Store.Tracer()).

// sampler polls gauges the program exposes while the traced window runs.
type sampler struct {
	quit, done chan struct{}
	queueDepth []float64 // storage_io_queue_depth, summed over shards
	applyLag   []float64 // inlog_apply_lag
	goroutines int       // maximum seen
}

func startSampler(reg *obs.Registry) *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				snap := reg.Snapshot()
				var depth float64
				for name, v := range snap.Gauges {
					if strings.HasSuffix(name, "storage_io_queue_depth") {
						depth += float64(v)
					}
				}
				s.queueDepth = append(s.queueDepth, depth)
				if lag, ok := snap.Gauges["inlog_apply_lag"]; ok {
					s.applyLag = append(s.applyLag, float64(lag))
				}
				s.goroutines = max(s.goroutines, runtime.NumGoroutine())
			}
		}
	}()
	return s
}

func (s *sampler) stop() {
	close(s.quit)
	<-s.done
}

// regDelta reads counters and histograms of the traced window. A multi-shard
// store prefixes its shards' infrastructure metrics with "shard<i>_"; they
// are summed here.
type regDelta struct{ before, after obs.Snapshot }

func (d regDelta) counter(name string) float64 {
	var n float64
	for k, v := range d.after.Counters {
		if k == name || strings.HasSuffix(k, "_"+name) {
			n += float64(v - d.before.Counters[k])
		}
	}
	return n
}

func (d regDelta) hist(name string) (cur, prev []uint64, sum float64) {
	cur, prev = make([]uint64, 64), make([]uint64, 64)
	for k, h := range d.after.Histograms {
		if k != name && !strings.HasSuffix(k, "_"+name) {
			continue
		}
		p := d.before.Histograms[k]
		for i, c := range h.Buckets {
			cur[i] += c
		}
		for i, c := range p.Buckets {
			prev[i] += c
		}
		sum += float64(h.SumNanos - p.SumNanos)
	}
	return cur, prev, sum
}

func (d regDelta) histP50(name string) float64 {
	cur, prev, _ := d.hist(name)
	return histQuantile(cur, prev, 0.5)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func p50(v []float64) float64 { return summarize(v).P50 }

// layerMetrics fills every S, W and R metric from the traced window win, the
// untraced reference window ref and the recoveries.
func (r *run) layerMetrics(m map[string]float64, ref, win *windowResult, recs []recovery) {
	d := regDelta{win.reg0, win.reg1}
	ops := float64(win.ops)

	m["epoch.bumps"] = d.counter("epoch_bumps_total")
	m["epoch.drain_p50_us"] = d.histP50("epoch_drain_ns") / 1e3

	_, _, flushNs := d.hist("hlog_flush_ns")
	m["hlog.flush_bytes"] = d.counter("hlog_flush_bytes_total")
	m["hlog.flush_mb_per_s"] = ratio(m["hlog.flush_bytes"]/(1<<20), flushNs/1e9)
	m["hlog.flush_segments"] = d.counter("hlog_flush_segments_total")
	m["hlog.async_reads"] = d.counter("hlog_async_reads_total")

	m["storage.dev_reads"] = float64(win.dev1.reads - win.dev0.reads)
	m["storage.dev_read_bytes"] = float64(win.dev1.readBytes - win.dev0.readBytes)
	m["storage.dev_read_p50_us"] = p50(nsToFloat(win.devReadNs)) / 1e3
	m["storage.dev_writes"] = float64(win.dev1.writes - win.dev0.writes)
	m["storage.dev_write_bytes"] = float64(win.dev1.writeBytes - win.dev0.writeBytes)
	m["storage.dev_write_p50_us"] = p50(nsToFloat(win.devWriteNs)) / 1e3
	m["storage.dev_syncs"] = float64(win.dev1.syncs - win.dev0.syncs)
	m["storage.artifact_writes"] = float64(win.artN1 - win.artN0)
	m["storage.artifact_bytes"] = float64(win.art1 - win.art0)
	m["storage.artifact_write_p50_us"] = p50(nsToFloat(win.artNs)) / 1e3
	// Little's law on the sampled queue depth: a request that finds q others
	// queued waits about q mean service intervals.
	m["storage.io_queue_p50_us"] = p50(win.sampler.queueDepth) * ratio(win.seconds*1e6, m["storage.dev_reads"])
	m["storage.io_retries"] = d.counter("storage_io_retries_total")

	for k, name := range map[opKind]string{opRead: "read", opRMW: "rmw", opUpsert: "upsert"} {
		s := summarize(win.kind[k])
		m["faster."+name+"_p50_ns"] = s.P50
		m["faster."+name+"_p99_ns"] = s.P99
	}
	m["faster.complete_pending_p50_us"] = p50(win.extra["complete_pending"]) / 1e3
	m["faster.commit_call_us"] = p50(nsToFloat(win.commits.callNs)) / 1e3
	m["faster.commit_wait_ms"] = p50(nsToFloat(win.commits.waitNs)) / 1e6
	m["faster.commit_dip_ratio"] = dipRatio(win)
	m["faster.recover_ns_per_record"] = recoveryMedian(recs, func(rc recovery) float64 { return ratio(float64(rc.recoverNs), rc.records) })
	issued := d.counter("faster_reads_total") + d.counter("faster_upserts_total") + d.counter("faster_rmws_total") + d.counter("faster_deletes_total")
	m["faster.pending_ratio"] = ratio(d.counter("faster_pending_ops_total"), issued)
	m["faster.io_reads"] = d.counter("faster_io_reads_total")
	m["faster.commit_bytes"] = d.counter("faster_commit_bytes_total")
	phases := phaseDurations(win)
	m["faster.phase_prepare_ms"] = p50(phases["prepare"]) / 1e6
	m["faster.phase_inprogress_ms"] = p50(phases["in-progress"]) / 1e6
	m["faster.phase_waitpending_ms"] = p50(phases["wait-pending"]) / 1e6
	m["faster.phase_waitflush_ms"] = p50(phases["wait-flush"]) / 1e6
	m["faster.session_lag_p50_ms"] = d.histP50("faster_session_lag_ns") / 1e6
	var warms, blocked, replayed float64
	if rs := recs[0].restore; rs != nil {
		for _, sh := range rs.Shards {
			warms += float64(sh.OnDemandWarms)
			blocked += float64(sh.BlockedOps)
			replayed += float64(sh.ReplayedRecords)
		}
	}
	m["faster.restore_ondemand_warms"] = warms
	m["faster.restore_blocked_ops"] = blocked
	m["faster.restore_replayed_records"] = replayed

	m["kvserver.flush_rtt_p50_us"] = 0
	if r.w.kind == kindNetBatch {
		m["kvserver.flush_rtt_p50_us"] = p50(win.opLat) / 1e3
	}
	m["kvserver.client_encode_ns_per_op"] = p50(win.extra["pipeline_fill"]) / opBatch
	m["kvserver.batch_depth_p50"] = d.histP50("faster_batch_depth")
	m["kvserver.replies_per_flush"] = ratio(d.counter("faster_net_coalesced_replies_total"), d.counter("faster_net_coalesced_flushes_total"))
	m["kvserver.op_queue_p50_ns"] = d.histP50("faster_op_queue_ns")
	m["kvserver.op_exec_p50_ns"] = d.histP50("faster_op_exec_ns")
	m["kvserver.batches"] = d.counter("faster_net_batches_total")

	m["inlog.seg_writes"] = float64(win.seg1.writes - win.seg0.writes)
	m["inlog.seg_write_bytes"] = float64(win.seg1.writeBytes - win.seg0.writeBytes)
	m["inlog.seg_syncs"] = float64(win.seg1.syncs - win.seg0.syncs)
	m["inlog.seg_sync_p50_us"] = p50(nsToFloat(win.segSyncNs)) / 1e3
	m["inlog.msgs_per_fsync"] = ratio(d.counter("inlog_appends"), d.counter("inlog_fsyncs"))
	m["inlog.apply_lag_p50"] = p50(win.sampler.applyLag)
	m["inlog.trimmed_bytes"] = d.counter("inlog_trimmed_bytes")
	m["inlog.replayed"] = recs[0].replayed
	m["inlog.send_p50_us"] = p50(win.extra["send"]) / 1e3
	m["inlog.wait_applied_ms"] = recoveryMedian(recs, func(rc recovery) float64 { return rc.waitAppliedMs })

	m["process.allocs_per_op"] = float64(win.mem1.Mallocs-win.mem0.Mallocs) / ops
	m["process.gc_cycles"] = float64(win.mem1.NumGC - win.mem0.NumGC)
	m["process.gc_pause_ms"] = float64(win.mem1.PauseTotalNs-win.mem0.PauseTotalNs) / 1e6
	m["process.goroutines_max"] = float64(win.sampler.goroutines)

	m["loadgen.trace_overhead_pct"] = (ratio(float64(ref.ops)/ref.seconds, ops/win.seconds) - 1) * 100
	m["loadgen.span_coverage_pct"] = win.coverage * 100
}

// dipRatio is ops completed in 100 ms buckets that overlap a commit over ops
// in buckets that do not (1 = commits leave no visible dip). Partial buckets
// at the window's edges are left out.
func dipRatio(win *windowResult) float64 {
	var in, out, nIn, nOut float64
	for b := win.from/bucketNs + 1; b < win.to/bucketNs; b++ {
		lo, hi := b*bucketNs, (b+1)*bucketNs
		overlaps := false
		for _, c := range win.commits.spans {
			if c[0] < hi && c[1] > lo {
				overlaps = true
				break
			}
		}
		if overlaps {
			in += float64(win.buckets[b])
			nIn++
		} else {
			out += float64(win.buckets[b])
			nOut++
		}
	}
	return ratio(ratio(in, nIn), ratio(out, nOut))
}

// phaseDurations measures, from the CPR tracer's phase-transition events of
// the window's commits, how long each state machine stayed in each phase
// (ns, by phase name). Shards of a coordinated commit trace under
// <token>/s<i> and are followed separately.
func phaseDurations(win *windowResult) map[string][]float64 {
	out := make(map[string][]float64)
	type open struct {
		phase string
		at    int64
	}
	cur := make(map[string]open)
	for _, e := range win.timeline.Events {
		if e.Kind != obs.KindPhase {
			continue
		}
		if token, _, _ := strings.Cut(e.Token, "/"); !win.commits.tokens[token] {
			continue
		}
		if o, ok := cur[e.Token]; ok {
			out[o.phase] = append(out[o.phase], float64(e.AtNanos-o.at))
		}
		cur[e.Token] = open{e.Phase, e.AtNanos}
	}
	return out
}
