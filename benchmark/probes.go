package main

import (
	"encoding/binary"
	"runtime"
	"sync"
	"time"

	"repro/internal/epoch"
	"repro/internal/hashfn"
	"repro/internal/hlog"
	"repro/internal/inlog"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Probes (source P of the per-layer metrics) replay the workload's own
// generated inputs — stream 0, from its first entry — straight into one
// layer's public functions, after the traced window. They cost a layer in
// isolation, which no span around a whole session call can.

const (
	probeInputs      = streamLen      // inputs replayed into the cheap layers
	probeInputsHeavy = streamLen >> 2 // ... and into the ones that move memory
	// inlog.Append on RAM segments costs tens of µs on the seed (MemDevice
	// reallocates the whole segment on every growing write), so that probe
	// gets fewer inputs to stay within about a second.
	probeInputsAppend = streamLen >> 6
	costRounds        = 3 // obs cost probe: interleaved rounds, best of each side
	costRoundLen      = 300 * time.Millisecond
	costKeys          = 100_000
	wireProbeLen      = 500 * time.Millisecond
)

var probeSink uint64 // keeps probe results alive

// perInput times fn over n stream inputs and returns ns per input.
func (r *run) perInput(n int, fn func(key []byte, k uint32)) float64 {
	var kb [8]byte
	s := r.streams[0]
	t0 := now()
	for i := 1; i <= n; i++ {
		k := s.keyAt(uint64(i))
		putKey(kb[:], k)
		fn(kb[:], k)
	}
	return float64(now()-t0) / float64(n)
}

func (r *run) probes(m map[string]float64, win *windowResult) {
	m["loadgen.clock_ns"] = r.perInput(probeInputs, func([]byte, uint32) { probeSink += uint64(now() - now()) })
	m["hashfn.hash64_ns"] = r.perInput(probeInputs, func(key []byte, _ uint32) { probeSink += hashfn.Hash64(key) })

	em := epoch.New()
	g := em.Acquire()
	m["epoch.refresh_ns"] = r.perInput(probeInputs, func([]byte, uint32) { g.Refresh() })
	g.Release()
	m["epoch.bump_drain_us"] = probeBumpDrain()

	m["hlog.alloc_write_ns"] = r.probeAllocWrite()

	blob := make([]byte, 64<<10)
	for i := 0; i+8 <= len(blob); i += 8 {
		binary.LittleEndian.PutUint64(blob[i:], uint64(r.streams[0].ops[i/8]))
	}
	const envelopeIters = 256
	t0 := now()
	for i := 0; i < envelopeIters; i++ {
		out, err := storage.DecodeArtifact(storage.EncodeArtifact(blob))
		if err != nil || len(out) != len(blob) {
			r.fail("artifact envelope round trip: %v", err)
		}
	}
	m["storage.envelope_ns_per_kib"] = float64(now()-t0) / envelopeIters / 64

	reg := obs.NewRegistry()
	ctr, hist := reg.Counter("probe_counter"), reg.Histogram("probe_hist")
	flight := obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	m["obs.counter_inc_ns"] = r.perInput(probeInputs, func([]byte, uint32) { ctr.Inc() })
	m["obs.hist_observe_ns"] = r.perInput(probeInputs, func(_ []byte, k uint32) { hist.ObserveValue(uint64(k)) })
	m["obs.flight_emit_ns"] = r.perInput(probeInputs, func(_ []byte, k uint32) {
		flight.Emit(obs.FlightPhase, 0, 1, "ckpt-000001", "", uint64(k), 0)
	})
	m["obs.metrics_cost_pct"], m["obs.flight_cost_pct"] = r.probeObsCost()

	var enc []byte
	one := []byte{1, 0, 0, 0, 0, 0, 0, 0}
	m["inlog.message_codec_ns"] = r.perInput(probeInputsHeavy, func(key []byte, _ uint32) {
		enc = inlog.EncodeMessage(enc[:0], inlog.Message{Op: inlog.OpRMW, Key: key, Value: one})
		msg, err := inlog.DecodeMessage(enc)
		if err != nil {
			r.fail("message codec: %v", err)
		}
		probeSink += uint64(len(msg.Key))
	})
	m["inlog.append_ns"] = r.probeAppend()

	m["kvserver.wire_ratio"] = 0
	if r.w.kind == kindNetBatch || r.w.kind == kindNetRTT {
		w := r.w
		w.kind = kindInproc
		inproc, err := r.subRate(w, r.streams, wireProbeLen)
		if err != nil {
			r.fail("wire-ratio probe: %v", err)
		}
		m["kvserver.wire_ratio"] = ratio(inproc[0], float64(win.ops)/win.seconds)
	}
}

// probeBumpDrain: BumpEpoch(fn) until fn ran, with two other guards
// refreshing (median, µs).
func probeBumpDrain() float64 {
	em := epoch.New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		g := em.Acquire()
		go func() {
			defer wg.Done()
			defer g.Release()
			for {
				select {
				case <-stop:
					return
				default:
					g.Refresh()
					runtime.Gosched()
				}
			}
		}()
	}
	const iters = 512
	samples := make([]float64, 0, iters)
	for i := 0; i < iters; i++ {
		ran := make(chan struct{})
		t0 := now()
		em.BumpEpoch(func() { close(ran) })
		<-ran
		samples = append(samples, float64(now()-t0))
	}
	close(stop)
	wg.Wait()
	return median(samples) / 1e3
}

// probeAllocWrite: Allocate + WriteRecord of the workload's record size on a
// bare Log (16 one-MiB frames over a RAM device, so the log also flushes and
// evicts as it grows), ns per record.
func (r *run) probeAllocWrite() float64 {
	em := epoch.New()
	l, err := hlog.New(hlog.Config{PageBits: 20, MemPages: 16, Device: &ramDevice{}, Epochs: em})
	if err != nil {
		r.fail("hlog probe: %v", err)
		return 0
	}
	defer l.Close()
	g := em.Acquire()
	defer g.Release()
	val := make([]byte, r.w.valueSize)
	size := hlog.RecordSize(8, len(val))
	i := 0
	return r.perInput(probeInputsHeavy, func(key []byte, _ uint32) {
		addr := l.Allocate(g, size)
		if err := l.WriteRecord(addr, 0, 1, key, val, len(val)); err != nil {
			r.fail("hlog probe: %v", err)
		}
		if i++; i%opBatch == 0 {
			g.Refresh()
		}
	})
}

// probeAppend: Log.Append of one encoded message, fsync policy manual, RAM
// segments, ns per record.
func (r *run) probeAppend() float64 {
	lg, err := inlog.Open(inlog.Config{Segments: inlog.NewMemSegmentStore(), Fsync: inlog.FsyncManual})
	if err != nil {
		r.fail("inlog probe: %v", err)
		return 0
	}
	defer lg.Close() //nolint:errcheck // RAM-backed; nothing to lose
	var enc []byte
	one := []byte{1, 0, 0, 0, 0, 0, 0, 0}
	return r.perInput(probeInputsAppend, func(key []byte, _ uint32) {
		enc = inlog.EncodeMessage(enc[:0], inlog.Message{Op: inlog.OpRMW, Key: key, Value: one})
		if _, err := lg.Append(enc); err != nil {
			r.fail("inlog probe: %v", err)
		}
	})
}

// subRate sets up one more store for workload w per variant of its spec, runs
// the streams against each for d — interleaved, `rounds` times when there is
// more than one variant — without commits, and returns each variant's best
// ops/s.
func (r *run) subRate(w workload, streams []*stream, d time.Duration, variants ...func(*storeSpec)) ([]float64, error) {
	if len(variants) == 0 {
		variants = []func(*storeSpec){func(*storeSpec) {}}
	}
	subs := make([]*run, len(variants))
	defer func() {
		for _, s := range subs {
			if s != nil {
				s.teardown()
			}
		}
	}()
	for i, v := range variants {
		sw := w
		v(&sw.store)
		subs[i] = &run{cfg: r.cfg, w: sw, tmp: r.tmp, streams: streams}
		if _, err := subs[i].setup(); err != nil {
			return nil, err
		}
	}
	rounds := 1
	if len(variants) > 1 {
		rounds = costRounds
	}
	best := make([]float64, len(variants))
	for round := 0; round < rounds; round++ {
		for i, s := range subs {
			var ops uint64
			first, last := int64(1<<62), int64(0)
			for _, c := range s.b.drive(driveSpec{deadline: now() + int64(d)}) {
				ops += c.ops
				first, last = min(first, c.first), max(last, c.last)
				if c.failed > 0 {
					r.fail("probe run on %s: %d ops failed", w.name, c.failed)
				}
			}
			best[i] = max(best[i], float64(ops)/(float64(last-first)/1e9))
		}
	}
	return best, nil
}

// probeObsCost: the mem-zipf-rmw stream (one client, costKeys keys) against a
// store with the shipped instruments, one with a nop metrics registry and one
// without flight recorder; cost = what the instrument takes off the ops/s of
// the store that lacks it, in percent.
func (r *run) probeObsCost() (metrics, flight float64) {
	w := findWorkload("mem-zipf-rmw").scaled(r.cfg.smoke, 1)
	w.warmupOps = min(w.warmupOps, 1<<16)
	if !r.cfg.smoke {
		w.mix.keys, w.store.keys = costKeys, costKeys
	}
	streams := []*stream{genStream(r.cfg.seed, 0, 1, w.mix)}
	best, err := r.subRate(w, streams, costRoundLen,
		func(*storeSpec) {},
		func(s *storeSpec) { s.nopMetrics = true },
		func(s *storeSpec) { s.noFlight = true })
	if err != nil {
		r.fail("obs cost probe: %v", err)
		return 0, 0
	}
	return (1 - ratio(best[0], best[1])) * 100, (1 - ratio(best[0], best[2])) * 100
}
