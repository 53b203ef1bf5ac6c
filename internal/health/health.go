// Package health is the in-process consumer of the repository's
// observability primitives: an always-on engine that periodically samples
// the metrics registry, runs a suite of hysteresis-guarded stall/SLO
// detectors over consecutive sample pairs, and — when a detector fires —
// captures evidence at the moment it goes wrong as a rate-limited incident
// bundle (flight-recorder dump, slowest traces, full metrics snapshot,
// goroutine and heap profiles) written through the checkpoint store.
//
// The CPR design makes the interesting failure mode a *silent stall*, not a
// crash: a commit stuck in PREPARE, an fsync frontier that stops advancing,
// a restore sweeper that never finishes. Every built-in detector is a pure
// function over two registry snapshots (demand present, progress absent), so
// each is unit-testable against a synthesized registry with no running
// store.
package health

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// Sample is one observation of the process: a wall-clock instant plus a full
// registry snapshot. Detectors see consecutive pairs of these.
type Sample struct {
	// At is the sample's wall clock, UnixNano.
	At int64
	// Snap is the registry snapshot taken at At.
	Snap obs.Snapshot
}

// Detector is one health check evaluated over consecutive sample pairs.
// Check must be a pure function of (prev, cur): it reports whether the pair
// looks bad and a human-readable detail. Hysteresis (consecutive-sample
// thresholds before firing or clearing) is the engine's job, not Check's.
type Detector struct {
	// Name identifies the detector in verdicts, metric names, flight-event
	// tokens, and incident artifact names. Keep it short and kebab-case.
	Name string
	// Description says what the detector watches, for verdicts and runbooks.
	Description string
	// Critical detectors make the verdict "unhealthy" when firing;
	// non-critical ones only degrade it.
	Critical bool
	// Check inspects one consecutive sample pair.
	Check func(prev, cur Sample) (bad bool, detail string)
}

// Config configures an Engine. The zero value of every field except Registry
// is usable; Registry is required.
type Config struct {
	// Registry is the metrics registry to sample. Required.
	Registry *obs.Registry
	// Interval between samples for Start. Default 1s.
	Interval time.Duration
	// FireAfter is how many consecutive bad samples a detector needs before
	// it fires. Default 3.
	FireAfter int
	// ClearAfter is how many consecutive good samples a firing detector
	// needs before it clears. Default 2.
	ClearAfter int
	// SLODurLag is the durability-lag objective: the windowed p99 of
	// faster_session_lag_ns above this fires the slo-durlag-burn detector.
	// Zero disables the SLO detector.
	SLODurLag time.Duration
	// Bundles receives incident artifacts (incident-<detector>-<seq>). Nil
	// disables bundle capture; detectors still fire and the verdict still
	// degrades.
	Bundles storage.CheckpointStore
	// Flight, when set, is both dumped into incident bundles and used to
	// emit health-fire / health-clear events on detector transitions.
	Flight *obs.FlightRecorder
	// Traces, when set, contributes the slowest trace span trees to bundles.
	Traces *obs.RequestTracer
	// MinBundleInterval rate-limits bundle capture across all detectors
	// (a stalled system often trips several at once). Default 1m.
	MinBundleInterval time.Duration
	// OnIncident, when set, is called (from the sampling goroutine, after
	// the bundle is written) for every captured incident.
	OnIncident func(*Bundle)
	// Detectors are extra checks appended to the built-in suite.
	Detectors []Detector
}

// DetectorStatus is one detector's slot in a Verdict.
type DetectorStatus struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Critical    bool   `json:"critical,omitempty"`
	Firing      bool   `json:"firing"`
	// Detail is the latest bad-sample explanation; empty while healthy.
	Detail string `json:"detail,omitempty"`
	// BadStreak counts consecutive bad samples (resets on any good sample).
	BadStreak int `json:"bad_streak,omitempty"`
	// SinceUnixNanos is when the detector started firing (0 if not firing).
	SinceUnixNanos int64 `json:"since_unix_ns,omitempty"`
}

// SLOStatus reports the durability-lag objective's standing.
type SLOStatus struct {
	ObjectiveNanos uint64 `json:"objective_ns"`
	// WindowP99Nanos is the p99 of faster_session_lag_ns over the last
	// sampling window (obs.Snapshot.Sub's quantile of the window).
	WindowP99Nanos uint64 `json:"window_p99_ns"`
	// WindowObservations is how many lag observations the window held.
	WindowObservations uint64 `json:"window_observations"`
}

// Verdict is the machine-readable health state: "healthy",
// "degraded:<detectors>", or "unhealthy:<detectors>" (any critical detector
// firing). The token before the first ':' is the state proper.
type Verdict struct {
	State            string           `json:"state"`
	SampledUnixNanos int64            `json:"sampled_unix_ns"`
	Samples          uint64           `json:"samples"`
	Detectors        []DetectorStatus `json:"detectors"`
	SLO              *SLOStatus       `json:"slo,omitempty"`
}

// Healthy reports whether no detector is firing.
func (v *Verdict) Healthy() bool { return v != nil && v.State == "healthy" }

// detState is one detector plus its hysteresis counters.
type detState struct {
	det          Detector
	badStreak    int
	goodStreak   int
	firing       bool
	firedSamples uint64
	detail       string
	sinceNanos   int64
	gauge        *obs.Gauge
}

// Engine samples the registry and drives the detector suite. Create with
// New; drive with Start/Stop (a ticker goroutine) or Tick (manual, for
// tests and single-threaded embedding).
type Engine struct {
	cfg Config
	now func() int64 // seam for deterministic tests

	mu          sync.Mutex
	dets        []*detState
	prev        Sample
	havePrev    bool
	samples     uint64
	verdict     Verdict
	incidentSeq uint64
	lastBundle  int64
	started     bool
	stop        chan struct{}
	done        chan struct{}

	slo *sloState

	gState     *obs.Gauge
	gFiring    *obs.Gauge
	cSamples   *obs.Counter
	cIncidents *obs.Counter
}

// New builds an engine over cfg, registers the faster_health_* metrics on
// cfg.Registry, and evaluates nothing until ticked or started.
func New(cfg Config) *Engine {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.FireAfter <= 0 {
		cfg.FireAfter = 3
	}
	if cfg.ClearAfter <= 0 {
		cfg.ClearAfter = 2
	}
	if cfg.MinBundleInterval <= 0 {
		cfg.MinBundleInterval = time.Minute
	}
	e := &Engine{
		cfg: cfg,
		now: func() int64 { return time.Now().UnixNano() },
	}
	dets := builtinDetectors()
	if cfg.SLODurLag > 0 {
		e.slo = &sloState{objective: uint64(cfg.SLODurLag.Nanoseconds())}
		dets = append(dets, newSLODetector(e.slo))
	}
	dets = append(dets, cfg.Detectors...)
	reg := cfg.Registry
	for _, d := range dets {
		g := reg.Gauge("faster_health_firing_" + metricName(d.Name))
		reg.SetHelp("faster_health_firing_"+metricName(d.Name),
			"1 while the "+d.Name+" detector is firing. "+d.Description)
		e.dets = append(e.dets, &detState{det: d, gauge: g})
	}
	e.gState = reg.Gauge("faster_health_state")
	reg.SetHelp("faster_health_state", "Health verdict: 0 healthy, 1 degraded, 2 unhealthy.")
	e.gFiring = reg.Gauge("faster_health_detectors_firing")
	reg.SetHelp("faster_health_detectors_firing", "Detectors currently firing.")
	e.cSamples = reg.Counter("faster_health_samples_total")
	reg.SetHelp("faster_health_samples_total", "Health samples taken.")
	e.cIncidents = reg.Counter("faster_health_incidents_total")
	reg.SetHelp("faster_health_incidents_total", "Incident bundles captured.")
	if e.slo != nil {
		reg.GaugeFunc("faster_health_slo_durlag_p99_ns", e.slo.p99)
		reg.SetHelp("faster_health_slo_durlag_p99_ns",
			"Windowed p99 session durability lag (ns) tracked against the -slo-durlag objective.")
	}
	e.verdict = Verdict{State: "healthy"}
	return e
}

// metricName turns a kebab-case detector name into a metric-name fragment.
func metricName(name string) string { return strings.ReplaceAll(name, "-", "_") }

// Start launches the sampling goroutine at the configured interval. Safe to
// call once; use Stop to halt it.
func (e *Engine) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return
	}
	e.started = true
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	go e.loop(e.stop, e.done)
}

// Stop halts the sampling goroutine and waits for it to exit. No-op if not
// started.
func (e *Engine) Stop() {
	e.mu.Lock()
	if !e.started {
		e.mu.Unlock()
		return
	}
	stop, done := e.stop, e.done
	e.started = false
	e.mu.Unlock()
	close(stop)
	<-done
}

func (e *Engine) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(e.cfg.Interval)
	defer t.Stop()
	e.Tick()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			e.Tick()
		}
	}
}

// Tick takes one sample and evaluates every detector against the previous
// one. The first tick only establishes the baseline. Exported so tests and
// single-threaded embedders can drive the engine without the goroutine.
func (e *Engine) Tick() {
	cur := Sample{At: e.now(), Snap: e.cfg.Registry.Snapshot()}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.samples++
	e.cSamples.Inc()
	if !e.havePrev {
		e.prev, e.havePrev = cur, true
		e.verdict = e.verdictLocked(cur.At)
		e.setGaugesLocked()
		return
	}
	var fired, cleared []*detState
	for _, ds := range e.dets {
		bad, detail := ds.det.Check(e.prev, cur)
		if bad {
			ds.badStreak++
			ds.goodStreak = 0
			if detail != "" {
				ds.detail = detail
			}
			if !ds.firing && ds.badStreak >= e.cfg.FireAfter {
				ds.firing = true
				ds.sinceNanos = cur.At
				ds.firedSamples = 0
				ds.gauge.Set(1)
				fired = append(fired, ds)
			}
		} else {
			ds.goodStreak++
			ds.badStreak = 0
			if ds.firing && ds.goodStreak >= e.cfg.ClearAfter {
				ds.firing = false
				ds.gauge.Set(0)
				cleared = append(cleared, ds)
			}
		}
		if ds.firing {
			ds.firedSamples++
		}
	}
	e.prev = cur
	for _, ds := range cleared {
		if e.cfg.Flight != nil {
			e.cfg.Flight.Emit(obs.FlightHealthClear, -1, 0, ds.det.Name, "", ds.firedSamples, 0)
		}
		ds.detail = ""
		ds.sinceNanos = 0
		ds.firedSamples = 0
	}
	e.verdict = e.verdictLocked(cur.At)
	e.setGaugesLocked()
	for _, ds := range fired {
		seq := e.captureLocked(ds, cur)
		if e.cfg.Flight != nil {
			e.cfg.Flight.Emit(obs.FlightHealthFire, -1, 0, ds.det.Name, "", uint64(ds.badStreak), seq)
		}
	}
}

// verdictLocked assembles the verdict from current detector state.
func (e *Engine) verdictLocked(at int64) Verdict {
	v := Verdict{State: "healthy", SampledUnixNanos: at, Samples: e.samples}
	var critical, degraded []string
	for _, ds := range e.dets {
		v.Detectors = append(v.Detectors, DetectorStatus{
			Name:           ds.det.Name,
			Description:    ds.det.Description,
			Critical:       ds.det.Critical,
			Firing:         ds.firing,
			Detail:         ds.detail,
			BadStreak:      ds.badStreak,
			SinceUnixNanos: ds.sinceNanos,
		})
		if ds.firing {
			if ds.det.Critical {
				critical = append(critical, ds.det.Name)
			} else {
				degraded = append(degraded, ds.det.Name)
			}
		}
	}
	switch {
	case len(critical) > 0:
		v.State = "unhealthy:" + strings.Join(append(critical, degraded...), ",")
	case len(degraded) > 0:
		v.State = "degraded:" + strings.Join(degraded, ",")
	}
	if e.slo != nil {
		v.SLO = e.slo.status()
	}
	return v
}

// setGaugesLocked publishes the verdict to the faster_health_* gauges.
func (e *Engine) setGaugesLocked() {
	var firing, worst int64
	for _, ds := range e.dets {
		if !ds.firing {
			continue
		}
		firing++
		if ds.det.Critical {
			worst = 2
		} else if worst < 1 {
			worst = 1
		}
	}
	e.gState.Set(worst)
	e.gFiring.Set(firing)
}

// Verdict returns the verdict as of the last tick. Never nil; before the
// first tick it is "healthy" with zero samples.
func (e *Engine) Verdict() *Verdict {
	e.mu.Lock()
	defer e.mu.Unlock()
	v := e.verdict
	v.Detectors = append([]DetectorStatus(nil), e.verdict.Detectors...)
	return &v
}

// captureLocked writes an incident bundle for a just-fired detector, subject
// to the global rate limit. Returns the bundle's sequence number, 0 if no
// bundle was written (no store, or rate-limited).
func (e *Engine) captureLocked(ds *detState, cur Sample) uint64 {
	if e.cfg.Bundles == nil {
		return 0
	}
	if e.lastBundle != 0 && cur.At-e.lastBundle < e.cfg.MinBundleInterval.Nanoseconds() {
		return 0
	}
	e.incidentSeq++
	e.lastBundle = cur.At
	seq := e.incidentSeq
	b := e.buildBundle(ds, cur, seq)
	name := fmt.Sprintf("incident-%s-%d", ds.det.Name, seq)
	payload, err := json.Marshal(b)
	if err == nil {
		err = storage.WriteArtifactChecked(e.cfg.Bundles, name, payload)
	}
	if err != nil {
		// Evidence capture must never take the node down with it; the
		// detector still fires and the verdict still degrades.
		return 0
	}
	e.cIncidents.Inc()
	if e.cfg.OnIncident != nil {
		e.cfg.OnIncident(b)
	}
	return seq
}
