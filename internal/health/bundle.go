package health

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime/pprof"

	"repro/internal/obs"
)

// bundleVersion versions the incident bundle's JSON payload.
const bundleVersion = 1

// Bundle is the evidence captured at the moment a detector fires: the full
// metrics snapshot, the flight-recorder dump, the slowest trace span trees,
// and goroutine + heap profiles — everything a postmortem needs, frozen at
// the instant of the stall rather than reconstructed after the fact. It is
// written as a CRC-enveloped incident-<detector>-<seq> artifact through the
// checkpoint store and decoded by `fasterctl incident`.
type Bundle struct {
	V        int    `json:"v"`
	Detector string `json:"detector"`
	Detail   string `json:"detail,omitempty"`
	// Seq is the process-wide incident sequence (artifact name suffix).
	Seq               uint64 `json:"seq"`
	CapturedUnixNanos int64  `json:"captured_unix_ns"`
	// Verdict is the full health verdict at capture time (the firing
	// detector plus everything else that was degraded alongside it).
	Verdict Verdict `json:"verdict"`
	// Metrics is the complete registry snapshot at capture time.
	Metrics obs.Snapshot `json:"metrics"`
	// Flight is the flight-recorder dump (nil when no recorder is wired).
	Flight *obs.FlightDump `json:"flight,omitempty"`
	// Traces holds the slowest retained request traces (nil when no tracer
	// is wired).
	Traces *obs.TraceDump `json:"traces,omitempty"`
	// GoroutineProfile and HeapProfile are pprof text dumps (debug=1).
	GoroutineProfile string `json:"goroutine_profile,omitempty"`
	HeapProfile      string `json:"heap_profile,omitempty"`
}

// bundleTraceCount bounds how many slowest traces a bundle retains.
const bundleTraceCount = 8

// buildBundle assembles a Bundle for a just-fired detector from the sample
// that tripped it.
func (e *Engine) buildBundle(ds *detState, cur Sample, seq uint64) *Bundle {
	b := &Bundle{
		V:                 bundleVersion,
		Detector:          ds.det.Name,
		Detail:            ds.detail,
		Seq:               seq,
		CapturedUnixNanos: cur.At,
		Verdict:           e.verdictLocked(cur.At),
		Metrics:           cur.Snap,
	}
	if e.cfg.Flight != nil {
		fd := e.cfg.Flight.Dump()
		b.Flight = &fd
	}
	if e.cfg.Traces != nil {
		td := e.cfg.Traces.Dump(bundleTraceCount, e.cfg.Flight)
		b.Traces = &td
	}
	b.GoroutineProfile = pprofText("goroutine")
	b.HeapProfile = pprofText("heap")
	return b
}

// pprofText renders a named pprof profile in its debug=1 text form ("" if
// the profile does not exist).
func pprofText(name string) string {
	p := pprof.Lookup(name)
	if p == nil {
		return ""
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 1); err != nil {
		return ""
	}
	return buf.String()
}

// DecodeBundle parses an incident bundle's JSON payload (the artifact body
// after the CRC envelope has been stripped by storage.DecodeArtifact).
func DecodeBundle(payload []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(payload, &b); err != nil {
		return nil, fmt.Errorf("health: malformed incident bundle: %w", err)
	}
	if b.V != bundleVersion {
		return nil, fmt.Errorf("health: incident bundle version %d, want %d", b.V, bundleVersion)
	}
	return &b, nil
}
