package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// writeJSON marshals v (indented, stable key order) to w.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort: the client went away
}

// MetricsHandler serves the registry as an expvar-style JSON document.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, r.Snapshot())
	})
}

// TimelineHandler serves the phase timeline as JSON.
func TimelineHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, t.Timeline())
	})
}

// FlightHandler serves the flight recorder's merged event timeline as a JSON
// FlightDump. An optional ?token=<commit> query filters to one commit's
// events (token containment, so artifact names match too).
func FlightHandler(f *FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		d := f.Dump()
		d.Events = FilterFlightEvents(d.Events, req.URL.Query().Get("token"))
		writeJSON(w, d)
	})
}

// TraceHandler serves the request tracer's retained slow-request span trees
// as a JSON TraceDump. An optional ?n=<count> query bounds the trace count
// (default 16, 0 = everything retained). Its global spans are read from fr.
func TraceHandler(rt *RequestTracer, fr *FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n := 16
		if q := req.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil {
				n = v
			}
		}
		writeJSON(w, rt.Dump(n, fr))
	})
}

// NewDebugMux returns the live-introspection mux mounted by servers that opt
// in to a debug listener:
//
//	/metrics        registry snapshot (expvar-style JSON)
//	/metrics.prom   the same registry in Prometheus text exposition format
//	/timeline       CPR phase timeline (events + spans), computed from the flight recorder
//	/flight         flight-recorder timeline (?token=<commit> filters)
//	/trace          slow-request span trees (?n=<count> bounds)
//	/debug/pprof/*  the standard Go profiler endpoints
//
// fr and rt may be nil (the corresponding endpoints then report empty
// timelines). The mux holds no locks between requests; every response is a
// fresh snapshot.
func NewDebugMux(reg *Registry, tr *Tracer, fr *FlightRecorder, rt *RequestTracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(reg))
	mux.Handle("/metrics.prom", PrometheusHandler(reg))
	mux.Handle("/timeline", TimelineHandler(tr))
	mux.Handle("/flight", FlightHandler(fr))
	mux.Handle("/trace", TraceHandler(rt, fr))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
