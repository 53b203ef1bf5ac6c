package obs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
)

// promName sanitizes a metric name for the Prometheus text exposition:
// [a-zA-Z0-9_:] survive, everything else becomes '_'.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP line's text per the exposition format: backslash
// and line feed are the only characters with escape sequences there.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes a label value per the exposition format: backslash,
// double quote, and line feed. The only label this package emits today is the
// numeric `le`, which never needs it, but every label value is routed through
// here so a future string-valued label cannot silently break the format.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// writePromHeader emits the optional `# HELP` line (escaped) followed by the
// mandatory `# TYPE` line, in that order — the spec requires HELP and TYPE to
// precede the metric's first sample, and convention puts HELP first.
func writePromHeader(w io.Writer, pn, help, typ string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", pn, escapeHelp(help)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", pn, typ)
	return err
}

// WritePrometheus renders a snapshot in the Prometheus text exposition format
// (version 0.0.4): counters and gauges as single samples, histograms as
// cumulative `_bucket{le="..."}` series plus `_sum` and `_count`, each
// preceded by its `# HELP` (when registered via SetHelp) and `# TYPE` lines.
// Output is sorted by metric name, so it is stable across calls.
func WritePrometheus(w io.Writer, s Snapshot) error {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		if err := writePromHeader(w, pn, s.Help[n], "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", pn, s.Counters[n]); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		if err := writePromHeader(w, pn, s.Help[n], "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", pn, s.Gauges[n]); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range s.Infos {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		if err := writePromHeader(w, pn, s.Help[n], "gauge"); err != nil {
			return err
		}
		labels := s.Infos[n]
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=\"%s\"", promName(k), escapeLabelValue(labels[k]))
		}
		if _, err := fmt.Fprintf(w, "%s{%s} 1\n", pn, b.String()); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := writePromHeader(w, promName(n), s.Help[n], "histogram"); err != nil {
			return err
		}
		if err := writePromHistogram(w, promName(n), s.Histograms[n]); err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram renders one histogram. Bucket i holds values in
// [2^(i-1), 2^i), so its inclusive Prometheus upper bound is 2^i - 1 (0 for
// bucket 0). Empty trailing buckets are elided; the mandatory +Inf bucket
// always carries the total count.
func writePromHistogram(w io.Writer, pn string, h HistogramSnapshot) error {
	var cum uint64
	last := -1
	for i, c := range h.Buckets {
		if c != 0 {
			last = i
		}
	}
	for i := 0; i <= last; i++ {
		cum += h.Buckets[i]
		ub := uint64(0)
		if i > 0 {
			ub = uint64(1)<<uint(i) - 1
		}
		le := escapeLabelValue(strconv.FormatUint(ub, 10))
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", pn, le, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		pn, h.Count, pn, h.SumNanos, pn, h.Count)
	return err
}

// PrometheusHandler serves the registry in the Prometheus text exposition
// format.
func PrometheusHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, r.Snapshot()) //nolint:errcheck // best-effort: the client went away
	})
}

// NewDebugMux returns the mux a server mounts on its debug listener: what the
// kvserver wire does not carry.
//
//	/metrics.prom   the registry in Prometheus text exposition format
//	/debug/pprof/*  the standard Go profiler endpoints
//
// Everything else — the registry snapshot, the health verdict, the flight
// recorder, the retained traces — is one STATS, FLIGHT and TRACE exchange
// away (fasterctl why).
func NewDebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics.prom", PrometheusHandler(reg))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
