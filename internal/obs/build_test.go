package obs

import (
	"strings"
	"testing"
)

func TestInfoMetric(t *testing.T) {
	r := NewRegistry()
	r.Info("faster_build_info", map[string]string{"version": "v1.2", "go": "go1.22"})
	snap := r.Snapshot()
	labels := snap.Infos["faster_build_info"]
	if labels["version"] != "v1.2" || labels["go"] != "go1.22" {
		t.Fatalf("info labels = %v", labels)
	}

	// The snapshot holds a copy: mutating the caller's map later is invisible.
	m := map[string]string{"k": "v1"}
	r.Info("mut_info", m)
	m["k"] = "v2"
	if got := r.Snapshot().Infos["mut_info"]["k"]; got != "v1" {
		t.Fatalf("info label mutated after registration: %q", got)
	}
}

func TestInfoPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	r.Info("faster_build_info", map[string]string{
		"version": "v1.2",
		"note":    "has \"quotes\" and\nnewline",
	})
	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# TYPE faster_build_info gauge") {
		t.Fatalf("missing TYPE header:\n%s", out)
	}
	// Labels are sorted, values escaped, the sample value is the constant 1.
	if !strings.Contains(out, `faster_build_info{note="has \"quotes\" and\nnewline",version="v1.2"} 1`) {
		t.Fatalf("info sample not rendered in exposition format:\n%s", out)
	}
}

func TestRegisterBuildInfo(t *testing.T) {
	r := NewRegistry()
	RegisterBuildInfo(r)
	labels := r.Snapshot().Infos["faster_build_info"]
	if labels == nil {
		t.Fatal("faster_build_info not registered")
	}
	for _, k := range []string{"version", "go"} {
		if labels[k] == "" {
			t.Errorf("label %q empty: %v", k, labels)
		}
	}
}

func TestRegisterRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	snap := r.Snapshot()
	if g := snap.Gauges["go_goroutines"]; g < 1 {
		t.Errorf("go_goroutines = %d, want >= 1", g)
	}
	if g := snap.Gauges["go_heap_alloc_bytes"]; g <= 0 {
		t.Errorf("go_heap_alloc_bytes = %d, want > 0", g)
	}
	if g := snap.Gauges["go_heap_sys_bytes"]; g <= 0 {
		t.Errorf("go_heap_sys_bytes = %d, want > 0", g)
	}
	if _, ok := snap.Gauges["go_gc_cycles_total"]; !ok {
		t.Error("go_gc_cycles_total not registered")
	}
	if g, ok := snap.Gauges["faster_uptime_seconds"]; !ok || g < 0 {
		t.Errorf("faster_uptime_seconds = %d (present=%v)", g, ok)
	}
}
