package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// BENCHMARK.json is the contract later changes are judged by; the tables in
// metrics.go and workloads.go are what the program emits. They must agree.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their reasons differ)", i, bf.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d emitted", len(bf.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, d := range endToEnd {
		g := bf.EndToEnd[i]
		if g.Name != d.name || g.Unit != d.unit {
			t.Errorf("end-to-end %d: declared %s [%s], emitted %s [%s]", i, g.Name, g.Unit, d.name, d.unit)
		}
		if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) {
			t.Errorf("end-to-end %s [%s]: name or unit outside the allowed alphabet", g.Name, g.Unit)
		}
		if g.Better != "lower" && g.Better != "higher" {
			t.Errorf("%s: better = %q", g.Name, g.Better)
		}
		if g.Bound <= 0 || g.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", g.Name, g.Bound)
		}
		if g.Name == "setup_s" {
			sawSetup = g.Unit == "s" && g.Better == "lower"
		}
	}
	if !sawSetup {
		t.Error("setup_s [s, lower is better] must be an end-to-end metric")
	}
	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d emitted (cap 128)", len(bf.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	for i, d := range perLayer {
		g := bf.PerLayer[i]
		if g.Name != d.name || g.Unit != d.unit {
			t.Errorf("per-layer %d: declared %s [%s], emitted %s [%s]", i, g.Name, g.Unit, d.name, d.unit)
		}
		if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || seen[g.Name] {
			t.Errorf("per-layer %s [%s]: bad name or unit, or used twice", g.Name, g.Unit)
		}
		seen[g.Name] = true
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 || len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", bf.RunSeconds, bf.Paths)
	}
}

// The smoke runs are the CI hook: tiny sizes, a one-second window, and
// assertions on shape and correctness only — every declared metric emitted,
// nothing undeclared (runOne's seal insists on both), every check passing.
// They run as on a four-processor host, so mem-zipf-rmw has two clients
// whatever the host the test is on.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads end to end")
	}
	for _, wl := range []string{"mem-zipf-rmw", "ingest-batch"} {
		for _, trace := range []bool{false, true} {
			root := t.TempDir()
			d, err := runOne(runConfig{workload: wl, seed: 7, seconds: 1, trace: trace, smoke: true, nproc: 4, root: root})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(d.Result.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(d.Result.Metrics), len(want))
			}
			for _, def := range want {
				if m, ok := d.Result.Metrics[def.name]; !ok || m.Unit != def.unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q", wl, trace, def.name, m.Unit)
				}
			}
			if !d.Result.Correct || d.Result.Failed != 0 || d.Result.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v",
					wl, trace, d.Result.Correct, d.Result.Attempted, d.Result.Failed, d.Notes)
			}
			if !trace {
				for _, def := range endToEnd {
					if d.Result.Metrics[def.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, must never be 0", wl, def.name, d.Result.Metrics[def.name].Value)
					}
				}
			} else if _, err := os.Stat(filepath.Join(root, "benchmark", "out", "trace_"+wl+".json")); err != nil {
				t.Errorf("%s: traced run left no trace file: %v", wl, err)
			}
			// Hygiene: every file-backed store lived under one temp dir, gone now.
			left, _ := filepath.Glob(filepath.Join(root, "benchmark", "out", "tmp-*"))
			if len(left) != 0 {
				t.Errorf("%s trace=%v: scratch left behind: %v", wl, trace, left)
			}
		}
	}
}
