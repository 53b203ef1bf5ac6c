package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []gatedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type gatedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share of A's value by which B may be worse
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

func cmdCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	root, err := findRoot()
	var bf *benchmarkFile
	if err == nil {
		bf, err = loadBenchmarkFile(root)
	}
	var sets [2]runSet
	for i := 0; err == nil && i < 2; i++ {
		var buf []byte
		if buf, err = os.ReadFile(args[i]); err == nil {
			err = json.Unmarshal(buf, &sets[i])
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	if breaches := compareSets(os.Stdout, bf.EndToEnd, sets[0], sets[1]); breaches > 0 {
		fmt.Printf("%d breach(es)\n", breaches)
		return 1
	}
	return 0
}

// compareSets prints one row per (workload, end-to-end metric) with both
// values and the ratio B/A, and returns how many rows breach: B worse than A
// by more than the metric's bound, or the metric present on one side only.
// Each workload's first row is fail_ratio, failed ÷ attempted over its
// untraced and traced run together, with bound 0: a side whose run is
// missing, reported "correct": false or had a single failed op breaches.
// The time-based metrics follow without a verdict.
func compareSets(w io.Writer, gates []gatedMetric, a, b runSet) int {
	names := make(map[string]bool)
	for n := range a.Workloads {
		names[n] = true
	}
	for n := range b.Workloads {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	breaches := 0
	fmt.Fprintf(w, "%-18s %-16s %14s %14s %9s  %s\n", "workload", "metric", "A", "B", "B/A", "verdict")
	for _, wl := range sorted {
		fa, okA := a.Workloads[wl].failRatio()
		fb, okB := b.Workloads[wl].failRatio()
		verdict := "ok"
		if !okA || !okB {
			verdict = "BREACH: a run is missing, incorrect or had failed ops; bound 0"
			breaches++
		}
		fmt.Fprintf(w, "%-18s %-16s %14.6g %14.6g %9s  %s\n", wl, "fail_ratio", fa, fb, "-", verdict)
		ma, mb := a.Workloads[wl].EndToEnd.Metrics, b.Workloads[wl].EndToEnd.Metrics
		for _, g := range gates {
			va, okA := ma[g.Name]
			vb, okB := mb[g.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-18s %-16s %14s %14s %9s  BREACH: present on one side only\n",
					wl, g.Name, present(va, okA), present(vb, okB), "-")
				breaches++
				continue
			}
			worse := vb.Value/va.Value - 1 // share of A by which B is higher
			if g.Better == "higher" {
				worse = 1 - vb.Value/va.Value
			}
			verdict := "ok"
			if worse > g.Bound {
				verdict = fmt.Sprintf("BREACH: worse by %.1f%% of A, bound %.1f%%", worse*100, g.Bound*100)
				breaches++
			}
			fmt.Fprintf(w, "%-18s %-16s %14.6g %14.6g %9.4f  %s\n", wl, g.Name, va.Value, vb.Value, vb.Value/va.Value, verdict)
		}
		// The time-based metrics of the traced runs, for the reader: their
		// spread on a shared host is wider than any bound (README), so a
		// verdict on them takes paired runs, not two sets.
		ta, tb := a.Workloads[wl].PerLayer.Metrics, b.Workloads[wl].PerLayer.Metrics
		for _, d := range timed {
			if va, vb := ta[d.name], tb[d.name]; va.Value != 0 && vb.Value != 0 {
				fmt.Fprintf(w, "%-18s %-16s %14.6g %14.6g %9.4f  not bounded\n", wl, d.name, va.Value, vb.Value, vb.Value/va.Value)
			}
		}
	}
	return breaches
}

// failRatio is failed ÷ attempted over both runs of the workload; ok reports
// whether both ran, were correct and had no failed op.
func (ws workloadSet) failRatio() (ratio float64, ok bool) {
	var attempted, failed uint64
	ok = true
	for _, r := range []result{ws.EndToEnd, ws.PerLayer} {
		attempted += r.Attempted
		failed += r.Failed
		ok = ok && r.Correct && r.Attempted > 0 && r.Failed == 0
	}
	if attempted == 0 {
		return 1, false
	}
	return float64(failed) / float64(attempted), ok
}

func present(v metricValue, ok bool) string {
	if !ok {
		return "absent"
	}
	return fmt.Sprintf("%.6g", v.Value)
}
