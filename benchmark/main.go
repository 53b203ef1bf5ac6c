// Command benchmark is the repository's performance ruler: five named
// workloads over the CPR stack (faster, kvserver, inlog, storage, hlog, epoch,
// hashfn, obs), each run as its own process, each checking its own outputs.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//	benchmark all [--seed N] [--seconds S] [--out FILE]        every workload, untraced then traced
//	benchmark compare A.json B.json                            gate B against A with BENCHMARK.json's bounds
//
// See README.md in this directory for what is measured and why.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "all":
			os.Exit(cmdAll(os.Args[2:]))
		case "compare":
			os.Exit(cmdCompare(os.Args[2:]))
		}
	}
	os.Exit(cmdRun(os.Args[1:]))
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var cfg runConfig
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, span recorder off; 1: per-layer metrics from a traced run plus probes")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes (20000 keys, 2000-op suffix): shape and correctness only")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0
	cfg.nproc = runtime.NumCPU()
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cfg.root = root
	d, err := runOne(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	d.print()
	if err := d.save(root); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(d.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !d.Result.Correct {
		return 1
	}
	return 0
}

// findRoot walks up from the working directory to the one holding
// BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}

// runOne carries one workload through one run and assembles its metrics.
// All file-backed state lives under one temporary directory that is removed
// on every path out.
func runOne(cfg runConfig) (*detail, error) {
	wl := findWorkload(cfg.workload)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	out := filepath.Join(cfg.root, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(out, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	r := &run{cfg: cfg, w: wl.scaled(cfg.smoke, cfg.nproc), tmp: tmp}
	defer r.teardown()
	d := &detail{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Smoke: cfg.smoke, Clients: r.w.clients,
		Host: readHostFacts(), Latency: make(map[string]summary), Phases: make(map[string]float64), Ungated: make(map[string]float64)}
	phase := now()
	lap := func(name string) { // wall time of the run's phases, for the README's budget
		d.Phases[name] = float64(now()-phase) / 1e9
		phase = now()
	}
	for c := 0; c < r.w.clients; c++ {
		s := genStream(cfg.seed, c, r.w.clients, r.w.mix)
		r.streams = append(r.streams, s)
		d.Streams = append(d.Streams, fmt.Sprintf("%016x", s.hash()))
	}
	if cfg.trace {
		r.bg = newRing(-1)
	}
	lap("generate")
	setups := make([]float64, 0, setupReps)
	s, err := r.setup()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, s)
	lap("setup")

	window := time.Duration(cfg.seconds * float64(time.Second))
	var ref, win *windowResult
	if cfg.trace {
		// Half the time untraced, half traced, on the same store: the
		// difference is the span recorder's overhead.
		ref = r.measure(window/2, false)
		win = r.measure(window/2, true)
	} else {
		win = r.measure(window, false)
	}
	lap("windows")
	recs, err := r.crashAndRecover()
	if err != nil {
		return nil, fmt.Errorf("crash and recovery: %w", err)
	}
	lap("crash_and_recover")

	values := make(map[string]float64)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		timeMetrics(values, ref, recs) // from the untraced half of the window
		r.layerMetrics(values, ref, win, recs)
		r.probes(values, win)
	} else {
		// The extra set-ups run after everything else was measured.
		for len(setups) < setupReps {
			runtime.GC() // start from a collected heap, as the first set-up did
			s, err := r.setup()
			r.teardown()
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, s)
		}
		values["setup_s"] = median(setups)
		// The clients tally the bytes they wrote for the whole window; the
		// streams cycle, so the mark's share of them is its share of the ops.
		mark := win.mark
		values["write_amp"] = float64(mark.written) / (float64(win.userBytes) * float64(mark.ops) / float64(win.ops))
		values["space_amp"] = float64(mark.stored) / float64(r.w.liveBytes())
		values["peak_rss_mb"] = mark.rssMiB
		timeMetrics(d.Ungated, win, recs)
	}
	lap("probes_or_extra_setups")

	d.Ops, d.Commits, d.Notes = win.ops, len(win.commits.spans), r.notes
	d.Latency["op"] = summarize(win.opLat)
	for k := range win.kind {
		if len(win.kind[k]) > 0 {
			d.Latency["Session."+opKind(k).String()] = summarize(win.kind[k])
		}
	}
	for name, v := range win.extra {
		d.Latency[name] = summarize(v)
	}
	d.Latency["commit"] = summarize(commitDurations(&win.commits))

	d.Result.Attempted = win.ops + 2*r.w.suffixOps
	d.Result.Failed = win.failed + r.fails
	if ref != nil {
		d.Result.Attempted += ref.ops
		d.Result.Failed += ref.failed
	}
	d.Result.Metrics, err = seal(defs, values)
	if err != nil {
		return nil, err
	}
	d.Result.Correct = d.Result.Failed == 0
	return d, nil
}

func commitDurations(cl *commitLog) []float64 {
	out := make([]float64, len(cl.spans))
	for i, s := range cl.spans {
		out[i] = float64(s[1] - s[0])
	}
	return out
}

func recoveryMedian(recs []recovery, f func(recovery) float64) float64 {
	v := make([]float64, len(recs))
	for i, r := range recs {
		v[i] = f(r)
	}
	return median(v)
}

// timeMetrics are the time-based numbers a user of the system sees. On a
// shared host their run-to-run spread exceeds any bound BENCHMARK.json may
// state (README, spread), so they are reported with the per-layer metrics,
// unbounded, and an untraced run prints them for information only.
func timeMetrics(m map[string]float64, win *windowResult, recs []recovery) {
	sl := win.slices()
	m["ops_per_s"] = median(sl.opsPerS)
	m["op_p50_us"] = median(sl.p50) / 1e3
	m["op_p99_us"] = median(sl.p99) / 1e3
	m["cpu_us_per_op"] = median(sl.cpuUsPerOp)
	m["commit_p50_ms"] = median(commitDurations(&win.commits)) / 1e6
	m["recover_ttfo_ms"] = recoveryMedian(recs, func(r recovery) float64 { return r.ttfoMs })
	m["recover_full_ms"] = recoveryMedian(recs, func(r recovery) float64 { return r.fullMs })
}
