// Command cprbench regenerates the paper's tables and figures. Run with
// -list to see every experiment, or -exp <id>[,<id>...] to run a subset:
//
//	go run ./cmd/cprbench -list
//	go run ./cmd/cprbench -exp fig2 -threads 8 -seconds 2
//	go run ./cmd/cprbench -exp all -scale 0.5
//
// Output prints the same rows/series the paper reports, at laptop scale;
// EXPERIMENTS.md records a reference run against the paper's numbers. Each
// experiment additionally writes a machine-readable BENCH_<id>.json artifact
// (schema v1: experiment, params, rows, elapsed, shape) to -outdir. Where an
// experiment has a shape predicate (DESIGN.md's "what must hold" column) it is
// evaluated after the run, and cprbench exits 1 if one does not hold.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiments and exit")
		exp     = flag.String("exp", "", "comma-separated experiment IDs, or 'all'")
		threads = flag.Int("threads", 0, "max threads (default GOMAXPROCS)")
		seconds = flag.Float64("seconds", 1.0, "measured seconds per data point")
		scale   = flag.Float64("scale", 1.0, "key-space scale factor")
		tp      = flag.Float64("timepoints", 1.0, "time-series compression (1.0 = 4s runs)")
		outdir  = flag.String("outdir", ".", "directory for BENCH_<id>.json artifacts ('' disables)")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range bench.All() {
			fmt.Printf("  %-8s %-10s %s\n", e.ID, "("+e.Paper+")", e.Title)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun with -exp <id>[,<id>...] or -exp all")
		}
		return
	}

	cfg := bench.Config{Threads: *threads, Seconds: *seconds, Scale: *scale, TimePoints: *tp}
	var ids []string
	if *exp == "all" {
		for _, e := range bench.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}
	shapesHold := true
	for _, id := range ids {
		e, ok := bench.Lookup(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(1)
		}
		fmt.Printf("== %s: %s (%s) ==\n", e.ID, e.Title, e.Paper)
		cfg.Rec = bench.NewRecorder(e, cfg)
		start := time.Now()
		if err := e.Run(cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		elapsed := time.Since(start).Seconds()
		cfg.Rec.SetElapsed(elapsed)
		// The verdict goes into the artifact before the exit code reports it,
		// and the remaining experiments still run.
		if err := cfg.Rec.CheckShape(e); err != nil {
			fmt.Fprintf(os.Stderr, "%s: shape does not hold: %v\n", e.ID, err)
			shapesHold = false
		} else if e.Shape != nil {
			fmt.Printf("-- shape: ok --\n")
		}
		if *outdir != "" {
			path, err := cfg.Rec.WriteFile(*outdir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: artifact: %v\n", e.ID, err)
				os.Exit(1)
			}
			fmt.Printf("-- artifact: %s --\n", path)
		}
		fmt.Printf("-- %s done in %.1fs --\n\n", e.ID, elapsed)
	}
	if !shapesHold {
		os.Exit(1)
	}
}
