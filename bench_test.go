package cpr

// bench_test.go runs every experiment of the harness as a testing.B
// sub-benchmark at a tiny scale (see cmd/cprbench for full-scale runs and
// EXPERIMENTS.md for recorded results):
//
//	go test -run NONE -bench 'Experiments/fig12d'
//
// Per-iteration metrics are the experiment's wall time; the printed rows are
// discarded. The list is bench.All(), the one DESIGN.md's index is held to.

import (
	"io"
	"testing"

	"repro/internal/bench"
)

func BenchmarkExperiments(b *testing.B) {
	cfg := bench.Config{Threads: 2, Seconds: 0.05, Scale: 0.02, TimePoints: 0.05}
	for _, e := range bench.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Run(cfg, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
