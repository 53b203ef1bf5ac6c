// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Sec. 7 and App. E). Each experiment has
// an ID matching DESIGN.md's experiment index (fig2, fig10a, ... fig18d) and
// prints the same rows/series the paper reports, at a laptop scale chosen so
// the shape of the results — who wins, by what factor, where crossovers
// fall — reproduces; absolute numbers differ from the paper's testbed.
package bench

import (
	"io"
	"runtime"
	"sort"
)

// Config is the shared experiment configuration.
type Config struct {
	// Threads is the maximum thread count (sweeps go 1,2,4,... up to it).
	// Defaults to GOMAXPROCS.
	Threads int
	// Seconds is the measured duration per data point (default 1.0).
	Seconds float64
	// Scale multiplies key-space sizes (default 1.0 = laptop scale).
	Scale float64
	// TimePoints compresses the paper's long time-series runs: a paper
	// minute becomes this many seconds (default 1.0).
	TimePoints float64
	// Rec, when non-nil, collects the experiment's structured rows for the
	// BENCH_<exp>.json artifact (see record.go). Nil drops them.
	Rec *Recorder
}

func (c *Config) fill() {
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.Seconds <= 0 {
		c.Seconds = 1.0
	}
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.TimePoints <= 0 {
		c.TimePoints = 1.0
	}
}

// Experiment is one reproducible figure or table.
type Experiment struct {
	ID    string
	Title string
	Paper string // which figure/table of the paper this regenerates
	Run   func(cfg Config, w io.Writer) error
	// Shape, when set, is the "what must hold" cell of DESIGN.md's experiment
	// index as a predicate over the run's recorded rows: nil if the figure has
	// the paper's shape, the reason if not. The rows arrive as JSON decodes
	// them (every number a float64, a series a []any), so one predicate reads
	// a live run and a committed artifact. It is set only where the shape
	// shows at default scale on a 2-core host (EXPERIMENTS gives each margin);
	// shapes that need more cores (thread scaling) are left nil. See
	// Recorder.CheckShape.
	Shape func(rows []Row) error
}

var registry = map[string]Experiment{}

// register adds e to the registry. Config's defaults are applied here, once,
// so no runner sees a zero thread count or duration.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment " + e.ID)
	}
	run := e.Run
	e.Run = func(cfg Config, w io.Writer) error {
		cfg.fill()
		return run(cfg, w)
	}
	registry[e.ID] = e
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every registered experiment, sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// threadSweep returns 1,2,4,...,max (always including max).
func threadSweep(max int) []int {
	var out []int
	for t := 1; t < max; t *= 2 {
		out = append(out, t)
	}
	return append(out, max)
}

func scaled(base int, scale float64) int { return max(1, int(float64(base)*scale)) }
