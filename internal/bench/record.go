package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// ArtifactSchemaV is the BENCH_<exp>.json schema version; bump on any
// incompatible change so downstream tooling can reject artifacts it does not
// understand.
const ArtifactSchemaV = 1

// Row is one structured data point of an experiment — typically mirroring one
// printed table row, with machine-readable keys instead of column layout.
type Row = map[string]any

// Artifact is the machine-readable result of one experiment run, written next
// to the human-readable output as BENCH_<experiment>.json.
type Artifact struct {
	V          uint32         `json:"v"`
	Experiment string         `json:"experiment"`
	Title      string         `json:"title,omitempty"`
	Paper      string         `json:"paper,omitempty"`
	Params     map[string]any `json:"params"`
	Rows       []Row          `json:"rows"`
	ElapsedSec float64        `json:"elapsed_sec"`
	// Shape is "ok" or the reason the experiment's shape predicate gave;
	// absent when the experiment has none (Experiment.Shape).
	Shape string `json:"shape,omitempty"`
}

// Recorder accumulates an experiment's structured output. A nil *Recorder is
// valid and drops everything, so experiments record unconditionally.
type Recorder struct {
	mu  sync.Mutex
	art Artifact
}

// NewRecorder starts an artifact for one experiment.
func NewRecorder(e Experiment, cfg Config) *Recorder {
	cfg.fill() // the params record what the run uses, not the zero values
	return &Recorder{art: Artifact{
		V:          ArtifactSchemaV,
		Experiment: e.ID,
		Title:      e.Title,
		Paper:      e.Paper,
		Params: map[string]any{
			"threads":    cfg.Threads,
			"seconds":    cfg.Seconds,
			"scale":      cfg.Scale,
			"timepoints": cfg.TimePoints,
		},
	}}
}

// AddRow appends one structured data point.
func (r *Recorder) AddRow(row Row) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.art.Rows = append(r.art.Rows, row)
	r.mu.Unlock()
}

// SetElapsed stamps the run's wall-clock duration.
func (r *Recorder) SetElapsed(sec float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.art.ElapsedSec = sec
	r.mu.Unlock()
}

// CheckShape evaluates e's shape predicate over the rows recorded so far and
// stamps the artifact with the verdict. An experiment without one passes and
// leaves no stamp.
func (r *Recorder) CheckShape(e Experiment) error {
	if e.Shape == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var rows []Row
	buf, err := json.Marshal(r.art.Rows)
	if err == nil {
		err = json.Unmarshal(buf, &rows)
	}
	if err == nil {
		err = e.Shape(rows)
	}
	r.art.Shape = "ok"
	if err != nil {
		r.art.Shape = err.Error()
	}
	return err
}

// WriteFile writes BENCH_<experiment>.json under dir and returns its path.
func (r *Recorder) WriteFile(dir string) (string, error) {
	if r == nil {
		return "", fmt.Errorf("bench: nil recorder")
	}
	r.mu.Lock()
	if r.art.Rows == nil {
		r.art.Rows = []Row{} // an empty artifact still carries [] not null
	}
	buf, err := json.MarshalIndent(r.art, "", "  ")
	name := r.art.Experiment
	r.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	return path, os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Record appends a structured row to the experiment's artifact recorder, if
// one is attached; experiments call it next to each printed table row.
func (c Config) Record(row Row) { c.Rec.AddRow(row) }

// summaryRow flattens a FasterSummary into artifact fields: throughput,
// latency, the series and the ruler's reading.
func summaryRow(sum FasterSummary) Row {
	return Row{
		"mops":           sum.Mops,
		"avg_latency_us": sum.AvgLatencyUs,
		"commits":        len(sum.Commits),
		"series":         sum.Series,
		"dip":            sum.Dip,
	}
}
