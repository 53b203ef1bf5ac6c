package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

func TestRecorderArtifactRoundTrip(t *testing.T) {
	t.Parallel()
	e, ok := Lookup("ablate-flush")
	if !ok {
		t.Fatal("ablate-flush not registered")
	}
	cfg := tinyCfg()
	cfg.Rec = NewRecorder(e, cfg)
	var buf bytes.Buffer
	if err := e.Run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	cfg.Rec.SetElapsed(1.5)
	path, err := cfg.Rec.WriteFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art Artifact
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if art.V != ArtifactSchemaV {
		t.Fatalf("schema version %d, want %d", art.V, ArtifactSchemaV)
	}
	if art.Experiment != "ablate-flush" || art.Title == "" || art.Paper == "" {
		t.Fatalf("artifact header incomplete: %+v", art)
	}
	if art.ElapsedSec != 1.5 {
		t.Fatalf("elapsed %v", art.ElapsedSec)
	}
	if len(art.Rows) != 4 { // one row per bandwidth point
		t.Fatalf("rows = %d, want 4", len(art.Rows))
	}
	for _, row := range art.Rows {
		if _, ok := row["commit_ms"]; !ok {
			t.Fatalf("row missing commit_ms: %v", row)
		}
	}
	if art.Params["threads"] == nil || art.Params["seconds"] == nil {
		t.Fatalf("params incomplete: %v", art.Params)
	}
}

// TestRecorderNilSafe checks experiments run identically with no recorder
// attached (cprbench -outdir ” and every pre-existing caller).
func TestRecorderNilSafe(t *testing.T) {
	t.Parallel()
	cfg := tinyCfg() // cfg.Rec == nil
	cfg.Record(Row{"x": 1})
	e, _ := Lookup("ablate-recovery")
	var buf bytes.Buffer
	if err := e.Run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}
