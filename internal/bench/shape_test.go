package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// shapeRows decodes rows the way an artifact holds them.
func shapeRows(t *testing.T, js string) []Row {
	t.Helper()
	var rows []Row
	if err := json.Unmarshal([]byte(js), &rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestShapePredicates gives each predicate rows of the recorded shape, which
// it must accept, and the same rows with one value edited to break it, for
// which it must name the reason.
func TestShapePredicates(t *testing.T) {
	logRows := func(foZ, foU, snZ, snU string) string {
		return `[{"kind":"fold-over","dist":"zipf","series":{"log_mib":[18.31,` + foZ + `]}},
			{"kind":"fold-over","dist":"uniform","series":{"log_mib":[18.31,` + foU + `]}},
			{"kind":"snapshot","dist":"zipf","series":{"log_mib":[18.31,` + snZ + `]}},
			{"kind":"snapshot","dist":"uniform","series":{"log_mib":[18.31,` + snU + `]}}]`
	}
	cases := []struct {
		exp, name, rows, reason string
	}{
		{"ablate-incr", "recorded", `[{"mode":"full","commit":1,"bytes":3200000,"delta":false},
			{"mode":"incremental","commit":1,"bytes":3200000,"delta":false},
			{"mode":"incremental","commit":2,"bytes":66600,"delta":true}]`, ""},
		{"ablate-incr", "delta as large as a full capture", `[{"mode":"full","commit":1,"bytes":3200000,"delta":false},
			{"mode":"incremental","commit":2,"bytes":66600,"delta":true},
			{"mode":"incremental","commit":3,"bytes":3200000,"delta":true}]`, "a delta commit wrote 3200000 bytes"},
		{"ablate-incr", "no delta commit", `[{"mode":"full","commit":1,"bytes":3200000,"delta":false}]`, "no delta commit"},
		{"ablate-flush", "recorded", `[{"bandwidth_mbps":0,"commit_ms":18},{"bandwidth_mbps":64,"commit_ms":75},
			{"bandwidth_mbps":16,"commit_ms":264},{"bandwidth_mbps":4,"commit_ms":1020}]`, ""},
		{"ablate-flush", "faster on the slower device", `[{"bandwidth_mbps":0,"commit_ms":18},{"bandwidth_mbps":64,"commit_ms":75},
			{"bandwidth_mbps":16,"commit_ms":60},{"bandwidth_mbps":4,"commit_ms":1020}]`, "60 ms at the next lower bandwidth 16"},
		{"ablate-recovery", "recorded", `[{"with_index":true,"recover_ms":18.3},{"with_index":false,"recover_ms":57.7}]`, ""},
		{"ablate-recovery", "fresh index slower", `[{"with_index":true,"recover_ms":60.1},{"with_index":false,"recover_ms":57.7}]`, "60.1 ms with a fresh index"},
		{"ablate-recovery", "one row", `[{"with_index":true,"recover_ms":18.3}]`, "need a with_index and a log-only row"},
		{"fig12d", "recorded", logRows("38.49", "59.81", "21.47", "26.56"), ""},
		{"fig12d", "snapshot log above fold-over", logRows("38.49", "59.81", "40.00", "41.00"), "snapshot zipf is 40.00 MiB, not below fold-over zipf"},
		{"fig18d", "recorded", logRows("47.34", "90.46", "23.34", "27.75"), ""},
		{"fig18d", "zipf log above uniform", logRows("47.34", "45.00", "23.34", "27.75"), "fold-over zipf is 47.34 MiB, not below fold-over uniform"},
		{"fig18d", "a series missing", `[{"kind":"fold-over","dist":"zipf","series":{}}]`, "no log_mib series"},
	}
	for _, c := range cases {
		t.Run(c.exp+"/"+c.name, func(t *testing.T) {
			e, _ := Lookup(c.exp)
			if e.Shape == nil {
				t.Fatalf("%s has no shape predicate", c.exp)
			}
			err := e.Shape(shapeRows(t, c.rows))
			switch {
			case c.reason == "" && err != nil:
				t.Fatalf("rejected the recorded shape: %v", err)
			case c.reason != "" && err == nil:
				t.Fatal("accepted rows that break the predicate")
			case c.reason != "" && !strings.Contains(err.Error(), c.reason):
				t.Fatalf("reason %q does not mention %q", err, c.reason)
			}
		})
	}
}

// TestCheckShapeStampsArtifact: the verdict a predicate gives over the live
// rows (ints, bools and []float64 as the runner recorded them) is what the
// artifact carries, and an experiment without a predicate carries none.
func TestCheckShapeStampsArtifact(t *testing.T) {
	stamp := func(id string, rows ...Row) (string, error) {
		e, _ := Lookup(id)
		rec := NewRecorder(e, Config{})
		for _, r := range rows {
			rec.AddRow(r)
		}
		err := rec.CheckShape(e)
		return rec.art.Shape, err
	}
	if got, err := stamp("ablate-recovery",
		Row{"with_index": true, "recover_ms": 18.3}, Row{"with_index": false, "recover_ms": 57.7}); err != nil || got != "ok" {
		t.Fatalf("holding shape stamped %q, err %v", got, err)
	}
	got, err := stamp("ablate-flush", Row{"bandwidth_mbps": int64(0), "commit_ms": 40.0}, Row{"bandwidth_mbps": int64(64), "commit_ms": 20.0})
	if err == nil || got != err.Error() {
		t.Fatalf("broken shape stamped %q, err %v", got, err)
	}
	if got, err := stamp("fig2", Row{"threads": 1}); err != nil || got != "" {
		t.Fatalf("experiment without a predicate stamped %q, err %v", got, err)
	}
}

// TestCommittedArtifactsHoldTheirShape re-evaluates every artifact under
// results/ against today's predicate: a committed BENCH_<id>.json says "ok"
// only while the predicate it was checked with still accepts its rows.
func TestCommittedArtifactsHoldTheirShape(t *testing.T) {
	paths, err := filepath.Glob("../../results/BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var art Artifact
		if err := json.Unmarshal(raw, &art); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		e, ok := Lookup(art.Experiment)
		if !ok {
			t.Errorf("%s: experiment %q has no runner, so the repo cannot regenerate it", path, art.Experiment)
			continue
		}
		if e.Shape == nil {
			continue
		}
		if art.Shape != "ok" {
			t.Errorf("%s: committed with shape %q", path, art.Shape)
		}
		if err := e.Shape(art.Rows); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}
