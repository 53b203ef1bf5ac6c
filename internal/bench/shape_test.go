package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
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
	// dipRow is a row the ruler read: mops outside and inside the commit
	// spans, and the in-progress phase's mops (fig14 reads it).
	dipRow := func(fields string, out, in, inProgress float64) string {
		sec := 0.14
		if in == 0 {
			sec = 0
		}
		return fmt.Sprintf(`{%s,"dip":{"outside":{"mops":%g,"sec":3.8},"inside":{"mops":%g,"sec":%g},
			"phases":{"in-progress":{"mops":%g,"sec":0.0001}}}}`, fields, out, in, sec, inProgress)
	}
	fasterDips := func(foZ, foU, snZ, snU float64) string {
		return "[" + dipRow(`"kind":"fold-over","dist":"zipf"`, 3.57, foZ, 0) + "," +
			dipRow(`"kind":"fold-over","dist":"uniform"`, 3.11, foU, 0) + "," +
			dipRow(`"kind":"snapshot","dist":"zipf"`, 2.58, snZ, 0) + "," +
			dipRow(`"kind":"snapshot","dist":"uniform"`, 2.92, snU, 0) + "]"
	}
	txdbDips := func(cprIn float64) string {
		return "[" + dipRow(`"label":"CPR 50:50","engine":"CPR"`, 1.95, cprIn, 0) + "," +
			dipRow(`"label":"CALC 50:50","engine":"CALC"`, 2.03, 1.77, 0) + "," +
			dipRow(`"label":"WAL 50:50","engine":"WAL"`, 1.30, 0, 0) + "]"
	}
	// transferDips: fine keeps 0.8 of its throughput in in-progress in each
	// of the four runs, coarse 0.14 in three and the given share in the last;
	// without coarse, only the fine rows.
	transferDips := func(coarseRMWUniform float64, coarse bool) string {
		var rows []string
		for _, op := range []string{"blind", "RMW"} {
			for _, dist := range []string{"zipf", "uniform"} {
				f := `"op":"` + op + `","transfer":"%s","dist":"` + dist + `"`
				rows = append(rows, dipRow(fmt.Sprintf(f, "fine"), 2.8, 2.0, 0.8*2.8))
				if !coarse {
					continue
				}
				share := 0.14
				if op == "RMW" && dist == "uniform" {
					share = coarseRMWUniform
				}
				rows = append(rows, dipRow(fmt.Sprintf(f, "coarse"), 2.8, 1.0, share*2.8))
			}
		}
		return "[" + strings.Join(rows, ",") + "]"
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
		{"fig12d", "snapshot log above fold-over", logRows("38.49", "59.81", "40.00", "41.00"), "snapshot zipf grew 21.69 MiB, not below 0.5 of fold-over zipf's 20.18 MiB"},
		{"fig12d", "snapshot log grows like fold-over", logRows("38.49", "59.81", "36.10", "58.00"), "snapshot zipf grew 17.79 MiB, not below 0.5 of fold-over zipf's 20.18 MiB"},
		{"fig18d", "recorded", logRows("47.34", "90.46", "23.34", "27.75"), ""},
		{"fig18d", "zipf log above uniform", logRows("47.34", "45.00", "23.34", "27.75"), "fold-over zipf grew 29.03 MiB, not below 1 of fold-over uniform's 26.69 MiB"},
		{"fig18d", "a series missing", `[{"kind":"fold-over","dist":"zipf","series":{}}]`, "no log_mib series"},
		{"fig12b", "recorded", fasterDips(2.38, 2.02, 1.98, 1.94), ""},
		{"fig12b", "stop-the-world commit", fasterDips(2.38, 2.02, 0.31, 1.94), "snapshot zipf: 0.310 inside the commit spans, below half of 2.580"},
		{"fig18b", "no commit span", fasterDips(2.38, 0, 1.98, 1.94), "fold-over uniform: no commit span"},
		{"fig11a", "recorded, WAL has no span", txdbDips(1.64), ""},
		{"fig11a", "stop-the-world commit", txdbDips(0.9), "CPR 50:50: 0.900 inside the commit spans, below half of 1.950"},
		{"fig14", "recorded", transferDips(0.7, true), ""},
		{"fig14", "coarse as fine", transferDips(1.5, true), "in in-progress coarse keeps 1.92 of its throughput summed over its runs, fine 3.20"},
		{"fig14", "no coarse rows", transferDips(0, false), "4 fine and 0 coarse runs, want 4 of each"},
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

// TestDipRuler reads a synthetic run against a synthetic timeline: samples
// every 10 ns, a commit whose span starts inside a sample interval, a second
// commit back to back with it, and the same run with no commit.
func TestDipRuler(t *testing.T) {
	// Interval ops: 100, 100, 60 (straddles the first span's start at 25),
	// 40 (first commit), 40 (second commit), 100.
	r := run{samples: []sample{{0, 0, 0}, {10, 100, 0}, {20, 200, 0}, {30, 260, 0},
		{40, 300, 0}, {50, 340, 0}, {60, 440, 0}}}
	r.lats = []latSample{{5, 100}, {26, 300}, {41, 500}, {55, 100}, {58, 200}}
	tl := obs.Timeline{Spans: []obs.PhaseSpan{
		{Phase: "rest", StartNanos: 0, EndNanos: 25},
		{Phase: "prepare", Token: "c1", StartNanos: 25, EndNanos: 27},
		{Phase: "wait-flush", Token: "c1", StartNanos: 27, EndNanos: 40},
		{Phase: "prepare", Token: "c2", StartNanos: 40, EndNanos: 42},
		{Phase: "wait-flush", Token: "c2", StartNanos: 42, EndNanos: 50},
		{Phase: "rest", Token: "c2", StartNanos: 50, EndNanos: 60, Open: true},
	}}
	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	d := r.readDip(tl)
	// Inside: half of the straddling 60 plus 40 and 40, over 5+10+10 ns.
	near("inside Mops", d.Inside.Mops, 110.0/25*1e3)
	near("outside Mops", d.Outside.Mops, 330.0/35*1e3)
	near("inside sec", d.Inside.Sec, 25e-9)
	near("inside p50", d.Inside.P50Us, 0.5)
	near("outside p50", d.Outside.P50Us, 0.1)
	if len(d.Commits) != 2 {
		t.Fatalf("%d commits, want 2", len(d.Commits))
	}
	near("first commit Mops", d.Commits[0].Mops, 70.0/15*1e3)
	near("second commit Mops", d.Commits[1].Mops, 40.0/10*1e3)
	// Prepare lies inside the straddling interval: two of its ten ns each time.
	near("prepare Mops", d.Phases["prepare"].Mops, (12.0+8)/4*1e3)
	near("prepare sec", d.Phases["prepare"].Sec, 4e-9)
	near("ratio", d.Ratio(), (110.0/25)/(330.0/35))

	none := r.readDip(obs.Timeline{Spans: tl.Spans[:1]})
	if none.Inside.Sec != 0 || none.Ratio() != 0 || len(none.Commits) != 0 {
		t.Fatalf("a run with no commit read %+v", none)
	}
	near("no-commit outside Mops", none.Outside.Mops, 440.0/60*1e3)
	near("no-commit outside p50", none.Outside.P50Us, 0.2)
}
