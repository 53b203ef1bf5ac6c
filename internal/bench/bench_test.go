package bench

import (
	"bytes"
	"io"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/faster"
	"repro/internal/txdb"
	"repro/internal/ycsb"
)

// tinyCfg is a smoke-test configuration: every experiment must run end to
// end in well under a second of measured time.
func tinyCfg() Config {
	return Config{Threads: 2, Seconds: 0.05, Scale: 0.005, TimePoints: 0.05}
}

// designIndexIDs parses the ID column of DESIGN.md's "Experiment index" table,
// expanding a range cell such as fig16a–e into fig16a ... fig16e.
func designIndexIDs(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Experiment index")
	if !ok {
		t.Fatal(`DESIGN.md has no "## Experiment index" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var ids []string
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		id := strings.TrimSpace(cells[1])
		if id == "ID" || strings.HasPrefix(id, "---") {
			continue
		}
		first, last, isRange := strings.Cut(id, "–")
		if !isRange {
			ids = append(ids, id)
			continue
		}
		stem, from := first[:len(first)-1], first[len(first)-1]
		for c := from; c <= last[0]; c++ {
			ids = append(ids, stem+string(c))
		}
	}
	return ids
}

// TestRegistryMatchesDesignIndex holds the one list of experiments to one
// place: a row of DESIGN.md's index without a runner fails, and so does a
// runner without a row.
func TestRegistryMatchesDesignIndex(t *testing.T) {
	indexed := map[string]bool{}
	for _, id := range designIndexIDs(t) {
		if indexed[id] {
			t.Errorf("DESIGN.md's index lists %s twice", id)
		}
		indexed[id] = true
		if _, ok := Lookup(id); !ok {
			t.Errorf("DESIGN.md's index lists %s, which no runner registers", id)
		}
	}
	for _, e := range All() {
		if !indexed[e.ID] {
			t.Errorf("experiment %s is registered but has no row in DESIGN.md's index", e.ID)
		}
	}
}

// TestAllExperimentsSmoke runs every registered experiment end to end at
// tiny scale. The runs are bounded by the wall clock, not by work, so they
// run eight at a time; each experiment's subtest reports its error. Shapes
// are not read here — a 4 000-key run beside seven others has none — but
// on the committed default-scale artifacts (shape_test.go).
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke-running every experiment is slow; run without -short")
	}
	t.Parallel()
	exps := All()
	errs := make([]error, len(exps))
	sem := make(chan struct{}, 8)
	var wg sync.WaitGroup
	for i, e := range exps {
		wg.Add(1)
		go func(i int, e Experiment) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = e.Run(tinyCfg(), io.Discard)
		}(i, e)
	}
	wg.Wait()
	for i, e := range exps {
		t.Run(e.ID, func(t *testing.T) {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
		})
	}
}

func TestRunTxdbBasics(t *testing.T) {
	t.Parallel()
	spec := ycsb.TxnSpec{Keys: 1000, TxnSize: 1, ReadFraction: 0.5, Theta: 0.1}
	res, err := RunTxdb(TxdbParams{
		Engine: txdb.EngineCPR, Threads: 2, ValueSize: 8, Seconds: 0.1,
		Records: 1000,
		Source:  func(w int) func() *txdb.Txn { return ycsbTxns(spec, 8, uint64(w)+1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mtps <= 0 {
		t.Fatalf("throughput = %v", res.Mtps)
	}
	if res.AvgLatencyUs <= 0 {
		t.Fatalf("latency = %v", res.AvgLatencyUs)
	}
}

func TestRunTxdbWithCommits(t *testing.T) {
	t.Parallel()
	spec := ycsb.TxnSpec{Keys: 1000, TxnSize: 1, ReadFraction: 0.5, Theta: 0.1}
	res, err := RunTxdb(TxdbParams{
		Engine: txdb.EngineCPR, Threads: 2, ValueSize: 8, Seconds: 1.0,
		Records:  1000,
		CommitAt: []float64{0.2, 0.7},
		Source:   func(w int) func() *txdb.Txn { return ycsbTxns(spec, 8, uint64(w)+1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// A mark is skipped when the previous commit is still in flight, so at
	// least one of the two well-separated marks must land.
	if res.CommitCount < 1 {
		t.Fatalf("commits = %d, want >= 1", res.CommitCount)
	}
	// The database's flight recorder gives the ruler its commit spans.
	if len(res.Dip.Commits) != res.CommitCount || res.Dip.Inside.Sec <= 0 {
		t.Fatalf("%d commits, ruler read %d spans over %.3fs", res.CommitCount, len(res.Dip.Commits), res.Dip.Inside.Sec)
	}
}

func TestRunFasterBasics(t *testing.T) {
	t.Parallel()
	sum, err := RunFaster(FasterParams{
		Threads: 2, Keys: 2000, ReadFrac: 0.5,
		Seconds: 0.2, CommitAt: []float64{0.1}, WithIndex: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Mops <= 0 {
		t.Fatalf("throughput = %v", sum.Mops)
	}
	if len(sum.Commits) != 1 {
		t.Fatalf("commits completed = %d, want 1", len(sum.Commits))
	}
	if len(sum.Series.T) == 0 {
		t.Fatal("no time series")
	}
	// The runner's store has a flight recorder, so the ruler sees the
	// commit's span and its phases.
	if len(sum.Dip.Commits) != 1 {
		t.Fatalf("ruler read %d commit spans, want 1", len(sum.Dip.Commits))
	}
	for _, phase := range []string{"prepare", "in-progress", "wait-flush"} {
		if _, ok := sum.Dip.Phases[phase]; !ok {
			t.Fatalf("phases = %v, want a %s span", sum.Dip.Phases, phase)
		}
	}
}

func TestRunFasterRMWAndTransfers(t *testing.T) {
	t.Parallel()
	for _, tr := range []faster.VersionTransfer{faster.FineGrained, faster.CoarseGrained} {
		sum, err := RunFaster(FasterParams{
			Threads: 2, Keys: 1000, ReadFrac: 0, RMW: true,
			Zipf: true, Transfer: tr, Seconds: 0.2, CommitAt: []float64{0.1},
		})
		if err != nil {
			t.Fatalf("%v: %v", tr, err)
		}
		if sum.Mops <= 0 {
			t.Fatalf("%v: no throughput", tr)
		}
		if len(sum.Commits) != 1 {
			t.Fatalf("%v: commit did not complete", tr)
		}
	}
}

func TestEndToEndRunner(t *testing.T) {
	t.Parallel()
	cfg := tinyCfg()
	mops, _, err := runEndToEnd(cfg, 31, true)
	if err != nil {
		t.Fatal(err)
	}
	if mops <= 0 {
		t.Fatal("no throughput in end-to-end runner")
	}
}

func TestThreadSweep(t *testing.T) {
	got := threadSweep(8)
	want := []int{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("sweep = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sweep = %v, want %v", got, want)
		}
	}
	if s := threadSweep(6); s[len(s)-1] != 6 {
		t.Fatalf("sweep(6) = %v must end at 6", s)
	}
}

func TestExperimentOutputShape(t *testing.T) {
	t.Parallel()
	// fig11e must produce one row per transaction size.
	e, _ := Lookup("fig11e")
	var buf bytes.Buffer
	if err := e.Run(tinyCfg(), &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 { // header + 5 sizes
		t.Fatalf("fig11e printed %d lines:\n%s", len(lines), buf.String())
	}
}
