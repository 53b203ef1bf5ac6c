package cpr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/health"
	"repro/internal/inlog"
	"repro/internal/kvserver"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/storage"
	"repro/internal/txdb"
)

// stack is every layer that registers metrics, opened together: a
// store served by kvserver, an ingestion log with its pump and ingest server,
// a replication primary and a replica, a health engine with an SLO, the fault
// injector, build and runtime info (all on the store's registry), and a txdb
// database. The replica and the database keep registries of their own.
type stack struct {
	store              *faster.Store
	reg, repReg, dbReg *obs.Registry
	engine             *health.Engine
	client             *kvserver.Client
	replica            *repl.Replica
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func openStack(t *testing.T) *stack {
	t.Helper()
	st := &stack{reg: obs.NewRegistry(), repReg: obs.NewRegistry(), dbReg: obs.NewRegistry()}
	obs.RegisterBuildInfo(st.reg)
	obs.RegisterRuntimeMetrics(st.reg)
	injector := storage.NewInjector(storage.FaultConfig{Seed: 1, Metrics: st.reg})
	storeCfg := func(reg *obs.Registry) faster.Config {
		return faster.Config{IndexBuckets: 1 << 10, PageBits: 14, MemPages: 16, Metrics: reg,
			Checkpoints: storage.NewMemCheckpointStore(),
			Device:      storage.NewFaultDevice(storage.NewMemDevice(), injector)}
	}
	var err error
	if st.store, err = faster.Open(storeCfg(st.reg)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.store.Close)

	srv := kvserver.NewServer(st.store)
	kvAddr := freeAddr(t)
	go srv.Serve(kvAddr) //nolint:errcheck
	t.Cleanup(srv.Close)
	waitFor(t, "kvserver", func() bool { return srv.Addr() != nil })
	if st.client, err = kvserver.Dial(kvAddr, ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.client.Close() })

	lg, err := inlog.Open(inlog.Config{Segments: inlog.NewMemSegmentStore(), Metrics: st.reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lg.Close() })
	pump, err := inlog.StartPump(inlog.PumpConfig{Log: lg, Store: st.store, Metrics: st.reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pump.Close)
	ingest := inlog.NewIngestServer(lg, st.reg, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ingest.Serve(ln) //nolint:errcheck
	t.Cleanup(ingest.Close)

	rsrv := repl.NewServer(st.store)
	replAddr := freeAddr(t)
	go rsrv.Serve(replAddr) //nolint:errcheck
	t.Cleanup(rsrv.Close)
	waitFor(t, "repl server", func() bool { return rsrv.Addr() != nil })
	if st.replica, err = repl.NewReplica(repl.Config{Upstream: replAddr, StoreConfig: storeCfg(st.repReg)}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.replica.Close(); st.replica.Store().Close() })

	st.engine = health.New(health.Config{Registry: st.reg, SLODurLag: time.Second})
	db, err := txdb.Open(txdb.Config{Records: 64, Metrics: st.dbReg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return st
}

// work runs ops and a commit through the server and waits for the replica to
// install it.
func (st *stack) work(t *testing.T) {
	t.Helper()
	for _, k := range []string{"a", "b", "c", "d"} {
		if _, err := st.client.Set([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.client.Commit(false); err != nil {
		t.Fatal(err)
	}
	v := st.store.Version() - 1
	waitFor(t, "replica install", func() bool { return st.replica.ReplStats().AppliedVersion >= v })
}

// names returns every metric name the snapshots hold.
func names(snaps ...obs.Snapshot) map[string]bool {
	out := map[string]bool{}
	for _, s := range snaps {
		for n := range s.Counters {
			out[n] = true
		}
		for n := range s.Gauges {
			out[n] = true
		}
		for n := range s.Histograms {
			out[n] = true
		}
		for n := range s.Infos {
			out[n] = true
		}
	}
	return out
}

// TestDetectorInputsRegistered: every metric name a built-in health detector
// reads — each string literal shaped like a metric name in detectors.go — is
// in a real stack's snapshots, sampled twice like the engine samples, so a
// renamed metric cannot blind a detector without this test failing.
func TestDetectorInputsRegistered(t *testing.T) {
	st := openStack(t)
	var have map[string]bool
	for i := 0; i < 2; i++ {
		st.work(t)
		have = names(st.reg.Snapshot(), st.repReg.Snapshot())
	}
	f, err := parser.ParseFile(token.NewFileSet(), "internal/health/detectors.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	metricName := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)
	var read []string
	for _, s := range stringLits(f) {
		if metricName.MatchString(s) {
			read = append(read, s)
		}
	}
	if len(read) < 15 {
		t.Fatalf("found only %d metric names in detectors.go: %v", len(read), read)
	}
	for _, name := range read {
		if !have[name] {
			t.Errorf("a built-in detector reads %s, which no layer registers", name)
		}
	}
}

// TestMetricCatalogue: README's catalogue table and the registries of the
// whole stack name the same set — every registered name is documented and
// every documented name is registered. Brace groups expand, and <detector>
// stands for each built-in detector.
func TestMetricCatalogue(t *testing.T) {
	st := openStack(t)
	st.work(t)
	st.engine.Tick()
	registered := names(st.reg.Snapshot(), st.repReg.Snapshot(), st.dbReg.Snapshot())

	var detectors []string
	for _, d := range st.engine.Verdict().Detectors {
		detectors = append(detectors, strings.ReplaceAll(d.Name, "-", "_"))
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| Prefix | Source | Names |\n")
	if !ok {
		t.Fatal("README has no metric catalogue table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	documented := map[string]bool{}
	quoted := regexp.MustCompile("`([^`]+)`")
	for _, row := range strings.Split(table, "\n")[1:] {
		cells := strings.Split(row, "|")
		if len(cells) < 4 {
			t.Fatalf("catalogue row %q has no Names column", row)
		}
		for _, m := range quoted.FindAllStringSubmatch(cells[3], -1) {
			for _, n := range expand(m[1]) {
				if n, ok := strings.CutSuffix(n, "<detector>"); ok {
					for _, d := range detectors {
						documented[n+d] = true
					}
					continue
				}
				documented[n] = true
			}
		}
	}
	diff := func(a, b map[string]bool) (out []string) {
		for n := range a {
			if !b[n] {
				out = append(out, n)
			}
		}
		sort.Strings(out)
		return out
	}
	if missing := diff(registered, documented); len(missing) > 0 {
		t.Errorf("registered but not in README's catalogue: %v", missing)
	}
	if stale := diff(documented, registered); len(stale) > 0 {
		t.Errorf("in README's catalogue but registered by nothing: %v", stale)
	}
}

// readByAPI are the registered names whose reader is not a name in another
// file but an API that returns their handles' values.
var readByAPI = map[string]string{
	"txdb_txns_committed_total":       "txdb.DB.Stats",
	"txdb_txns_conflict_aborts_total": "txdb.DB.Stats",
	"txdb_txns_cpr_aborts_total":      "txdb.DB.Stats",
	"txdb_exec_ns_total":              "txdb.DB.Stats",
	"txdb_tail_ns_total":              "txdb.DB.Stats",
	"txdb_log_write_ns_total":         "txdb.DB.Stats",
	"txdb_abort_ns_total":             "txdb.DB.Stats",
	"txdb_instr_samples_total":        "txdb.DB.Stats",
}

// goFiles parses every .go file under the repository root that keep selects,
// skipping dot directories (build caches).
func goFiles(t *testing.T, keep func(path string) bool) map[string]*ast.File {
	t.Helper()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || !keep(path) {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		files[path] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// stringLits returns the values of every string literal in f.
func stringLits(f *ast.File) []string {
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				out = append(out, s)
			}
		}
		return true
	})
	return out
}

// TestEveryMetricHasAReader: every metric name the program registers — the
// first argument of a Counter, Gauge, Histogram, GaugeFunc or Info call in
// non-test Go — is named by some other Go file: a health detector, the
// benchmark, a runner under internal/bench, a command, another package or a
// test. A registration whose name is a literal prefix plus a computed part
// (a family, such as faster_health_firing_<detector>) is read when another
// file names any member. An instrument without a consumer is not kept.
func TestEveryMetricHasAReader(t *testing.T) {
	metricName := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+_?$`)
	registers := map[string]bool{"Counter": true, "Gauge": true, "Histogram": true, "GaugeFunc": true, "Info": true}
	program := goFiles(t, func(path string) bool {
		return !strings.HasSuffix(path, "_test.go") && !strings.HasPrefix(path, "benchmark"+string(filepath.Separator))
	})
	type registration struct{ file, name string }
	var regs []registration
	families := map[string]bool{}
	for path, f := range program {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !registers[sel.Sel.Name] {
				return true
			}
			arg := call.Args[0]
			family := false
			if bin, ok := arg.(*ast.BinaryExpr); ok && bin.Op == token.ADD {
				arg, family = bin.X, true
			}
			lit, ok := arg.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if s, err := strconv.Unquote(lit.Value); err == nil && metricName.MatchString(s) {
				regs = append(regs, registration{path, s})
				families[s] = family
			}
			return true
		})
	}
	if len(regs) < 50 {
		t.Fatalf("found only %d metric registrations", len(regs))
	}
	lits := map[string][]string{}
	// This file names the exempt names; it reads none.
	for path, f := range goFiles(t, func(path string) bool { return path != "observability_test.go" }) {
		lits[path] = stringLits(f)
	}
	var unread []string
	for _, r := range regs {
		if readByAPI[r.name] != "" {
			continue
		}
		names := func(s string) bool { return s == r.name || families[r.name] && strings.HasPrefix(s, r.name) }
		read := false
		for path, ss := range lits {
			read = read || path != r.file && slices.ContainsFunc(ss, names)
		}
		if !read {
			unread = append(unread, r.name+" ("+filepath.ToSlash(r.file)+")")
		}
	}
	sort.Strings(unread)
	if len(unread) > 0 {
		t.Errorf("%d registered metric names are named by no other Go file: %v", len(unread), unread)
	}
}

// expand spells out the brace groups of a catalogue entry:
// "a_{b,c}_d" is a_b_d and a_c_d.
func expand(s string) []string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return []string{s}
	}
	end := open + strings.IndexByte(s[open:], '}')
	var out []string
	for _, alt := range strings.Split(s[open+1:end], ",") {
		out = append(out, expand(s[:open]+alt+s[end+1:])...)
	}
	return out
}
