package txdb

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math/rand/v2"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// The oracle checks the database's promise (DESIGN "The database's oracle")
// under every engine: a seed draws workers, a committer and crash points;
// every crash image of the run is recovered and checked against the model at
// the recovered cut, then given a second life that commits and crashes, and
// that image is recovered and checked too.
//
// The model is written from the definitions. Worker w's n-th transaction
// writes the value w<<32|n to one or two of w's private keys and to every key
// of one shared group. A worker holds the group's mutex across the
// transaction, so the oracle knows the order each key was written in. A cut
// gives each worker a point: the transactions at or below their workers'
// points must come first in every key's order, and the key holds the last of
// them (0: none). For CPR and CALC the points are the recovered commit's
// Seqs; for WAL they are read off the recovered values and must cover what a
// Commit that returned before the crash covered.

// oraclePinned fail, 10 runs of 10, with a bug this database had put back
// (EXPERIMENTS "The database's oracle").
var oraclePinned = []struct {
	bug  string
	seed int64
}{
	{"wal-torn-transaction", 15},
	{"wal-dropped-group", 30},
	{"wal-log-restarts-at-zero", 35},
	{"cpr-shift-skips-stable-copy", 1},
	{"calc-shift-skips-stable-copy", 3},
	{"recovered-token-reused", 7},
}

// oracleSweepLen seeds, from oracleSweepFrom on, run after the pinned ones;
// each run of TestTxdbOracle takes the next block, so -count=n sweeps n
// blocks. A seed named in -run (TestTxdbOracle/seed=N) runs alone.
const oracleSweepFrom, oracleSweepLen = 100, 5

var (
	oracleSweepBlock int
	oracleSeedInRun  = regexp.MustCompile(`seed=(\d+)`)
)

func TestTxdbOracle(t *testing.T) {
	for _, p := range oraclePinned {
		t.Run(p.bug, func(t *testing.T) { runTxdbOracle(t, p.seed, p.bug) })
	}
	first := int64(oracleSweepFrom + oracleSweepBlock*oracleSweepLen)
	last := first + oracleSweepLen - 1
	oracleSweepBlock++
	if m := oracleSeedInRun.FindStringSubmatch(flag.Lookup("test.run").Value.String()); m != nil {
		first, _ = strconv.ParseInt(m[1], 10, 64)
		last = first
	}
	for seed := first; seed <= last; seed++ {
		name := fmt.Sprintf("seed=%d", seed)
		t.Run(name, func(t *testing.T) { runTxdbOracle(t, seed, name) })
	}
}

// txdbRun is one seed's draw. Seed n runs the engine n mod 5 names — WAL,
// CPR, CPR with Incremental, CALC, CALC with Incremental — so that any five
// seeds in a row run each once.
type txdbRun struct {
	engine                  EngineKind
	fullEvery               int // 0: not Incremental
	workers, txns           int // at least txns per worker
	private                 int // private keys per worker
	groups, groupSize       int
	commitGap               time.Duration
	faults                  bool     // transient errors and torn writes on the checkpoint store and the log's device
	outages                 bool     // WAL: some commits fail with the device, and the next one after it heals
	steps                   []uint64 // transactions after which an image is taken
	tears                   []uint64 // WAL: device writes torn into an image
	boundary, artifact, tok string   // CPR, CALC: an image before, torn in or after one artifact of commit tok
}

func drawTxdbRun(seed int64) txdbRun {
	r := rand.New(rand.NewPCG(uint64(seed), 0))
	o := txdbRun{
		engine:  []EngineKind{EngineWAL, EngineCPR, EngineCPR, EngineCALC, EngineCALC}[seed%5],
		workers: 2 + r.IntN(3), txns: 2000 + r.IntN(6000),
		private: 8 << r.IntN(4), groups: 1 + r.IntN(6), groupSize: 2 + r.IntN(3),
		commitGap: time.Duration(r.IntN(500)) * time.Microsecond,
		faults:    r.IntN(2) == 0, outages: r.IntN(2) == 0,
		boundary: []string{"before", "torn", "after"}[r.IntN(3)],
		artifact: []string{storage.RecordName(""), "data-"}[r.IntN(2)],
		tok:      fmt.Sprintf("ckpt-%06d", 1+r.IntN(8)),
	}
	if seed%5 == 2 || seed%5 == 4 {
		o.fullEvery = 2 + r.IntN(3)
	}
	for range 1 + r.IntN(3) {
		o.steps = append(o.steps, 1+r.Uint64N(uint64(o.workers*o.txns)))
	}
	for range 6 + r.IntN(5) {
		o.tears = append(o.tears, 1+r.Uint64N(30))
	}
	return o
}

func (o *txdbRun) config(cs storage.CheckpointStore, dev storage.Device, fr *obs.FlightRecorder) Config {
	return Config{Records: o.workers*o.private + o.groups*o.groupSize, Engine: o.engine, Checkpoints: cs,
		WALDevice: dev, Incremental: o.fullEvery > 0, FullEvery: o.fullEvery, Metrics: obs.NewNop(), Flight: fr}
}

// describe names the transaction that wrote v: w0#0 is none.
func describe(v uint64) string { return fmt.Sprintf("w%d#%d", v>>32, v&(1<<32-1)) }

// model is each key's writers, in the order they wrote it. A life's workers
// take the ids after the previous lives'; worker i of every life writes the
// first life's worker i's private keys.
type model [][]uint64

// inCut reports whether the transaction that wrote v is at or below its
// worker's point.
func inCut(v uint64, cut []uint64) bool {
	return v>>32 < uint64(len(cut)) && v&(1<<32-1) <= cut[v>>32]
}

// truncate is the model a recovery at cut leaves: each key keeps the writers
// in the cut, which a later life's follow.
func (m model) truncate(cut []uint64) model {
	t := make(model, len(m))
	for k, ws := range m {
		t[k] = slices.DeleteFunc(slices.Clone(ws), func(v uint64) bool { return !inCut(v, cut) })
	}
	return t
}

// check reads every key of db and checks it against the model at cut.
func (m model) check(db *DB, cut []uint64) (bad []string) {
	for k, ws := range m {
		in := 0
		for in < len(ws) && inCut(ws[in], cut) {
			in++
		}
		if j := slices.IndexFunc(ws[in:], func(v uint64) bool { return inCut(v, cut) }); j >= 0 {
			bad = append(bad, fmt.Sprintf("key %d: %s is in the cut, and %s, which wrote the key before it, is not", k, describe(ws[in+j]), describe(ws[in])))
		}
		want := uint64(0)
		if in > 0 {
			want = ws[in-1]
		}
		if got := readKey(db, uint64(k)); got != want {
			how := "a write the cut loses"
			if got != 0 && !inCut(got, cut) {
				how = "a write past the cut"
			}
			bad = append(bad, fmt.Sprintf("key %d holds %s (%s); the last write to it at or below the cut is %s", k, describe(got), how, describe(want)))
		}
	}
	return bad
}

// oracleWorker runs one worker's transactions, in the model's order.
type oracleWorker struct {
	w        *Worker
	id, own  int // the model's worker id; whose private keys it writes
	r        *rand.Rand
	m        model
	o        *txdbRun
	groupsMu []sync.Mutex
	txn      Txn
}

// run executes the worker's next transaction until it commits: one or two of
// its private keys, so that transactions differ in length, and one group.
func (ow *oracleWorker) run() {
	o, ops := ow.o, ow.txn.Ops[:0]
	for range 1 + ow.r.IntN(2) {
		if k := uint64(ow.own*o.private + ow.r.IntN(o.private)); len(ops) == 0 || ops[0].Key != k {
			ops = append(ops, Op{Key: k, Write: true})
		}
	}
	g := ow.r.IntN(o.groups)
	for i := range o.groupSize {
		ops = append(ops, Op{Key: uint64(o.workers*o.private + g*o.groupSize + i), Write: true})
	}
	v := uint64(ow.id)<<32 | (ow.w.Seq() + 1)
	ow.txn = Txn{Ops: ops, WriteValue: binary.LittleEndian.AppendUint64(ow.txn.WriteValue[:0], v)}
	ow.groupsMu[g].Lock()
	for _, op := range ops {
		ow.m[op.Key] = append(ow.m[op.Key], v)
	}
	for ow.w.Execute(&ow.txn) != Committed {
	}
	ow.groupsMu[g].Unlock()
}

// crashImage is what a killed process leaves: the checkpoint store cloned
// before the log's device. For WAL, bound is each worker's transactions that
// a Commit which returned before the crash covered, and tokens are those
// Commits' tokens.
type crashImage struct {
	at     string
	ckpts  *storage.MemCheckpointStore
	dev    *storage.MemDevice
	bound  []uint64
	tokens []string
}

func takeImage(at string, ckpts *storage.MemCheckpointStore, dev *storage.MemDevice, bound []uint64, tokens []string) crashImage {
	ck := ckpts.Clone() // first
	return crashImage{at: at, ckpts: ck, dev: dev.Clone(), bound: slices.Clone(bound), tokens: slices.Clone(tokens)}
}

func runTxdbOracle(t *testing.T, seed int64, name string) {
	o := drawTxdbRun(seed)
	memCk, memDev := storage.NewMemCheckpointStore(), storage.NewMemDevice()
	fc := storage.FaultConfig{Seed: uint64(seed)}
	if o.faults {
		fc.WriteErrorRate, fc.TornWriteRate = 0.01, 0.01
	}
	inj := storage.NewInjector(fc)
	var imgMu sync.Mutex
	var images []crashImage
	var bound []uint64     // under imgMu
	var walTokens []string // under imgMu
	imaging := true
	image := func(at string) {
		imgMu.Lock()
		if imaging {
			images = append(images, takeImage(at, memCk, memDev, bound, walTokens))
		}
		imgMu.Unlock()
	}
	for _, n := range o.tears { // only the log writes the device
		inj.ArmDeviceWrite(n, func() { image(fmt.Sprintf("device write %d torn", n)) })
	}
	point := o.boundary + ":" + o.artifact + o.tok // only CPR and CALC write artifacts
	inj.Arm(point, func() { image(point) })
	db := mustOpen(t, o.config(storage.NewFaultCheckpointStore(memCk, inj), storage.NewFaultDevice(memDev, inj), nil))
	defer db.Close()

	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	m := make(model, o.workers*o.private+o.groups*o.groupSize)
	groupsMu := make([]sync.Mutex, o.groups)
	workers := make([]*oracleWorker, o.workers)
	acked := make([]atomic.Uint64, o.workers)
	var steps, whole atomic.Uint64
	var running atomic.Int32
	var release atomic.Bool
	var wg sync.WaitGroup
	deadline := time.Now().Add(10 * time.Second)
	for i := range workers {
		ow := &oracleWorker{w: db.NewWorker(), id: i, own: i, m: m, o: &o, groupsMu: groupsMu,
			r: rand.New(rand.NewPCG(uint64(seed), uint64(i)+1))}
		workers[i] = ow
		running.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// At least o.txns transactions, and on until three commits have
			// returned whole, so that even a fast run has commits to recover.
			for n := 0; n < o.txns || whole.Load() < 3 && time.Now().Before(deadline); n++ {
				ow.run()
				acked[i].Store(ow.w.Seq())
				if step := steps.Add(1); slices.Contains(o.steps, step) {
					image(fmt.Sprintf("transaction %d", step))
				}
			}
			running.Add(-1)
			for !release.Load() { // every commit has every worker's point
				ow.w.Refresh()
				time.Sleep(20 * time.Microsecond)
			}
		}()
	}

	// The committer.
	committed := map[string]CommitResult{}
	r := rand.New(rand.NewPCG(uint64(seed), 1<<32))
	for running.Load() > 0 {
		outage := o.engine == EngineWAL && o.outages && r.IntN(3) == 0
		if outage { // a commit fails with the device; the next one, after it heals, is imaged
			inj.FailPermanently()
			db.Commit(nil) //nolint:errcheck // fails unless every append is durable
			inj.Heal()
		}
		snap := make([]uint64, o.workers)
		for i := range snap {
			snap[i] = acked[i].Load()
		}
		token, err := db.Commit(nil)
		if err == nil && o.engine == EngineWAL {
			imgMu.Lock()
			bound = snap
			walTokens = append(walTokens, token)
			imgMu.Unlock()
			whole.Add(1)
			if outage {
				image("a commit after an outage")
			}
		} else if err == nil {
			if res := db.WaitForCommit(token); res.Err == nil {
				committed[token] = res
				whole.Add(1)
			} else {
				err = res.Err
			}
		}
		if err != nil && !storage.IsTransient(err) {
			fail("commit: %v", err)
		}
		time.Sleep(time.Duration(r.Int64N(int64(o.commitGap) + 1)))
	}
	image("after the last transaction")
	imgMu.Lock()
	imaging = false
	imgMu.Unlock()
	release.Store(true)
	wg.Wait()
	final := make([]uint64, o.workers)
	for i, ow := range workers {
		ow.w.Close()
		final[i] = ow.w.Seq()
	}
	if whole.Load() < 3 {
		fail("%d commits returned whole in 10 s", whole.Load())
	}
	for _, p := range m.check(db, final) {
		fail("live: %s", p)
	}

	x := &oracleCheck{t: t, o: &o, seed: seed, m: m, workers: workers, committed: committed}
	for i, img := range images {
		for _, p := range x.check(i, img) {
			fail("image %d (%s): %s", i, img.at, p)
		}
	}
	t.Logf("%v (full capture every %d), %d workers x %v transactions, %d commits returned whole, %d crash images",
		o.engine, o.fullEvery, o.workers, final, whole.Load(), len(images))
	if len(problems) > 0 {
		t.Errorf("%d problems, the first:\n  %s\ndraw: %+v\nreplay: go test -run 'TestTxdbOracle/%s$' ./internal/txdb/",
			len(problems), strings.Join(problems[:min(len(problems), 12)], "\n  "), o, name)
	}
}

// oracleCheck holds what every image of a run is checked against.
type oracleCheck struct {
	t         *testing.T
	o         *txdbRun
	seed      int64
	m         model
	workers   []*oracleWorker
	committed map[string]CommitResult
}

// newestWhole is the image's commit tokens, newest first, and the newest
// whose record and every capture it names verify ("" if none), with the
// captures it names.
func newestWhole(cs storage.CheckpointStore) (tokens []string, want string, chain []string) {
	names, _ := cs.List()
	tokens, _ = storage.RecordTokens(names)
	for _, tok := range tokens {
		rec, err := readRecord(cs, tok)
		for _, c := range rec.Captures {
			if err == nil {
				_, err = storage.ReadArtifactChecked(cs, c)
			}
		}
		if err == nil {
			return tokens, tok, rec.Captures
		}
	}
	return tokens, "", nil
}

func readRecord(cs storage.CheckpointStore, token string) (rec dbRecord, err error) {
	buf, err := storage.ReadRecord(cs, token)
	if err == nil {
		err = json.Unmarshal(buf, &rec)
	}
	return rec, err
}

// damage removes, or flips a bit of, an artifact the newest commit of cs
// names, as r draws.
func damage(cs *storage.MemCheckpointStore, r *rand.Rand) string {
	tokens, _, _ := newestWhole(cs)
	if len(tokens) == 0 || r.IntN(2) == 0 {
		return ""
	}
	rec, _ := readRecord(cs, tokens[0])
	arts := append([]string{storage.RecordName(tokens[0])}, rec.Captures...)
	n := arts[r.IntN(len(arts))]
	raw, _ := storage.ReadArtifact(cs, n)
	if len(raw) == 0 || r.IntN(2) == 0 {
		cs.Remove(n) //nolint:errcheck // in-memory
		return "removed " + n
	}
	raw[r.IntN(len(raw))] ^= 1 << r.IntN(8)
	w, _ := cs.Create(n) // in memory, Create and Write do not fail
	w.Write(raw)         //nolint:errcheck
	w.Close()            //nolint:errcheck
	return "flipped a bit of " + n
}

// recover recovers a copy of img and checks the recovery: for CPR and CALC,
// that it took the newest whole commit at its version, falling back past the
// newer ones; for WAL, that it kept what a returned Commit covered. It returns
// the database (nil when there is none to go on with), its copy of the image
// and the recovered cut, by the ids of workers.
func (x *oracleCheck) recover(img crashImage, committed map[string]CommitResult, workers []*oracleWorker) (db *DB, cp crashImage, cut []uint64, bad []string) {
	tokens, want, _ := newestWhole(img.ckpts)
	cp = crashImage{ckpts: img.ckpts.Clone(), dev: img.dev.Clone()}
	fr := obs.NewFlightRecorder(1 << 10)
	db, err := Open(x.o.config(cp.ckpts, cp.dev, fr))
	if x.o.engine == EngineWAL && err == nil {
		// The points are read off the values: each worker's newest
		// transaction a key holds (a value no worker wrote fails check).
		cut = make([]uint64, len(workers))
		for k := range db.records {
			if v := readKey(db, uint64(k)); v>>32 < uint64(len(workers)) {
				cut[v>>32] = max(cut[v>>32], v&(1<<32-1))
			}
		}
		for w, b := range img.bound {
			if cut[w] < b {
				bad = append(bad, fmt.Sprintf("worker %d recovers to transaction %d; a Commit that returned before the crash covered %d", w, cut[w], b))
			}
		}
		return db, cp, cut, bad
	}
	// Only a store without a record starts fresh.
	res, ok := committed[want]
	fresh := len(tokens) == 0
	switch {
	case err != nil && (want != "" || fresh || x.o.engine == EngineWAL):
		bad = append(bad, fmt.Sprintf("recovery: %v; want %s", err, cmp.Or(want, "a fresh start")))
	case err == nil && want == "" && !fresh:
		bad = append(bad, fmt.Sprintf("no whole commit among %v, and Open started fresh", tokens))
	case want != "" && !ok:
		bad = append(bad, fmt.Sprintf("the image's newest whole commit %s is no commit the committer saw succeed", want))
	}
	if err == nil && !ok && !fresh {
		db.Close()
	}
	if err != nil || !ok && !fresh {
		return nil, cp, nil, bad
	}
	if fresh {
		if db.Version() != 1 {
			bad = append(bad, fmt.Sprintf("started fresh at version %d", db.Version()))
		}
		return db, cp, make([]uint64, len(workers)), bad
	}
	if db.Version() != res.Version+1 {
		bad = append(bad, fmt.Sprintf("recovered at version %d; the newest whole commit %s is version %d", db.Version(), want, res.Version))
	}
	evs, _ := fr.Events()
	var skipped []string
	for _, e := range evs {
		if e.Kind == obs.FlightRecoverFallback {
			skipped = append(skipped, e.Token)
		}
	}
	if skip := tokens[:slices.Index(tokens, want)]; !slices.Equal(skipped, skip) {
		bad = append(bad, fmt.Sprintf("recovery fell back past %v; the commits newer than %s are %v", skipped, want, skip))
	}
	cut = make([]uint64, len(workers))
	for i, ow := range workers {
		if ow != nil {
			cut[i] = res.Seqs[ow.w]
		}
	}
	return db, cp, cut, bad
}

// check damages img as the seed draws, recovers it and checks it against the
// model at the recovered cut; then gives the database a second life that
// writes, commits, writes past the commit and crashes, and checks that image
// against the model the first recovery left, followed by the second life.
func (x *oracleCheck) check(i int, img crashImage) (bad []string) {
	r := rand.New(rand.NewPCG(uint64(x.seed), 1<<35+uint64(i)))
	img.ckpts = img.ckpts.Clone()
	if what := damage(img.ckpts, r); what != "" {
		img.at += ", " + what
	}
	names, _ := img.ckpts.List()
	_, _, chain := newestWhole(img.ckpts)
	db, cp, cut, bad := x.recover(img, x.committed, x.workers)
	if db == nil {
		return bad
	}
	bad = append(bad, x.m.check(db, cut)...)

	// The second life: as many workers, with the next ids.
	m2 := x.m.truncate(cut)
	w1 := len(cut)
	ids := make([]*oracleWorker, w1+x.o.workers)
	groupsMu := make([]sync.Mutex, x.o.groups)
	second, live := ids[w1:], make([]*Worker, x.o.workers)
	for j := range second {
		second[j] = &oracleWorker{w: db.NewWorker(), id: w1 + j, own: j, m: m2, o: x.o, groupsMu: groupsMu,
			r: rand.New(rand.NewPCG(uint64(x.seed), 1<<36+uint64(i)<<8+uint64(j)))}
		for range 1 + r.IntN(6) {
			second[j].run()
		}
		live[j] = second[j].w
	}
	token, err := db.Commit(nil)
	if err != nil {
		db.Close()
		return append(bad, fmt.Sprintf("second life: commit: %v", err))
	}
	committed := maps.Clone(x.committed)
	if x.o.engine == EngineWAL && slices.Contains(img.tokens, token) {
		bad = append(bad, fmt.Sprintf("second life: its commit takes token %s, which a commit of the first life returned before the crash", token))
	}
	if x.o.engine != EngineWAL {
		res := awaitCommit(x.t, db, token, live)
		committed[token] = res
		var seq atomic.Uint64
		if storage.ResumeTokens(&seq, names...); token != storage.NextToken(&seq) {
			bad = append(bad, fmt.Sprintf("second life: its commit takes token %s, not the one after every token the image holds", token))
		}
		if delta := len(chain) > 0 && len(chain) < x.o.fullEvery; res.Delta != delta {
			bad = append(bad, fmt.Sprintf("second life: commit %s over a chain of %d captures is a delta: %v, want %v", token, len(chain), res.Delta, delta))
		}
		for j, w := range live {
			if res.Seqs[w] != w.Seq() {
				bad = append(bad, fmt.Sprintf("second life: commit %s at rest takes worker %d at %d, after its %d transactions", token, j, res.Seqs[w], w.Seq()))
			}
		}
	}
	bound := make([]uint64, w1) // the second life's transactions before its commit
	for _, ow := range second {
		bound = append(bound, ow.w.Seq())
		ow.run() // past the commit
		ow.w.Close()
	}
	img2 := takeImage("second life", cp.ckpts, cp.dev, bound, nil)
	db.Close()

	// The second crash: the first life's workers keep their recovered points.
	db2, _, cut2, bad2 := x.recover(img2, committed, ids)
	for w := range cut2[:min(len(cut2), w1)] {
		if cut2[w] > cut[w] {
			bad2 = append(bad2, fmt.Sprintf("worker %d recovers to transaction %d, past its first recovery's %d", w, cut2[w], cut[w]))
		}
		cut2[w] = cut[w]
	}
	if db2 != nil {
		bad2 = append(bad2, m2.check(db2, cut2)...)
		db2.Close()
	}
	for _, p := range bad2 {
		bad = append(bad, "second crash: "+p)
	}
	return bad
}
