package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faster"
	"repro/internal/obs"
)

// runConfig is one invocation: one workload, one seed, one window length.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	nproc    int    // processors of the host; settles the client count (clientsFor)
	root     string // checkout root; scratch and outputs live under root/benchmark/out
}

const (
	setupReps    = 3 // set-ups timed per run; setup_s is their median
	recoverReps  = 3 // recoveries timed per run, each on its own copy of the crash image
	bucketNs     = int64(100 * time.Millisecond)
	windowSlices = 10 // end-to-end rates and percentiles are medians over this many slices of the window
	// markCommits: write_amp, space_amp and peak_rss_mb are read when this many
	// of the window's commits have completed — after a fixed amount of work,
	// about half the window at the speed the commit cadence was set for — so
	// they do not move with how far a fast or a slow host gets in the window.
	markCommits = 16
)

// driveSpec tells the clients how long to run and what to issue.
type driveSpec struct {
	deadline int64  // stop once now() passes this (0 = no deadline)
	ops      uint64 // stop after this many ops per client (0 = no limit)
	only0    bool   // client 0 alone
	rings    []*ring
	// release, when non-nil, is closed once no commit is in flight any more;
	// until then in-process clients past their deadline keep refreshing.
	release <-chan struct{}
}

// bench is what differs between workload kinds: how clients reach the store.
// Everything else — commits, crash image, recovery, checks, metrics — is
// shared (run, below).
type bench interface {
	// open builds the serving stack on top of the loaded store (server,
	// connections, log, pump) and starts the client sessions.
	open() error
	drive(spec driveSpec) []clientResult
	// idle returns in-process sessions no goroutine is driving between
	// phases; a commit issued then must refresh them itself.
	idle() []*faster.Session
	// sessionIDs returns, per stream, the CPR session its serials belong to.
	sessionIDs() []string
	// progress returns, per stream, the last serial issued.
	progress() []uint64
	// settle blocks until everything acknowledged to clients has reached the
	// store (ingest: pump applied = log tail).
	settle() error
	close()
}

// clientResult is what one client goroutine hands back from drive.
type clientResult struct {
	ops, failed uint64
	userBytes   int64                // key+value bytes of the writes issued
	lat         []sample             // latency of the unit the client waits on, when not per kind
	kind        [numOpKinds][]sample // in-process: session-call latency by op kind (+ share of CompletePending)
	extra       map[string][]int64   // named sample sets for per-layer metrics
	buckets     map[int64]uint64     // ops completed per 100 ms bucket of the clock
	first, last int64                // first op issued, last op completed
}

func (c *clientResult) addExtra(name string, v int64) {
	if c.extra == nil {
		c.extra = make(map[string][]int64)
	}
	c.extra[name] = append(c.extra[name], v)
}

// sample is one timed op: when it completed and how long it took.
type sample struct{ at, ns int64 }

func durations(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = float64(v.ns)
	}
	return out
}

// slicePoint is the process state at a slice boundary of the window.
type slicePoint struct {
	at, cpu int64  // clock, user+system CPU
	ops     uint64 // ops completed by all clients
}

// sliceStats are the per-slice rates and percentiles of a window.
type sliceStats struct{ opsPerS, cpuUsPerOp, p50, p99 []float64 }

func (w *windowResult) slices() sliceStats {
	var st sliceStats
	lat := make([][]float64, len(w.points)-1)
	for _, s := range w.samples {
		i := sort.Search(len(w.points), func(i int) bool { return w.points[i].at > s.at }) - 1
		if i >= 0 && i < len(lat) {
			lat[i] = append(lat[i], float64(s.ns))
		}
	}
	for i := range lat {
		a, b := w.points[i], w.points[i+1]
		if b.ops == a.ops || len(lat[i]) == 0 {
			continue // nothing completed in this slice: it has no rate to speak of
		}
		sum := summarize(lat[i])
		st.opsPerS = append(st.opsPerS, float64(b.ops-a.ops)/(float64(b.at-a.at)/1e9))
		st.cpuUsPerOp = append(st.cpuUsPerOp, float64(b.cpu-a.cpu)/1e3/float64(b.ops-a.ops))
		st.p50 = append(st.p50, sum.P50)
		st.p99 = append(st.p99, sum.P99)
	}
	return st
}

// windowResult is one measured window.
type windowResult struct {
	seconds     float64
	ops, failed uint64
	userBytes   int64
	written     int64        // bytes handed to devices, checkpoint store and segments
	stored      int64        // bytes those hold when the window ends
	mark        *workMark    // the same after markCommits commits
	points      []slicePoint // windowSlices+1 of them: the slice boundaries
	samples     []sample     // latency of the unit the client waits on, with completion times
	opLat       []float64    // the same, ns only
	kind        [numOpKinds][]float64
	extra       map[string][]float64
	commits     commitLog
	buckets     map[int64]uint64
	from, to    int64

	// Counter snapshots around the window, for the per-layer deltas.
	dev0, dev1, seg0, seg1 ioSnapshot
	art0, art1             int64
	artN0, artN1           int64
	devReadNs, devWriteNs  []int64 // wrapper latency samples taken in the window
	artNs, segSyncNs       []int64
	reg0, reg1             obs.Snapshot
	timeline               obs.Timeline
	mem0, mem1             runtime.MemStats
	sampler                *sampler
	coverage               float64
}

// workMark is the state after a fixed amount of the window's work.
type workMark struct {
	ops             uint64 // completed since the window began
	written, stored int64
	rssMiB          float64
}

// run carries one workload through set-up, window(s), crash and recovery.
type run struct {
	cfg     runConfig
	w       workload
	tmp     string
	streams []*stream
	bg      *ring // background span ring, nil unless tracing

	env  *storeEnv
	b    bench
	seg  *ioStats       // inlog segment I/O; all zero outside ingest-batch
	segs *countSegStore // nil outside ingest-batch

	completed atomic.Uint64 // ops completed by all clients, ever; read at slice boundaries
	// nextCommit is the value of completed at which the next window commit is
	// due (0: none, outside a window); the client that crosses it kicks the
	// commit goroutine.
	nextCommit atomic.Uint64
	kick       chan struct{}

	issued []uint64 // per stream, the last serial issued before the crash
	fails  uint64   // failed checks outside the windows
	notes  []string
}

// opsDone is called by every client when n more ops have completed.
func (r *run) opsDone(n uint64) {
	done := r.completed.Add(n)
	if next := r.nextCommit.Load(); next != 0 && done >= next && r.nextCommit.CompareAndSwap(next, next+r.w.commitOps) {
		select {
		case r.kick <- struct{}{}:
		default: // the previous commit is still running: this cycle joins the next
		}
	}
}

func (r *run) fail(format string, args ...any) {
	r.fails++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func newBench(r *run) bench {
	switch r.w.kind {
	case kindInproc:
		return &inprocBench{r: r}
	case kindNetBatch, kindNetRTT:
		return &netBench{r: r}
	default:
		return &ingestBench{r: r}
	}
}

// loadValue is what the set-up load stores under key.
func (r *run) loadValue(dst []byte, key uint32) []byte {
	if r.w.counter && int(key) < r.w.mix.keys {
		binary.LittleEndian.PutUint64(dst, counterBase(key))
		return dst[:8]
	}
	fillTagged(dst[:r.w.valueSize], makeTag(key, loaderClient, 0))
	return dst[:r.w.valueSize]
}

// setup is the timed set-up: open the store, load every key and the canaries,
// take one WithIndex commit, open the serving stack (ingest-batch: before the
// load) and warm it up with the first warmupOps of each stream. It returns the
// seconds it took.
func (r *run) setup() (float64, error) {
	t0 := now()
	dir, err := os.MkdirTemp(r.tmp, "store-")
	if err != nil {
		return 0, err
	}
	r.seg, r.segs = &ioStats{}, nil
	if r.env, err = openStoreEnv(r.w.store, dir, r.bg); err != nil {
		return 0, err
	}
	r.b = newBench(r)
	// The pump registers a commit hook, and on the seed Store.OnCommit races
	// with the tail of a commit that has just completed (README, findings), so
	// the ingestion stack opens before the first commit. The others open after
	// it: an idle connection of theirs would make that commit wait for the
	// server's 20 ms idle poll.
	hooks := r.w.kind == kindIngest
	if hooks {
		if err := r.b.open(); err != nil {
			return 0, err
		}
	}
	sess := r.env.store.StartSession()
	var kb [8]byte
	vb := make([]byte, r.w.valueSize)
	for k := 0; k < r.w.mix.keys+r.w.clients; k++ {
		putKey(kb[:], uint32(k))
		if sess.Upsert(kb[:], r.loadValue(vb, uint32(k))) == faster.Error {
			return 0, fmt.Errorf("load: upsert of key %d failed", k)
		}
	}
	sess.CompletePending(true)
	sess.StopSession()
	if err := commitOnce(r.env.store, faster.CommitOptions{WithIndex: true}, nil, nil, nil); err != nil {
		return 0, fmt.Errorf("index commit: %w", err)
	}
	if !hooks {
		if err := r.b.open(); err != nil {
			return 0, err
		}
	}
	for _, c := range r.b.drive(driveSpec{ops: r.w.warmupOps}) {
		if c.failed > 0 {
			return 0, fmt.Errorf("warm-up: %d ops failed", c.failed)
		}
	}
	if err := r.b.settle(); err != nil {
		return 0, err
	}
	return float64(now()-t0) / 1e9, nil
}

func (r *run) teardown() {
	if r.b != nil {
		r.b.close()
		r.b = nil
	}
	if r.env != nil {
		r.env.close()
		if r.env.dir != "" {
			os.RemoveAll(r.env.dir)
		}
		r.env = nil
	}
}

// measure runs one window of d with a commit every commitOps ops.
func (r *run) measure(d time.Duration, traced bool) *windowResult {
	res := &windowResult{extra: make(map[string][]float64), buckets: make(map[int64]uint64)}
	var rings []*ring
	if traced {
		for c := 0; c < r.clientRings(); c++ {
			rings = append(rings, newRing(c))
		}
		res.sampler = startSampler(r.env.reg)
		res.reg0 = r.env.reg.Snapshot()
	}
	ck := r.env.ckpt
	r.env.dev.resetSamples()
	r.seg.resetSamples()
	ck.takeSamples()
	res.dev0, res.seg0 = r.env.dev.snapshot(), r.seg.snapshot()
	res.art0, res.artN0 = ck.writeBytes.Load(), ck.writes.Load()
	runtime.ReadMemStats(&res.mem0)
	ops0, written0 := r.completed.Load(), r.writtenBytes()
	r.kick = make(chan struct{}, 1)
	r.nextCommit.Store(ops0 + r.w.commitOps)
	stop, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		driveCommits(r.env.store, r.kick, stop, r.bg, &res.commits, func(done int) {
			if done == markCommits {
				res.mark = &workMark{r.completed.Load() - ops0, r.writtenBytes() - written0, r.storedBytes(), peakRSSMiB()}
			}
		})
	}()
	res.from = now()
	res.to = res.from + int64(d)
	go func() {
		// The window is cut into windowSlices equal slices; each end-to-end
		// rate and percentile is the median over the slices, so a burst of
		// noise from outside spoils one slice, not the run.
		t := time.NewTicker(d / windowSlices)
		defer t.Stop()
		for i := 0; i <= windowSlices; i++ {
			res.points = append(res.points, slicePoint{now(), cpuNanos(), r.completed.Load()})
			if i < windowSlices {
				<-t.C
			}
		}
		r.nextCommit.Store(0)
		close(stop)
		wg.Wait()
		close(release)
	}()
	clients := r.b.drive(driveSpec{deadline: res.to, rings: rings, release: release})
	<-release
	runtime.ReadMemStats(&res.mem1)
	res.dev1, res.seg1 = r.env.dev.snapshot(), r.seg.snapshot()
	res.art1, res.artN1 = ck.writeBytes.Load(), ck.writes.Load()
	res.devReadNs, res.devWriteNs, _ = r.env.dev.samples()
	_, _, res.segSyncNs = r.seg.samples()
	res.artNs = ck.takeSamples()
	res.written = r.writtenBytes() - written0
	res.stored = r.storedBytes()
	if traced {
		res.sampler.stop()
		res.reg1 = r.env.reg.Snapshot()
		res.timeline = r.env.store.Tracer().Timeline()
	}
	first, last := res.to, res.from
	for _, c := range clients {
		res.ops += c.ops
		res.failed += c.failed
		res.userBytes += c.userBytes
		res.samples = append(res.samples, c.lat...)
		for k := range c.kind {
			res.kind[k] = append(res.kind[k], durations(c.kind[k])...)
			res.samples = append(res.samples, c.kind[k]...)
		}
		for name, v := range c.extra {
			res.extra[name] = append(res.extra[name], nsToFloat(v)...)
		}
		for b, n := range c.buckets {
			res.buckets[b] += n
		}
		first, last = min(first, c.first), max(last, c.last)
	}
	res.seconds = float64(last-first) / 1e9
	res.opLat = durations(res.samples)
	if res.mark == nil {
		res.mark = &workMark{res.ops, res.written, res.stored, peakRSSMiB()}
		if !r.cfg.trace { // a traced run reports neither
			r.notes = append(r.notes, fmt.Sprintf("only %d commits completed in the window: write_amp, space_amp and peak_rss_mb read at its end, not after %d", len(res.commits.spans), markCommits))
		}
	}
	if res.commits.failed > 0 {
		res.failed += uint64(res.commits.failed)
		r.notes = append(r.notes, fmt.Sprintf("window commit failed: %v", res.commits.lastErr))
	}
	if traced {
		cov, err := writeTrace(filepath.Join(r.cfg.root, "benchmark", "out"), r.w.name, r.cfg.seed, append(rings, r.bg))
		if err != nil {
			r.notes = append(r.notes, "trace file: "+err.Error())
		}
		res.coverage = cov
	}
	return res
}

// writtenBytes is what the program has handed to devices, checkpoint store and
// segments so far; storedBytes is what those hold now.
func (r *run) writtenBytes() int64 {
	return r.env.dev.snapshot().writeBytes + r.seg.snapshot().writeBytes + r.env.ckpt.writeBytes.Load()
}

func (r *run) storedBytes() int64 {
	n := r.env.deviceBytes() + r.env.ckpt.liveBytes()
	if r.segs != nil {
		n += r.segs.liveBytes()
	}
	return n
}

// clientRings is how many goroutines drive records spans from: one per
// client, plus the ack reader of the ingest client.
func (r *run) clientRings() int {
	if r.w.kind == kindIngest {
		return 2
	}
	return r.w.clients
}

// recovery is what one recovery of the crash image measured.
type recovery struct {
	ttfoMs, fullMs float64
	recoverNs      int64   // faster.Recover alone
	records        float64 // log records between the index checkpoint and the recovered end
	restore        *faster.RestoreStatus
	replayed       float64 // inlog records the pump replayed
	waitAppliedMs  float64
}

// crashAndRecover stops the clients, completes a last commit, issues the
// suffix, takes the crash image and recovers it recoverReps times. The first
// recovery also runs the prefix checks.
func (r *run) crashAndRecover() ([]recovery, error) {
	if err := r.b.settle(); err != nil {
		return nil, err
	}
	// What recovery must redo is the same in every run, however many ops the
	// window got through: an index checkpoint, then exactly suffixOps writes
	// covered by one log-only commit (the suffix recovery replays), then
	// exactly suffixOps more that no commit covers (the suffix the crash
	// loses; ingest-batch's pump replays it from the log).
	var suffixKey uint32
	for _, opts := range []faster.CommitOptions{{WithIndex: true}, {}} {
		if err := commitOnce(r.env.store, opts, r.b.idle(), r.bg, nil); err != nil {
			return nil, fmt.Errorf("commit before the crash: %w", err)
		}
		if opts.WithIndex {
			r.streams[0].allWritesFrom = r.b.progress()[0] + 1
			suffixKey = r.streams[0].keyAt(r.streams[0].allWritesFrom)
		}
		for _, c := range r.b.drive(driveSpec{ops: r.w.suffixOps, only0: true}) {
			r.fails += c.failed
		}
		if err := r.b.settle(); err != nil {
			return nil, err
		}
	}
	r.issued = append([]uint64(nil), r.b.progress()...)
	base, err := r.env.image(r.tmp)
	if err != nil {
		return nil, err
	}
	ids := r.b.sessionIDs()
	r.teardown() // the crashed process is gone; only the image is left

	var out []recovery
	for rep := 0; rep < recoverReps; rep++ {
		// ... and so is its memory: a recovery neither pays for the garbage of
		// what ran before it nor has it counted into peak_rss_mb.
		runtime.GC()
		img, err := base.fork(r.tmp)
		if err != nil {
			return nil, err
		}
		rec, err := r.recoverOnce(img, ids, suffixKey, rep == 0)
		if img.dir != "" {
			os.RemoveAll(img.dir)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	if base.dir != "" {
		os.RemoveAll(base.dir)
	}
	return out, nil
}

var errNotServed = errors.New("read of a suffix-overwritten key was not served")

func (r *run) recoverOnce(img *crashImage, ids []string, suffixKey uint32, check bool) (recovery, error) {
	var rec recovery
	t0 := now()
	env, err := recoverStoreEnv(r.w.store, img, r.bg)
	t1 := now()
	if err != nil {
		return rec, fmt.Errorf("recover: %w", err)
	}
	defer env.close()
	r.bg.sharedLeaf(spRecover, t0, t1)
	rec.recoverNs = t1 - t0

	// Time to first op: one Read of a key the replayed suffix overwrote.
	sess := env.store.StartSession()
	var kb [8]byte
	putKey(kb[:], suffixKey)
	served := false
	_, st := sess.Read(kb[:], func(_ []byte, st faster.Status) { served = st == faster.Ok })
	if st == faster.Pending {
		sess.CompletePending(true)
	} else {
		served = st == faster.Ok
	}
	t2 := now()
	if !served {
		return rec, errNotServed
	}
	rec.ttfoMs = float64(t2-t0) / 1e6
	if err := env.store.WaitRestored(); err != nil {
		return rec, fmt.Errorf("WaitRestored: %w", err)
	}
	t3 := now()
	if r.w.store.instant {
		r.bg.sharedLeaf(spWaitRestored, t2, t3)
	}
	rec.restore = env.store.RestoreStatus()
	for i := 0; i < r.w.store.shards; i++ {
		rec.records += float64(env.store.ShardLog(i).Tail()-env.store.ResyncFrom(i)) / float64(recordBytes(r.w.valueSize))
	}

	points := make([]uint64, len(ids))
	for c, id := range ids {
		points[c] = env.store.RecoveredPoint(id)
	}
	if check {
		r.checkPrefix(sess, points)
	}
	sess.StopSession()

	full := t3 - t0
	if r.w.kind == kindIngest {
		t4 := now()
		closer, err := resumeIngest(r, env, img)
		if err != nil {
			return rec, err
		}
		t5 := now()
		r.bg.sharedLeaf(spWaitApplied, t4, t5)
		full += t5 - t4
		rec.waitAppliedMs = float64(t5-t4) / 1e6
		rec.replayed = float64(env.reg.Snapshot().Counters["inlog_replayed"])
		if check {
			r.checkIngestFinal(env)
		}
		closer()
	}
	rec.fullMs = float64(full) / 1e6
	return rec, nil
}

// recordBytes is the HybridLog footprint of one record of this value size
// (16-byte header, 8-byte key, value padded to 8).
func recordBytes(valueSize int) int64 { return int64(16 + 8 + (valueSize+7)/8*8) }

// readKey reads one key through sess, waiting out a Pending status.
func readKey(sess *faster.Session, key uint32) ([]byte, bool) {
	var kb [8]byte
	putKey(kb[:], key)
	var got []byte
	ok := false
	val, st := sess.Read(kb[:], func(v []byte, st faster.Status) {
		got, ok = append([]byte(nil), v...), st == faster.Ok
	})
	switch st {
	case faster.Ok:
		return val, true
	case faster.Pending:
		sess.CompletePending(true)
		return got, ok
	}
	return nil, false
}

// checkPrefix verifies the CPR guarantee on the recovered store: for every
// session exactly the ops up to its recovered point t_i are present.
//
//   - canary: the session's canary key holds ⌊t_i/1024⌋·1024 — the last canary
//     at or before t_i is there, none after it is;
//   - tagged values: a sample of keys, the lost suffix's among them, each
//     holds a value some stream wrote to that key at a serial ≤ that
//     stream's t_i;
//   - counters: every key holds exactly the increments of the RMWs of that key
//     among the first t_i ops of every stream.
func (r *run) checkPrefix(sess *faster.Session, points []uint64) {
	for c, s := range r.streams {
		want := points[c] / canaryEvery * canaryEvery
		v, ok := readKey(sess, s.canary())
		if !ok || len(v) < 8 {
			r.fail("canary of stream %d not readable", c)
			continue
		}
		_, wc, n := splitTag(binary.LittleEndian.Uint64(v))
		if n != want || (want == 0 && wc != loaderClient) || (want != 0 && wc != c) {
			r.fail("canary of stream %d holds serial %d from client %d, recovered point %d wants %d", c, n, wc, points[c], want)
		}
	}
	if r.w.counter {
		r.checkCounters(sess, points)
		return
	}
	const sample = 2048
	for c, s := range r.streams {
		for i := uint64(1); i <= sample; i++ {
			// Half from the start of the stream, half from the lost suffix
			// (or the newest ops, for streams that issued no suffix).
			n := i
			if i > sample/2 && r.issued[c] > sample {
				n = r.issued[c] - sample + i
			}
			key := s.keyAt(n)
			v, ok := readKey(sess, key)
			if !ok || !checkTagged(v, key, r.w.valueSize, r.streams, points) {
				r.fail("key %d after recovery: value %x is not a write at or before the recovered points %v", key, v, points)
			}
		}
	}
}

// checkCounters reads every counter and compares it with the RMWs of that key
// among the first t_i ops of every stream: exactly those increments, on every
// key, whatever the number of clients.
func (r *run) checkCounters(sess *faster.Session, points []uint64) {
	want := make([]uint32, r.w.mix.keys)
	for c, s := range r.streams {
		for n := uint64(1); n <= points[c]; n++ {
			if kind, key := s.at(n); kind == opRMW {
				want[key]++
			}
		}
	}
	var wrong, lost, extra uint64
	for k := range want {
		v, ok := readKey(sess, uint32(k))
		if !ok || !checkCounter(v, uint32(k)) {
			r.fail("counter %d after recovery: value %x", k, v)
			return
		}
		switch got := binary.LittleEndian.Uint64(v) - counterBase(uint32(k)); {
		case got < uint64(want[k]):
			wrong++
			lost += uint64(want[k]) - got
		case got > uint64(want[k]):
			wrong++
			extra += got - uint64(want[k])
		}
	}
	if wrong > 0 {
		r.fails += wrong - 1 // fail counts the last one
		r.fail("%d counters differ from the RMWs the recovered points %v contain: %d increments lost, %d from beyond a point", wrong, points, lost, extra)
	}
}
