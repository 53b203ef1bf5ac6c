package faster

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/epoch"
	"repro/internal/hashfn"
	"repro/internal/hlog"
	"repro/internal/obs"
	"repro/internal/storage"
)

// The oracle checks the CPR contract (DESIGN "Checking the contract"): a seed
// draws sessions, a committer, a compactor between device read outages and
// each hook decision; every operation's invocation and acknowledgement is a
// tick of one clock, and the history is checked against a model written from
// the definitions — even keys counters (RMW only), odd keys last-write
// registers. That is the live half; the crash half recovers images of the run
// and checks them against the model cut at each session's recovered point.
// The threads are real: a rerun of a seed explores the neighbourhood of an
// interleaving rather than replaying it.

// pinnedSeeds fail, 10 runs of 10, with a bug this store had put back
// (EXPERIMENTS "The seeded oracle" and "The oracle's crash half").
var pinnedSeeds = []struct {
	bug  string
	seed int64
}{
	{"load-after-allocate", 11},
	{"eviction-edge-read", 103},
	{"dropped-parked-write", 14},
	{"begin-inside-a-record", 13},
	{"invalid-record-relinked", 33},
	{"record-before-durable", 17},
	{"damaged-newest-fails-recovery", 22},
	{"recovered-token-reused", 9},
	{"no-whole-commit-error", 10},
}

// sweepLen seeds, from sweepFrom on, run after the pinned ones; each run of
// TestOracle takes the next block, so -count=n sweeps n blocks. A seed named
// in -run (TestOracle/seed=N) runs alone, whatever block it is in.
const sweepFrom, sweepLen = 5, 4

var (
	sweepBlock int
	seedInRun  = regexp.MustCompile(`seed=(\d+)`)
)

func TestOracle(t *testing.T) {
	for _, p := range pinnedSeeds {
		t.Run(p.bug, func(t *testing.T) { runOracle(t, p.seed, p.bug) })
	}
	first := int64(sweepFrom + sweepBlock*sweepLen)
	last := first + sweepLen - 1
	sweepBlock++
	if m := seedInRun.FindStringSubmatch(flag.Lookup("test.run").Value.String()); m != nil {
		first, _ = strconv.ParseInt(m[1], 10, 64)
		last = first
	}
	for seed := first; seed <= last; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runOracle(t, seed, fmt.Sprintf("seed=%d", seed)) })
	}
}

// oracleRun is one seed's draw.
type oracleRun struct {
	sessions, ops                 int // ops per session
	keys, hot, pHot               int // pHot % of operations go to keys [0, hot)
	pWrite, pDelete               int // % of operations that write, % of register writes that delete
	longValue                     int // register values of this many bytes on every other write; 0: 8
	maxParked                     int // parked reads a session keeps before it completes them
	transfer                      VersionTransfer
	pSnapshot                     int           // % of commits that are snapshots (the rest fold over)
	pWithIndex                    int           // % of commits that take an index image
	commitGap, compactGap, outage time.Duration // outage: device reads fail this long between compactions
	buckets, memPages             int
	writeBW                       int64 // device write bytes/s; 0: unthrottled
	yieldPerMille                 [epoch.NumSites]uint64
}

func drawOracleRun(seed int64) oracleRun {
	r := rand.New(rand.NewPCG(uint64(seed), 0))
	o := oracleRun{
		sessions: 2 + r.IntN(3), ops: 10000 + r.IntN(10000),
		keys: 256 << r.IntN(5), hot: 2 + r.IntN(7), pHot: 20 + r.IntN(60),
		pWrite: 40 + r.IntN(40), pDelete: r.IntN(25), maxParked: 1 + r.IntN(8),
		transfer:   []VersionTransfer{FineGrained, CoarseGrained}[r.IntN(2)],
		pSnapshot:  r.IntN(2) * (20 + r.IntN(60)),
		pWithIndex: r.IntN(40),
		commitGap:  time.Duration(r.IntN(3000)) * time.Microsecond,
		compactGap: time.Duration(1+r.IntN(5)) * time.Millisecond,
		buckets:    4 << r.IntN(6), memPages: 4 + r.IntN(5),
	}
	if r.IntN(2) == 0 {
		o.longValue = 9 + r.IntN(40)
	}
	if r.IntN(2) == 0 {
		o.outage = time.Duration(200+r.IntN(1500)) * time.Microsecond
	}
	for i := range o.yieldPerMille {
		o.yieldPerMille[i] = uint64(r.IntN(200))
	}
	if r.IntN(2) == 0 {
		o.writeBW = int64(1+r.IntN(8)) << 18
	}
	return o
}

// oracleEvent is one operation of a session's history: for a counter, val is
// an RMW's delta or a read's sum; for a register, a write's id or a read's, 0
// meaning absent. inv and ack are ticks of the run's clock; serial is the
// op's serial in its session.
type oracleEvent struct {
	kind     opKind
	st       Status
	key, val uint64
	inv, ack uint64
	serial   uint64
}

// scheduler is the hook the sites call. Step n hashes (seed, n) to carry on,
// yield once, or step aside until the others have taken up to 64 steps; at a
// step of crashAt it calls crash first.
type scheduler struct {
	seed    uint64
	rate    [epoch.NumSites]uint64
	steps   atomic.Uint64
	crashAt []uint64
	crash   func(step uint64)
}

func (s *scheduler) at(site epoch.Site) {
	n := s.steps.Add(1)
	for _, c := range s.crashAt {
		if c == n {
			s.crash(n)
		}
	}
	r := rand.NewPCG(s.seed, n).Uint64()
	if r%1000 >= s.rate[site] {
		return
	}
	until := n + 1 + r>>12&63
	for i := 0; i < 64 && s.steps.Load() < until && r>>10&1 == 1; i++ {
		runtime.Gosched()
	}
	runtime.Gosched()
}

var errOutage = errors.New("oracle: device read outage")

// outageDevice fails every read while down is set.
type outageDevice struct {
	storage.Device
	down   *atomic.Bool
	faults *atomic.Int64
}

func (d outageDevice) ReadAt(p []byte, off int64) (int, error) {
	if d.down.Load() {
		d.faults.Add(1)
		return 0, errOutage
	}
	return d.Device.ReadAt(p, off)
}

// oracleSession drives one session and records its history.
type oracleSession struct {
	o        *oracleRun
	sess     *Session
	w        int
	rng      *rand.Rand
	clock    *atomic.Uint64
	hist     []oracleEvent
	parked   int // reads parked since the last CompletePending; readErrs of them ended in Error
	readErrs int
	errs     int // every Error this session saw
	fail     func(format string, args ...any)
}

func (c *oracleSession) run() {
	o := c.o
	serial, point := c.sess.Serial(), c.sess.CommittedSerial()
	for i := 0; i < o.ops; i++ {
		k := uint64(c.rng.IntN(o.keys))
		if c.rng.IntN(100) < o.pHot {
			k = uint64(c.rng.IntN(o.hot))
		}
		switch id := uint64(c.w+1)<<40 | uint64(i+1); {
		case c.rng.IntN(100) >= o.pWrite:
			c.read(k)
		case k%2 == 0:
			c.write(opRMW, k, uint64(1+c.rng.IntN(3)), nil)
		case c.rng.IntN(100) < o.pDelete:
			c.write(opDelete, k, 0, nil)
		default:
			c.write(opUpsert, k, id, registerValue(id, o.longValue*(i&1)))
		}
		now, t := c.sess.Serial(), c.sess.CommittedSerial()
		if now != serial+1 || t < point || t > now {
			c.fail("session %d: serial %d after %d, commit point %d after %d", c.w, now, serial, t, point)
		}
		serial, point = now, max(point, t)
	}
	c.complete()
}

// complete drains the parked ops and returns the failures not parked reads'.
func (c *oracleSession) complete() int {
	failed := c.sess.CompletePending(true)
	if failed < c.readErrs {
		c.fail("session %d: %d parked reads ended in Error, CompletePending reported %d", c.w, c.readErrs, failed)
	}
	failed -= c.readErrs
	c.parked, c.readErrs = 0, 0
	return failed
}

func (c *oracleSession) read(k uint64) {
	pos, parked := len(c.hist), false
	c.hist = append(c.hist, oracleEvent{kind: opRead, key: k, inv: c.clock.Add(1)})
	_, st := c.sess.Read(key(k), func(v []byte, st Status) {
		e, ok := &c.hist[pos], true
		if e.ack, e.st = c.clock.Add(1), st; st == Ok {
			e.val, ok = decode(k, v)
		} else if st == Error {
			c.errs++
			if parked {
				c.readErrs++
			}
		}
		if !ok {
			c.fail("key %d reads a torn or foreign value %x", k, v)
		}
	})
	c.hist[pos].serial = c.sess.Serial()
	if parked = st == Pending; parked {
		if c.parked++; c.parked >= c.o.maxParked && c.complete() != 0 {
			c.fail("session %d: CompletePending reported failures beyond its parked reads'", c.w)
		}
	}
}

func (c *oracleSession) write(kind opKind, k, val uint64, value []byte) {
	ev := oracleEvent{kind: kind, key: k, val: val, inv: c.clock.Add(1)}
	switch kind {
	case opRMW:
		ev.st = c.sess.RMW(key(k), u64(val))
	case opUpsert:
		ev.st = c.sess.Upsert(key(k), value)
	default:
		ev.st = c.sess.Delete(key(k))
	}
	ev.serial = c.sess.Serial()
	if ev.st == Pending {
		// A parked write has no callback: complete it now, so CompletePending's
		// count names it. A delete's Ok or NotFound leaves the key absent.
		ev.st = Ok
		if n := c.complete(); n == 1 {
			ev.st = Error
		} else if n > 1 {
			c.fail("session %d: CompletePending reported %d failed writes, one was parked", c.w, n)
		}
	}
	if ev.st == Error {
		c.errs++
	}
	ev.ack = c.clock.Add(1)
	c.hist = append(c.hist, ev)
}

// registerValue is a register write of n bytes (8 if fewer): id's, repeated.
func registerValue(id uint64, n int) []byte {
	v := make([]byte, max(n, 8))
	for i := range v {
		v[i] = byte(id >> (i % 8 * 8))
	}
	return v
}

// decode reads k's value, a counter's sum or a register write's id; !ok: torn.
func decode(k uint64, v []byte) (val uint64, ok bool) {
	if len(v) < 8 || k%2 == 0 && len(v) != 8 {
		return 0, false
	}
	val = binary.LittleEndian.Uint64(v)
	return val, k%2 == 0 || val != 0 && string(v) == string(registerValue(val, len(v)))
}

func runOracle(t *testing.T, seed int64, name string) {
	o := drawOracleRun(seed)
	cd := drawCrash(seed, o)
	var down, done, release atomic.Bool
	var faults atomic.Int64
	fr := obs.NewFlightRecorder(1 << 12)

	// The crash half's images: the checkpoint store, then the device, cloned
	// at the drawn hook steps and at the drawn artifact boundary.
	memCk, memDev := storage.NewMemCheckpointStore(), storage.NewMemDevice()
	memDev.WriteBandwidth = o.writeBW
	fc := storage.FaultConfig{Seed: uint64(seed)}
	if cd.faults {
		fc.ReadErrorRate, fc.WriteErrorRate, fc.TornWriteRate = 0.002, 0.002, 0.001
	}
	inj := storage.NewInjector(fc)
	var imgMu sync.Mutex
	var images []crashImage
	imaging, stepTaken := true, map[uint64]bool{}
	image := func(step uint64, at, torn string) {
		imgMu.Lock()
		defer imgMu.Unlock()
		if imaging && !stepTaken[step] {
			images = append(images, takeImage(at, torn, memCk, memDev))
		}
		if step != 0 {
			stepTaken[step] = true
		}
	}
	var boundaryTaken atomic.Bool
	for c := cd.commit; c < cd.commit+8; c++ {
		tok := fmt.Sprintf("ckpt-%06d", c)
		art := storage.RecordName(tok)
		if cd.artifact != "record" {
			art = blobName(cd.artifact, tok)
		}
		torn, point := "", cd.boundary+":"+art
		if cd.boundary == "torn" {
			torn = art
		}
		inj.Arm(point, func() {
			if boundaryTaken.CompareAndSwap(false, true) {
				image(0, point, torn)
			}
		})
	}

	sched := &scheduler{seed: uint64(seed), rate: o.yieldPerMille, crashAt: cd.steps,
		crash: func(n uint64) { image(n, fmt.Sprintf("hook step %d", n), "") }}
	epoch.SetYieldHook(sched.at)
	defer epoch.SetYieldHook(nil)
	s, err := Open(o.config(fr, storage.NewFaultCheckpointStore(memCk, inj),
		outageDevice{storage.NewFaultDevice(memDev, inj), &down, &faults}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var mu sync.Mutex
	var problems []string
	fail := func(format string, args ...any) {
		mu.Lock()
		problems = append(problems, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	var clock atomic.Uint64
	var ran, sessions, others sync.WaitGroup
	clients := make([]*oracleSession, o.sessions)
	for w := range clients {
		c := &oracleSession{o: &o, sess: s.StartSession(), w: w, clock: &clock, fail: fail,
			rng: rand.New(rand.NewPCG(uint64(seed), uint64(w)+1))}
		clients[w] = c
		ran.Add(1)
		sessions.Add(1)
		go func() {
			defer sessions.Done()
			c.run()
			ran.Done()
			// A stopped session leaves the commits that follow: it stays until
			// the last image is taken, so every image has every session's point.
			for !release.Load() {
				c.sess.Refresh()
				time.Sleep(20 * time.Microsecond)
			}
			c.sess.StopSession()
		}()
	}
	commits, compactions := 0, 0
	committed := map[string]map[string]uint64{} // by token, the points the committer saw
	others.Add(2)
	go func() { // the committer
		defer others.Done()
		r := rand.New(rand.NewPCG(uint64(seed), 1<<32))
		points := map[string]uint64{}
		for !done.Load() {
			kind := FoldOver
			opts := CommitOptions{WithIndex: r.IntN(100) < o.pWithIndex, Kind: &kind}
			if r.IntN(100) < o.pSnapshot {
				kind = Snapshot
			}
			token, err := s.Commit(opts)
			if err == nil {
				res := s.WaitForCommit(token)
				for id, p := range res.Serials {
					if p < points[id] {
						fail("commit %s: session %s's point %d after %d", token, id, p, points[id])
					}
					points[id] = p
				}
				if err = res.Err; err == nil {
					committed[token] = res.Serials
				}
				commits++
			}
			if err != nil && !errors.Is(err, ErrCommitInProgress) && !errors.Is(err, errOutage) && !storage.IsTransient(err) {
				fail("commit: %v", err) // a capture may read the device, and fail in an outage
			}
			time.Sleep(time.Duration(r.Int64N(int64(o.commitGap) + 1)))
		}
	}()
	go func() { // the compactor, and the device's outages between compactions
		defer others.Done()
		r := rand.New(rand.NewPCG(uint64(seed), 1<<33))
		for !done.Load() {
			time.Sleep(time.Duration(r.Int64N(int64(o.compactGap) + 1)))
			if o.outage > 0 && r.IntN(2) == 0 {
				down.Store(true)
				time.Sleep(o.outage)
				down.Store(false)
			}
			c, until := s.StartSession(), uint64(math.MaxUint64)
			if r.IntN(2) == 0 {
				until = s.Log().SafeReadOnly() / 2
			}
			if err := c.CompactLog(until); err == nil {
				compactions++
			} else if !errors.Is(err, ErrCommitInProgress) {
				fail("compaction: %v", err)
			}
			c.StopSession()
		}
	}()
	ran.Wait()
	imgMu.Lock()
	for _, n := range cd.steps { // a step the run did not reach crashes now
		if !stepTaken[n] {
			images = append(images, takeImage(fmt.Sprintf("hook step %d, after the last op", n), "", memCk, memDev))
			stepTaken[n] = true
		}
	}
	imaging = false
	imgMu.Unlock()
	release.Store(true)
	sessions.Wait()
	done.Store(true)
	others.Wait()

	// Quiescence: every key read once more, the index walked.
	reader := s.StartSession()
	final := make([]uint64, o.keys) // 0: absent
	for k := range final {
		if v, found := readVal(t, reader, uint64(k)); found {
			var ok bool
			if final[k], ok = decode(uint64(k), v); !ok {
				fail("key %d holds a torn or foreign value %x", k, v)
			}
		}
	}
	reader.StopSession()
	problems = append(problems, checkIndex(s)...)
	var hist []oracleEvent
	x := &crashCheck{t: t, o: &o, seed: seed, fr: fr, committed: committed}
	errs := 0
	for _, c := range clients {
		hist, errs = append(hist, c.hist...), errs+c.errs
		x.ids, x.hist = append(x.ids, c.sess.ID()), append(x.hist, c.hist)
	}
	if errs > 0 && faults.Load() == 0 {
		fail("%d operations ended in Error, and the device failed none of its reads", errs)
	}
	problems = append(problems, checkHistory(hist, final)...)
	// A write that fails publishes nothing: every artifact is whole.
	names, _ := memCk.List()
	for _, n := range names {
		if err := storage.ReadArtifactStream(memCk, n, nil); err != nil {
			fail("artifact %s: %v", n, err)
		}
	}

	for i, img := range images {
		for _, p := range x.check(i, img) {
			fail("image %d (%s): %s", i, img.at, p)
		}
	}

	t.Logf("%d ops, %d commits, %d compactions, %d device faults, %d hook steps, %d crash images", len(hist), commits, compactions, faults.Load(), sched.steps.Load(), len(images))
	if len(problems) == 0 {
		return
	}
	evs, _ := fr.Events()
	var b strings.Builder
	for _, e := range evs[max(len(evs)-40, 0):] {
		fmt.Fprintf(&b, "\n  %s", e.Describe())
	}
	t.Errorf("%d problems, the first:\n  %s\ndraw: %+v\ncrash draw: %+v\nreplay: go test -run 'TestOracle/%s$' ./internal/faster/\nthe flight recorder's last events:%s",
		len(problems), strings.Join(problems[:min(len(problems), 12)], "\n  "), o, cd, name, b.String())
}

// config is the run's store over ckpts and dev.
func (o *oracleRun) config(fr *obs.FlightRecorder, ckpts storage.CheckpointStore, dev storage.Device) Config {
	return Config{IndexBuckets: o.buckets, PageBits: 12, MemPages: o.memPages,
		Transfer: o.transfer, Flight: fr, Checkpoints: ckpts, Device: dev}
}

// checkHistory checks every read and final value against the model: a
// counter's read returns at least the increments acknowledged before it began
// and at most those begun before it ended; a register's, the value of a write
// begun before it ended (absent: the initial state or a delete) that no other
// write completely followed before it began.
func checkHistory(hist []oracleEvent, final []uint64) (bad []string) {
	byKey := make([][]oracleEvent, len(final))
	for _, e := range hist {
		byKey[e.key] = append(byKey[e.key], e)
	}
	for k, evs := range byKey {
		last := oracleEvent{kind: opRead, key: uint64(k), st: Ok, val: final[k], inv: math.MaxUint64 - 1, ack: math.MaxUint64}
		if final[k] == 0 && k%2 == 1 {
			last.st = NotFound
		}
		var writes []oracleEvent // by acknowledgement
		for _, e := range evs {
			if e.kind != opRead && e.st != Error {
				writes = append(writes, e)
			}
		}
		sort.Slice(writes, func(i, j int) bool { return writes[i].ack < writes[j].ack })
		maxInv := make([]uint64, len(writes)+1) // maxInv[i]: the latest invocation among writes[:i]
		for i, e := range writes {
			maxInv[i+1] = max(maxInv[i], e.inv)
		}
		// overwritten: a write invoked after ack completed before t.
		overwritten := func(ack, t uint64) bool {
			return maxInv[sort.Search(len(writes), func(i int) bool { return writes[i].ack >= t })] > ack
		}
		for _, r := range append(evs, last) {
			if r.kind != opRead || r.st == Error {
				continue
			}
			lo, hi, ok := uint64(0), uint64(0), r.st == NotFound && !overwritten(0, r.inv)
			for _, w := range writes {
				if w.ack < r.inv {
					lo += w.val
				}
				if w.inv < r.ack {
					hi += w.val
				}
				ok = ok || (w.kind == opUpsert && r.st == Ok && w.val == r.val || w.kind == opDelete && r.st == NotFound) &&
					w.inv < r.ack && !overwritten(w.ack, r.inv)
			}
			if k%2 == 0 && (r.val < lo || r.val > hi) {
				bad = append(bad, fmt.Sprintf("counter %d reads %d in [%d, %d]; the model allows [%d, %d]", k, r.val, r.inv, r.ack, lo, hi))
			} else if k%2 == 1 && !ok {
				bad = append(bad, fmt.Sprintf("register %d reads %#x (%v) in [%d, %d], which no write it may see wrote", k, r.val, r.st, r.inv, r.ack))
			}
		}
	}
	return bad
}

// checkIndex reports chains that do not descend or hold a record of another
// bucket or tag than their entry's, and tentative or duplicate entries.
func checkIndex(sh *Store) (bad []string) {
	idx, low := sh.index, max(sh.log.Head(), sh.log.Begin(), hlog.FirstAddress)
	for m := range idx.buckets {
		seen := map[uint64]bool{}
		for b := &idx.buckets[m]; b != nil; {
			for i := range b.entries {
				entry := b.entries[i].Load()
				if entry&entryTentative != 0 || entry != 0 && seen[entry&entryTagMask] {
					bad = append(bad, fmt.Sprintf("bucket %d: entry %#x tentative or of a tag seen before", m, entry))
				}
				seen[entry&entryTagMask] = entry != 0
				for addr, steps := entryAddr(entry), 0; addr >= low; steps++ {
					rec := sh.log.Record(addr)
					k, prev := rec.Key(nil), rec.Prev()
					if h := hashfn.Hash64(k); len(k) != 8 || h&idx.mask != uint64(m) || tagOf(h) != entry&entryTagMask || prev >= addr || steps > 1<<16 {
						bad = append(bad, fmt.Sprintf("bucket %d: record at %d (key %x, prev %d) under entry %#x", m, addr, k, prev, entry))
						break
					}
					addr = prev
				}
			}
			if next := b.meta.Load() & metaOverflowMask; next != 0 {
				b = idx.overflowBucket(next)
			} else {
				b = nil
			}
		}
	}
	return bad
}

// crashDraw is a seed's crash half. It comes from a stream of its own, so the
// live draw of a seed does not depend on it.
type crashDraw struct {
	steps              []uint64 // hook steps at which an image is taken
	boundary, artifact string   // before, torn or after; record, index or snapshot ...
	commit             int      // ... of the first of commits [commit, commit+8) to write one
	faults             bool     // transient errors and torn writes on the devices and the checkpoint store
}

func drawCrash(seed int64, o oracleRun) crashDraw {
	r := rand.New(rand.NewPCG(uint64(seed), 1<<34))
	d := crashDraw{
		boundary: []string{"before", "torn", "after"}[r.IntN(3)],
		artifact: []string{"record", "record", "index", "snapshot"}[r.IntN(4)],
		commit:   1 + r.IntN(12),
	}
	r.IntN(1) // the draw of a shard, gone with the shards: later draws stay the seeds' own
	d.faults = r.IntN(2) == 0
	for range 1 + r.IntN(3) {
		d.steps = append(d.steps, 1+r.Uint64N(uint64(2*o.sessions*o.ops)))
	}
	return d
}

// crashImage is what a killed process leaves: the checkpoint store cloned
// before the device, so a record in it has its log data beside it.
type crashImage struct {
	at    string // the hook step or crash point
	torn  string // the artifact the crash point tore, if any
	ckpts *storage.MemCheckpointStore
	dev   *storage.MemDevice
}

func takeImage(at, torn string, ckpts *storage.MemCheckpointStore, dev *storage.MemDevice) crashImage {
	ck := ckpts.Clone() // first
	return crashImage{at: at, torn: torn, ckpts: ck, dev: dev.Clone()}
}

// crashCheck holds what every image of a run is checked against.
type crashCheck struct {
	t         *testing.T
	o         *oracleRun
	seed      int64
	fr        *obs.FlightRecorder
	ids       []string                     // by session
	hist      [][]oracleEvent              // by session
	committed map[string]map[string]uint64 // by token, the points the committer saw
}

// recover recovers a private copy of img; arm, if set, arms a crash point on
// the copy's checkpoint store.
func (x *crashCheck) recover(img crashImage, arm func(*storage.Injector, crashImage)) (*Store, *RecoveryReport, crashImage, error) {
	cp := crashImage{ckpts: img.ckpts.Clone(), dev: img.dev.Clone()}
	inj := storage.NewInjector(storage.FaultConfig{})
	if arm != nil {
		arm(inj, cp)
	}
	cfg := x.o.config(x.fr, storage.NewFaultCheckpointStore(cp.ckpts, inj), cp.dev)
	s, err := Open(cfg)
	if err != nil {
		return nil, nil, cp, err
	}
	return s, s.RecoveryReport(), cp, nil
}

// damage damages img as r draws and says what recovering it must give: want,
// the newest commit the image holds whole ("" if none), over skip, the damaged
// newer ones, and whether an error carries the damage.
func (x *crashCheck) damage(img crashImage, r *rand.Rand) (tokens []string, want string, skip, damaged []string, faultIn func(error) bool) {
	names, _ := img.ckpts.List()
	tokens, _ = storage.RecordTokens(names) // newest first
	named := map[string][]string{}          // by token, the record and the blobs it names
	for _, tok := range tokens {
		named[tok] = []string{storage.RecordName(tok)}
		if rec, err := loadRecord(img.ckpts, tok); err == nil {
			named[tok] = append(named[tok], rec.blobs()...)
		}
	}
	hit := map[string]bool{}
	if img.torn != "" {
		hit[img.torn] = true
	}
	faultIn = func(err error) bool { return errors.Is(err, storage.ErrCorruptArtifact) }
	if len(tokens) > 0 && !hit[named[tokens[0]][0]] {
		switch arts := named[tokens[0]]; r.IntN(4) {
		case 2: // one bit of the newest record or of a blob it names
			n := arts[r.IntN(len(arts))]
			raw, _ := storage.ReadArtifact(img.ckpts, n)
			raw[r.IntN(len(raw))] ^= 1 << r.IntN(8)
			putRaw(x.t, img.ckpts, n, raw)
			hit[n] = true
		case 3: // an index image that verifies and does not decode
			if n := arts[r.IntN(len(arts))]; strings.HasPrefix(n, "index-") {
				bad := badImages(goldenIndex(x.t))
				kinds := sortedKeys(bad)
				if err := storage.WriteArtifactChecked(img.ckpts, n, bad[kinds[r.IntN(len(kinds))]]); err != nil {
					x.t.Fatal(err)
				}
				hit[n] = true
				// The index decoder has no sentinel error; the store names the artifact.
				faultIn = func(err error) bool { return strings.Contains(fmt.Sprint(err), n) }
			}
		}
	}
	for _, tok := range tokens {
		if !slices.ContainsFunc(named[tok], func(n string) bool { return hit[n] }) {
			return tokens, tok, skip, sortedKeys(hit), faultIn
		}
		skip = append(skip, tok)
	}
	return tokens, "", skip, sortedKeys(hit), faultIn
}

// check damages img as the seed draws, recovers it, checks the recovered
// store against the history cut at each session's recovered point, crashes it
// again before any commit and recovers that image twice.
func (x *crashCheck) check(i int, img crashImage) (bad []string) {
	r := rand.New(rand.NewPCG(uint64(x.seed), 1<<35+uint64(i)))
	tokens, want, skip, damaged, faultIn := x.damage(img, r)
	_ = r.IntN(2) // once the recovery mode; still drawn, so that every seed keeps its later draws
	var secondMu sync.Mutex
	var second *crashImage
	take := func(at string, cp crashImage) {
		secondMu.Lock()
		if second == nil {
			im := takeImage(at, "", cp.ckpts, cp.dev)
			second = &im
		}
		secondMu.Unlock()
	}
	var arm func(*storage.Injector, crashImage)
	if amend := []string{"", "before:", "after:"}[r.IntN(3)]; amend != "" && want != "" {
		// The recovery amends its record before it writes invalid bits.
		arm = func(inj *storage.Injector, cp crashImage) {
			point := amend + storage.RecordName(want)
			inj.Arm(point, func() { take(point, cp) })
		}
	}
	s, rep, cp, err := x.recover(img, arm)
	switch {
	case len(tokens) == 0 || want == "":
		if err == nil {
			s.Close()
		}
		if len(tokens) == 0 && (err != nil || rep != nil) {
			bad = append(bad, fmt.Sprintf("no commit record in the image, and Open says %v, recovering %+v", err, rep))
		} else if len(tokens) > 0 && (err == nil || !faultIn(err)) {
			bad = append(bad, fmt.Sprintf("damaged %v, no whole commit left, and recovery says %v", damaged, err))
		}
		return bad
	case err != nil:
		return append(bad, fmt.Sprintf("recovery: %v; want %s, damaged %v", err, want, damaged))
	}
	if rep.Token != want || !slices.Equal(skippedTokens(rep), skip) {
		bad = append(bad, fmt.Sprintf("recovered %s skipping %v; the image's newest whole commit is %s over %v (damaged %v)", rep.Token, skippedTokens(rep), want, skip, damaged))
	}
	sessions, points := make([]*Session, len(x.ids)), make([]uint64, len(x.ids))
	for w, id := range x.ids {
		sessions[w], points[w] = s.ContinueSession(id)
		if last := x.hist[w][len(x.hist[w])-1].serial; points[w] > last {
			bad = append(bad, fmt.Sprintf("session %d recovers point %d past its last serial %d", w, points[w], last))
		}
		for _, tok := range tokens[len(skip):] {
			if p := x.committed[tok][id]; points[w] < p {
				bad = append(bad, fmt.Sprintf("session %d recovers point %d; commit %s, whose record is in the image, had %d", w, points[w], tok, p))
			}
		}
	}
	// A few ops the second crash must lose, then that crash.
	var extra []oracleEvent
	for w, sess := range sessions {
		for j := range 4 {
			e := oracleEvent{kind: opRMW, key: uint64(r.IntN(x.o.hot)), val: 1, st: Ok, inv: math.MaxUint64/2 + uint64(len(extra))*2}
			if e.key%2 == 0 {
				e.st = sess.RMW(key(e.key), u64(1))
			} else {
				e.kind, e.val = opUpsert, 1<<63|uint64(w)<<8|uint64(j)
				e.st = sess.Upsert(key(e.key), registerValue(e.val, 8))
			}
			if e.st == Pending {
				e.st = Ok
				if sess.CompletePending(true) != 0 {
					e.st = Error
				}
			}
			e.ack = e.inv + 1
			extra = append(extra, e)
		}
	}
	take("after a few ops through ContinueSession", cp)
	bad = append(bad, x.checkStore(s, points, extra)...)
	// A fresh commit's token is past every token in the image.
	if res := driveCommit(x.t, s, sessions, CommitOptions{}); res.Token <= tokens[0] {
		bad = append(bad, fmt.Sprintf("a commit after recovery takes token %s, not past %s", res.Token, tokens[0]))
	}
	for _, sess := range sessions {
		sess.StopSession()
	}
	s.Close()

	// The second crash lands on the same commit, skipping the same damaged
	// ones; two recoveries of it replay and neutralise the same records.
	secondMu.Lock()
	img2 := *second
	secondMu.Unlock()
	var counts []string
	for range 2 {
		s2, rep2, _, err := x.recover(img2, nil)
		if err != nil || rep2.Token != want || !slices.Equal(skippedTokens(rep2), skip) {
			return append(bad, fmt.Sprintf("second crash (%s): recovered %+v: %v; the first recovery %+v", img2.at, rep2, err, rep))
		}
		for w, id := range x.ids {
			sess, p := s2.ContinueSession(id)
			if p != points[w] {
				bad = append(bad, fmt.Sprintf("second crash: session %d recovers point %d, the first recovery %d", w, p, points[w]))
			}
			sess.StopSession()
		}
		bad = append(bad, x.checkStore(s2, points, nil)...)
		c, err := replayCounts(s2)
		if err != nil {
			bad = append(bad, fmt.Sprintf("second crash: scanning the replayed range: %v", err))
		}
		counts = append(counts, fmt.Sprint(c))
		s2.Close()
	}
	if counts[0] != counts[1] {
		bad = append(bad, fmt.Sprintf("second crash: two recoveries count %s and %s", counts[0], counts[1]))
	}
	return bad
}

// replayCounts is the valid and the invalid records in the range the
// recovery replayed: what it relinked, and the v+1 records it neutralised
// along with the installs that had lost their compare-and-swap.
func replayCounts(s *Store) (n [2]int, err error) {
	err = s.log.Scan(s.recoveredScanStart, s.log.Tail(), func(_ uint64, r hlog.RecordRef) bool {
		if r.Invalid() {
			n[1]++
		} else {
			n[0]++
		}
		return true
	})
	return n, err
}

// skippedTokens is the tokens rep skipped, newest first.
func skippedTokens(rep *RecoveryReport) (tokens []string) {
	for _, sk := range rep.Skipped {
		tokens = append(tokens, sk.Token)
	}
	return tokens
}

// sortedKeys is m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkStore reads every key of a recovered store and checks it against the
// history cut at points, followed by extra; then the index.
func (x *crashCheck) checkStore(s *Store, points []uint64, extra []oracleEvent) (bad []string) {
	reader := s.StartSession()
	final := make([]uint64, x.o.keys)
	var got Status
	var ok bool
	for k := range final {
		_, st := reader.Read(key(uint64(k)), func(v []byte, st Status) {
			if got = st; st == Ok {
				final[k], ok = decode(uint64(k), v)
			}
		})
		if st == Pending {
			reader.CompletePending(true)
		}
		if got == Ok && !ok || got != Ok && got != NotFound {
			bad = append(bad, fmt.Sprintf("key %d recovers a torn or foreign value, or reads %v", k, got))
		}
	}
	reader.StopSession()
	bad = append(bad, checkCut(x.hist, points, final, extra)...)
	bad = append(bad, checkIndex(s)...)
	return bad
}

// checkCut checks recovered values against the model at each session's
// recovered point: of session w's operations, exactly those with serial <=
// points[w] survive. A counter holds the sum of those RMWs' deltas that did
// not end in Error; a register, the value of one of those writes (absent: a
// delete, or none of them) that no other of them was invoked after it was
// acknowledged — the live window rule, with the history cut there. The
// writes of extra, issued after recovery, follow the cut.
func checkCut(hist [][]oracleEvent, points []uint64, final []uint64, extra []oracleEvent) (bad []string) {
	byKey := make([][]oracleEvent, len(final))
	add := func(e oracleEvent) {
		if e.kind != opRead && e.st != Error {
			byKey[e.key] = append(byKey[e.key], e)
		}
	}
	for w, evs := range hist {
		for _, e := range evs {
			if e.serial <= points[w] {
				add(e)
			}
		}
	}
	for _, e := range extra {
		add(e)
	}
	for k, writes := range byKey {
		var sum, lastInv uint64
		for _, e := range writes {
			sum, lastInv = sum+e.val, max(lastInv, e.inv)
		}
		ok := len(writes) == 0 && final[k] == 0
		for _, e := range writes {
			ok = ok || lastInv < e.ack && (e.kind == opUpsert && e.val == final[k] || e.kind == opDelete && final[k] == 0)
		}
		if k%2 == 0 && final[k] != sum {
			bad = append(bad, fmt.Sprintf("counter %d recovers %d; its RMWs up to the recovered points sum to %d", k, final[k], sum))
		} else if k%2 == 1 && !ok {
			bad = append(bad, fmt.Sprintf("register %d recovers %#x, which no last write up to the recovered points wrote", k, final[k]))
		}
	}
	return bad
}
