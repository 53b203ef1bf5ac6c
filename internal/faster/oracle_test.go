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

// The oracle checks the live half of the CPR contract (DESIGN "Checking the
// contract"): a seed draws sessions, a committer, a compactor between device
// read outages and each hook decision; every operation's invocation and
// acknowledgement is a tick of one clock, and the history is checked against a
// model written from the definitions — even keys counters (RMW only), odd keys
// last-write registers. The threads are real: a rerun of a seed explores the
// neighbourhood of an interleaving rather than replaying it.

// pinnedSeeds fail, 10 runs of 10, with a race this store had put back
// (EXPERIMENTS "The seeded oracle").
var pinnedSeeds = []struct {
	bug  string
	seed int64
}{
	{"load-after-allocate", 11},
	{"eviction-edge-read", 103},
	{"dropped-parked-write", 14},
	{"begin-inside-a-record", 13},
}

// sweepLen seeds run after the pinned ones; each run of TestOracle takes the
// next block, so -count=n sweeps n blocks. A seed named in -run
// (TestOracle/seed=N) runs alone, whatever block it is in.
const sweepLen = 4

var (
	sweepBlock int
	seedInRun  = regexp.MustCompile(`seed=(\d+)`)
)

func TestOracle(t *testing.T) {
	for _, p := range pinnedSeeds {
		t.Run(p.bug, func(t *testing.T) { runOracle(t, p.seed, p.bug) })
	}
	first := int64(len(pinnedSeeds) + sweepBlock*sweepLen + 1)
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
	buckets, memPages, shards     int           // the first two per shard
	writeBW                       int64         // device write bytes/s; 0: unthrottled
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
// meaning absent. inv and ack are ticks of the run's clock.
type oracleEvent struct {
	kind     opKind
	st       Status
	key, val uint64
	inv, ack uint64
}

// scheduler is the hook the sites call. Step n hashes (seed, n) to carry on,
// yield once, or step aside until the others have taken up to 64 steps.
type scheduler struct {
	seed  uint64
	rate  [epoch.NumSites]uint64
	steps atomic.Uint64
}

func (s *scheduler) at(site epoch.Site) {
	n := s.steps.Add(1)
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
	o.shards = testShardCount(1)
	var down, done atomic.Bool
	var faults atomic.Int64
	fr := obs.NewFlightRecorder(1 << 12)
	sched := &scheduler{seed: uint64(seed), rate: o.yieldPerMille}
	epoch.SetYieldHook(sched.at)
	defer epoch.SetYieldHook(nil)
	s, err := Open(Config{Shards: o.shards, IndexBuckets: o.buckets * o.shards, PageBits: 12, MemPages: o.memPages * o.shards,
		Transfer: o.transfer, Flight: fr, DeviceFactory: func(int) (storage.Device, error) {
			dev := storage.NewMemDevice()
			dev.WriteBandwidth = o.writeBW
			return outageDevice{dev, &down, &faults}, nil
		}})
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
	var sessions, others sync.WaitGroup
	clients := make([]*oracleSession, o.sessions)
	for w := range clients {
		c := &oracleSession{o: &o, sess: s.StartSession(), w: w, clock: &clock, fail: fail,
			rng: rand.New(rand.NewPCG(uint64(seed), uint64(w)+1))}
		clients[w] = c
		sessions.Add(1)
		go func() {
			defer sessions.Done()
			c.run()
			c.sess.StopSession()
		}()
	}
	commits, compactions := 0, 0
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
				err = res.Err
				commits++
			}
			if err != nil && !errors.Is(err, ErrCommitInProgress) && !errors.Is(err, errOutage) {
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
	for _, sh := range s.shards {
		problems = append(problems, checkIndex(sh)...)
	}
	var hist []oracleEvent
	errs := 0
	for _, c := range clients {
		hist, errs = append(hist, c.hist...), errs+c.errs
	}
	if errs > 0 && faults.Load() == 0 {
		fail("%d operations ended in Error, and the device failed none of its reads", errs)
	}
	problems = append(problems, checkHistory(hist, final)...)

	t.Logf("%d ops, %d commits, %d compactions, %d device faults, %d hook steps", len(hist), commits, compactions, faults.Load(), sched.steps.Load())
	if len(problems) == 0 {
		return
	}
	evs, _ := fr.Events()
	var b strings.Builder
	for _, e := range evs[max(len(evs)-40, 0):] {
		fmt.Fprintf(&b, "\n  %s", e.Describe())
	}
	t.Errorf("%d problems, the first:\n  %s\ndraw: %+v\nreplay: FASTER_TEST_SHARDS=%d go test -run 'TestOracle/%s$' ./internal/faster/\nthe flight recorder's last events:%s",
		len(problems), strings.Join(problems[:min(len(problems), 12)], "\n  "), o, o.shards, name, b.String())
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
func checkIndex(sh *shard) (bad []string) {
	idx, low := sh.index, max(sh.log.Head(), sh.log.Begin(), hlog.FirstAddress)
	for m := range idx.buckets {
		seen := map[uint64]bool{}
		for b := &idx.buckets[m]; b != nil; {
			for i := range b.entries {
				entry := b.entries[i].Load()
				if entry&entryTentative != 0 || entry != 0 && seen[entry&entryTagMask] {
					bad = append(bad, fmt.Sprintf("shard %d bucket %d: entry %#x tentative or of a tag seen before", sh.id, m, entry))
				}
				seen[entry&entryTagMask] = entry != 0
				for addr, steps := entryAddr(entry), 0; addr >= low; steps++ {
					rec := sh.log.Record(addr)
					k, prev := rec.Key(nil), rec.Prev()
					if h := hashfn.Hash64(k); len(k) != 8 || h&idx.mask != uint64(m) || tagOf(h) != entry&entryTagMask || prev >= addr || steps > 1<<16 {
						bad = append(bad, fmt.Sprintf("shard %d bucket %d: record at %d (key %x, prev %d) under entry %#x", sh.id, m, addr, k, prev, entry))
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
