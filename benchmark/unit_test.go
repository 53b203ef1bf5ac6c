package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/inlog"
	"repro/internal/storage"
)

// Every test here is deterministic: none of them judges a wall-clock time.

func TestStreamDependsOnSeedAlone(t *testing.T) {
	m := mix{keys: 5000, theta: 0.99, readPct: 50, write: opRMW}
	a, b := genStream(1, 0, 2, m), genStream(1, 0, 2, m)
	if a.hash() != b.hash() {
		t.Fatalf("same seed, different streams: %x vs %x", a.hash(), b.hash())
	}
	if c := genStream(2, 0, 2, m); c.hash() == a.hash() {
		t.Fatalf("seeds 1 and 2 gave the same stream %x", a.hash())
	}
	if c := genStream(1, 1, 2, m); c.hash() == a.hash() {
		t.Fatalf("clients 0 and 1 gave the same stream %x", a.hash())
	}
	reads := 0
	for _, e := range a.ops {
		if k := e & (1<<30 - 1); int(k) >= m.keys {
			t.Fatalf("key %d outside [0,%d)", k, m.keys)
		}
		if opKind(e>>30) == opRead {
			reads++
		} else if e&1 != 0 {
			t.Fatalf("client 0 of 2 writes key %d: every counter has one writer, its keys are the even ones", e&(1<<30-1))
		}
	}
	if share := float64(reads) / streamLen; share < 0.49 || share > 0.51 {
		t.Fatalf("read share %.3f, want 0.50", share)
	}
}

func TestStreamCanaryAndCycle(t *testing.T) {
	s := genStream(3, 1, 2, mix{keys: 100, readPct: 90, write: opUpsert})
	if kind, key := s.at(canaryEvery); kind != opUpsert || key != 101 {
		t.Fatalf("serial %d = %v of key %d, want the canary upsert of key 101", canaryEvery, kind, key)
	}
	k1, key1 := s.at(7)
	k2, key2 := s.at(7 + streamLen)
	if k1 != k2 || key1 != key2 {
		t.Fatal("stream does not cycle after streamLen entries")
	}
}

func TestTaggedValues(t *testing.T) {
	streams := []*stream{genStream(1, 0, 1, mix{keys: 1000, readPct: 0, write: opUpsert})}
	n := uint64(17)
	key := streams[0].keyAt(n)
	v := make([]byte, 64)
	fillTagged(v, makeTag(key, 0, n))
	if k, c, sn := splitTag(leU64(v)); k != key || c != 0 || sn != n {
		t.Fatalf("tag round trip: got key %d client %d serial %d", k, c, sn)
	}
	if !checkTagged(v, key, 64, streams, nil) {
		t.Fatal("a value the stream wrote was rejected")
	}
	if checkTagged(v, key+1, 64, streams, nil) {
		t.Fatal("value accepted under the wrong key")
	}
	if checkTagged(v, key, 64, streams, []uint64{n - 1}) {
		t.Fatal("value from beyond the recovered point accepted")
	}
	v[40] ^= 1
	if checkTagged(v, key, 64, streams, nil) {
		t.Fatal("value with damaged filler accepted")
	}
	fillTagged(v, makeTag(key, 0, n+1)) // the stream has another key at n+1 (or a different op)
	if streams[0].keyAt(n+1) != key && checkTagged(v, key, 64, streams, nil) {
		t.Fatal("value naming a write the stream never made accepted")
	}
	fillTagged(v, makeTag(key, loaderClient, 0))
	if !checkTagged(v, key, 64, streams, []uint64{0}) {
		t.Fatal("the loaded value was rejected")
	}
}

func TestQuantilesAndTenBeyondRule(t *testing.T) {
	s := make([]float64, 101)
	for i := range s {
		s[i] = float64(i)
	}
	if got := quantile(s, 0.5); got != 50 {
		t.Fatalf("median = %v", got)
	}
	if got := quantile(s, 0.995); math.Abs(got-99.5) > 1e-9 {
		t.Fatalf("p99.5 = %v, want 99.5 (interpolated)", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median of four = %v", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}, {1_000_000, 0.99999}} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sum := summarize(s)
	if sum.N != 101 || sum.TopP != 0.9 || sum.TopValue != 90 {
		t.Fatalf("summarize: %+v", sum)
	}
}

func TestHistQuantile(t *testing.T) {
	prev := make([]uint64, 48)
	cur := make([]uint64, 48)
	prev[5], cur[5] = 100, 100 // all before the window: must not count
	cur[11] = 10               // values in [1024, 2048)
	cur[12] = 10               // values in [2048, 4096)
	if got := histQuantile(cur, prev, 0.5); got != 2048 {
		t.Fatalf("p50 = %v, want 2048 (top of the first bucket)", got)
	}
	if got := histQuantile(cur, prev, 0.75); got != 3072 {
		t.Fatalf("p75 = %v, want 3072 (middle of the second bucket)", got)
	}
	if got := histQuantile(prev, prev, 0.5); got != 0 {
		t.Fatalf("empty delta = %v, want 0", got)
	}
}

// The hand-built tree: batch [0,100] holds read [10,30] and pending [40,90];
// pending holds device read [50,70]. A second top-level batch [100,120] has
// no children; one unfinished span and one orphan are ignored.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Start: 0, End: 100, Parent: -1, Name: spBatch},
		{Start: 10, End: 30, Parent: 0, Name: spRead},
		{Start: 40, End: 90, Parent: 0, Name: spCompletePending},
		{Start: 50, End: 70, Parent: 2, Name: spDevRead},
		{Start: 100, End: 120, Parent: -1, Name: spBatch},
		{Start: 120, End: 0, Parent: -1, Name: spBatch}, // still open
	}
	got := selfTimes(spans, 0)
	want := map[string]spanStat{
		"client.batch":            {Count: 2, TotalNs: 120, SelfNs: 50},
		"Session.Read":            {Count: 1, TotalNs: 20, SelfNs: 20},
		"Session.CompletePending": {Count: 1, TotalNs: 50, SelfNs: 30},
		"Device.ReadAt":           {Count: 1, TotalNs: 20, SelfNs: 20},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d names, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if g := got[name]; g == nil || *g != w {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
	if c := coverage(spans); c != 1 {
		t.Errorf("coverage = %v, want 1 (the two batches abut)", c)
	}
	// The same spans seen through a ring that has overwritten the first one:
	// its children are orphans and must not be counted as top-level.
	got = selfTimes(spans[1:], 1)
	if g := got["Session.Read"]; g != nil {
		t.Errorf("orphan read counted: %+v", g)
	}
	if g := got["client.batch"]; g == nil || g.Count != 1 || g.SelfNs != 20 {
		t.Errorf("second batch after wrap: %+v", g)
	}
}

func TestRingWrapsAndNests(t *testing.T) {
	r := &ring{client: 0, buf: make([]span, 4), open: make([]int64, 0, 4)}
	for i := int64(0); i < 3; i++ {
		b := r.begin(spBatch, i*10)
		r.leaf(spRead, i*10+1, i*10+2)
		r.end(b, i*10+5)
	}
	spans, first := r.retained()
	if first != 2 || len(spans) != 4 {
		t.Fatalf("retained %d spans from seq %d, want 4 from 2", len(spans), first)
	}
	if spans[0].Name != spBatch || spans[1].Parent != 2 || spans[3].Parent != 4 {
		t.Fatalf("nesting lost across the wrap: %+v", spans)
	}
	var nilRing *ring
	nilRing.sharedLeaf(spDevRead, 1, 2) // tracing off: must be a no-op
}

func gate(name, better string, bound float64) gatedMetric {
	return gatedMetric{Name: name, Better: better, Bound: bound}
}

func setOf(values map[string]float64) runSet {
	m := make(map[string]metricValue)
	for k, v := range values {
		m[k] = metricValue{Value: v}
	}
	return runSet{Workloads: map[string]workloadSet{"w": {
		EndToEnd: result{Correct: true, Attempted: 1000, Metrics: m},
		PerLayer: result{Correct: true, Attempted: 500},
	}}}
}

// failing is a with one failed op in its traced run.
func failing(a runSet) runSet {
	ws := a.Workloads["w"]
	ws.PerLayer.Correct, ws.PerLayer.Failed = false, 1
	return runSet{Workloads: map[string]workloadSet{"w": ws}}
}

func TestCompareSets(t *testing.T) {
	gates := []gatedMetric{gate("ops_per_s", "higher", 0.05), gate("op_p50_us", "lower", 0.10)}
	a := setOf(map[string]float64{"ops_per_s": 1000, "op_p50_us": 10})
	for _, c := range []struct {
		name     string
		b        runSet
		breaches int
		mention  string
	}{
		{"equal", a, 0, "ok"},
		{"inside both bounds", setOf(map[string]float64{"ops_per_s": 960, "op_p50_us": 10.9}), 0, "0.9600"},
		{"better in both directions", setOf(map[string]float64{"ops_per_s": 2000, "op_p50_us": 1}), 0, "ok"},
		{"throughput down 6%", setOf(map[string]float64{"ops_per_s": 940, "op_p50_us": 10}), 1, "worse by 6.0% of A, bound 5.0%"},
		{"latency up 11%", setOf(map[string]float64{"ops_per_s": 1000, "op_p50_us": 11.1}), 1, "worse by 11.0% of A, bound 10.0%"},
		{"metric missing in B", setOf(map[string]float64{"ops_per_s": 1000}), 1, "present on one side only"},
		{"one failed op in B", failing(a), 1, "BREACH: a run is missing, incorrect or had failed ops"},
	} {
		var out bytes.Buffer
		if got := compareSets(&out, gates, a, c.b); got != c.breaches {
			t.Errorf("%s: %d breaches, want %d\n%s", c.name, got, c.breaches, out.String())
		}
		if !strings.Contains(out.String(), c.mention) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.mention, out.String())
		}
	}
	var out bytes.Buffer
	onlyB := runSet{Workloads: map[string]workloadSet{"other": a.Workloads["w"]}}
	if got := compareSets(&out, gates, a, onlyB); got != 6 {
		t.Errorf("disjoint workloads: %d breaches, want 6 (every metric one-sided, every workload missing a run)\n%s", got, out.String())
	}
}

func TestCountDevicePassesThrough(t *testing.T) {
	inner := storage.NewMemDevice()
	st := newIOStats(spDevRead, spDevWrite, spDevSync, nil)
	d := &countDevice{inner: inner, st: st}
	payload := []byte("concurrent prefix recovery")
	if n, err := d.WriteAt(payload, 100); n != len(payload) || err != nil {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	got := make([]byte, len(payload))
	if n, err := inner.ReadAt(got, 100); n != len(payload) || err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("inner device holds %q (%d, %v)", got, n, err)
	}
	clear(got)
	if n, err := d.ReadAt(got, 100); n != len(payload) || err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ReadAt = %q (%d, %v)", got, n, err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if d.Size() != inner.Size() || d.Size() != 100+int64(len(payload)) {
		t.Fatalf("Size = %d, inner %d", d.Size(), inner.Size())
	}
	snap := st.snapshot()
	if snap != (ioSnapshot{reads: 1, readBytes: int64(len(payload)), writes: 1, writeBytes: int64(len(payload)), syncs: 1}) {
		t.Fatalf("counters: %+v", snap)
	}
	if r, w, s := st.samples(); len(r) != 1 || len(w) != 1 || len(s) != 1 {
		t.Fatalf("latency samples: %d reads, %d writes, %d syncs", len(r), len(w), len(s))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAt(got, 0); err != storage.ErrClosed {
		t.Fatalf("read after Close: %v, want the inner device's ErrClosed", err)
	}
}

func TestCountCkptPassesThrough(t *testing.T) {
	inner := storage.NewMemCheckpointStore()
	c := newCountCkpt(inner, nil)
	w, err := c.Create("meta-1")
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("hello ")) //nolint:errcheck // in-memory
	w.Write([]byte("world"))  //nolint:errcheck // in-memory
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := c.Open("meta-1")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(r)
	r.Close()
	if direct, _ := storage.ReadArtifact(inner, "meta-1"); string(got) != "hello world" || !bytes.Equal(direct, got) {
		t.Fatalf("artifact = %q through the wrapper, %q directly", got, direct)
	}
	if _, err := c.Open("absent"); err == nil {
		t.Fatal("Open of a missing artifact succeeded")
	}
	if names, _ := c.List(); len(names) != 1 || names[0] != "meta-1" {
		t.Fatalf("List = %v", names)
	}
	if c.writes.Load() != 1 || c.writeBytes.Load() != 11 || c.liveBytes() != 11 {
		t.Fatalf("counted %d writes, %d bytes, %d live", c.writes.Load(), c.writeBytes.Load(), c.liveBytes())
	}
	if err := c.Remove("meta-1"); err != nil || c.liveBytes() != 0 {
		t.Fatalf("Remove: %v, %d bytes still live", err, c.liveBytes())
	}
	if err := c.Remove("meta-1"); err == nil {
		t.Fatal("removing a missing artifact succeeded; the inner store's error was swallowed")
	}
}

func TestCountSegStorePassesThrough(t *testing.T) {
	inner := inlog.NewMemSegmentStore()
	st := newIOStats(spDevRead, spSegWrite, spSegSync, nil)
	s := newCountSegStore(inner, st)
	d, err := s.Open(64)
	if err != nil {
		t.Fatal(err)
	}
	var rec [8]byte
	binary.LittleEndian.PutUint64(rec[:], 42)
	d.WriteAt(rec[:], 0) //nolint:errcheck // in-memory
	if bases, _ := s.List(); len(bases) != 1 || bases[0] != 64 {
		t.Fatalf("List = %v", bases)
	}
	direct, _ := inner.Open(64)
	var got [8]byte
	direct.ReadAt(got[:], 0) //nolint:errcheck // in-memory
	if got != rec || s.liveBytes() != 8 || st.writeBytes.Load() != 8 {
		t.Fatalf("segment holds %v, %d live bytes, %d counted", got, s.liveBytes(), st.writeBytes.Load())
	}
	if err := s.Remove(64); err != nil || s.liveBytes() != 0 {
		t.Fatalf("Remove: %v, %d bytes still live", err, s.liveBytes())
	}
}
