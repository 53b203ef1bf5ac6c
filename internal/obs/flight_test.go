package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestFlightEmitAndEvents(t *testing.T) {
	f := obs.NewFlightRecorder(64)
	f.Emit(obs.FlightCommitStart, -1, 7, "ckpt-000007", "", 0, 0)
	f.Emit(obs.FlightPhase, 2, 7, "ckpt-000007", "", 1, 2)
	f.Emit(obs.FlightDemarcate, 0, 7, "ckpt-000007", "sess-a", 123, 0)
	f.Emit(obs.FlightPersistDone, 1, 7, "ckpt-000007", "", 4096, 0)

	evs, dropped := f.Events()
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	// Events come back merged in capture order.
	for i := 1; i < len(evs); i++ {
		if evs[i].AtNanos < evs[i-1].AtNanos {
			t.Fatalf("events out of order: %d before %d", evs[i].AtNanos, evs[i-1].AtNanos)
		}
	}
	byKind := map[obs.FlightKind]obs.FlightEvent{}
	for _, e := range evs {
		byKind[e.Kind] = e
	}
	if e := byKind[obs.FlightCommitStart]; e.Shard != -1 || e.Token != "ckpt-000007" || e.Version != 7 {
		t.Fatalf("commit-start event mangled: %+v", e)
	}
	if e := byKind[obs.FlightDemarcate]; e.Session != "sess-a" || e.Arg1 != 123 || e.Shard != 0 {
		t.Fatalf("demarcate event mangled: %+v", e)
	}
	if e := byKind[obs.FlightPhase]; e.Arg1 != 1 || e.Arg2 != 2 || e.Shard != 2 {
		t.Fatalf("phase event mangled: %+v", e)
	}
}

// TestFlightKindNumbers pins every kind's number and name: both are written
// into dumps, so a kind that moves makes an older dump decode as other kinds.
// The two numbers of deleted kinds stay reserved and have no name.
func TestFlightKindNumbers(t *testing.T) {
	kinds := []struct {
		kind obs.FlightKind
		name string
	}{
		{obs.FlightNone, "none"},
		{obs.FlightEpochBump, "epoch-bump"},
		{obs.FlightEpochDrain, "epoch-drain"},
		{obs.FlightPhase, "phase"},
		{obs.FlightAckPrepare, "ack-prepare"},
		{obs.FlightDemarcate, "demarcate"},
		{obs.FlightDrop, "drop"},
		{obs.FlightCommitStart, "commit-start"},
		{obs.FlightPersistDone, "persist-done"},
		{obs.FlightCommitDone, "commit-done"},
		{obs.FlightCommitFail, "commit-fail"},
		{obs.FlightCommitAnnounced, "commit-announced"},
		{obs.FlightFlush, "flush"},
		{obs.FlightPageCRC, "page-crc"},
		{obs.FlightArtifactWrite, "artifact-write"},
		{obs.FlightArtifactRetry, "artifact-retry"},
		{obs.FlightFaultInjected, "fault-injected"},
		{obs.FlightCrashPoint, "crash-point"},
		{obs.FlightReplShip, "repl-ship"},
		{obs.FlightReplInstall, "repl-install"},
		{obs.FlightReplPromote, "repl-promote"},
		{obs.FlightRecoverVerdict, "recover-verdict"},
		{obs.FlightRecoverFallback, "recover-fallback"},
		{obs.FlightInlogAppend, "inlog-append"},
		{obs.FlightInlogFsync, "inlog-fsync"},
		{obs.FlightInlogApply, "inlog-apply"},
		{obs.FlightInlogWatermark, "inlog-watermark"},
		{obs.FlightInlogTrim, "inlog-trim"},
		{obs.FlightInlogReplay, "inlog-replay"},
		{29, "kind(29)"}, // reserved: warm-bucket
		{30, "kind(30)"}, // reserved: sweep
		{obs.FlightHealthFire, "health-fire"},
		{obs.FlightHealthClear, "health-clear"},
		{33, "kind(33)"}, // past the last kind
	}
	for n, c := range kinds {
		if int(c.kind) != n || c.kind.String() != c.name {
			t.Errorf("kind %q is number %d, named %q; want number %d", c.name, c.kind, c.kind.String(), n)
		}
		b, err := json.Marshal(c.kind)
		if err != nil {
			t.Fatal(err)
		}
		var back obs.FlightKind
		err = json.Unmarshal(b, &back)
		if named := c.name != fmt.Sprintf("kind(%d)", n); named && (err != nil || back != c.kind) {
			t.Errorf("kind %q decodes as %v, %v", c.name, back, err)
		} else if !named && err == nil {
			t.Errorf("name %s decodes as kind %d", b, back)
		}
	}
}

func TestFlightNilSafety(t *testing.T) {
	var f *obs.FlightRecorder
	f.Emit(obs.FlightFlush, 0, 1, "tok", "sess", 1, 2) // must not panic
	if evs, dropped := f.Events(); len(evs) != 0 || dropped != 0 {
		t.Fatalf("nil recorder returned events")
	}
	if f.WallStart() != 0 {
		t.Fatalf("nil recorder WallStart != 0")
	}
}

func TestFlightEmitAllocFree(t *testing.T) {
	f := obs.NewFlightRecorder(64)
	token, session := "ckpt-000042", "sess-abcdef"
	if n := testing.AllocsPerRun(1000, func() {
		f.Emit(obs.FlightFlush, 3, 42, token, session, 512, 99)
	}); n != 0 {
		t.Fatalf("Emit allocates %.1f times per call, want 0", n)
	}
}

// TestFlightWraparoundNeverTorn hammers a deliberately tiny recorder from
// many goroutines until every ring has lapped several times, then checks two
// things: wraparound drops the oldest events (the retained+dropped totals
// add back up to everything emitted), and no surviving event is torn — each
// event's fields are cross-correlated, so a mixed-up slot is detectable.
// Run under -race to also exercise the seqlock protocol. Once with a kind of
// the event ring, once with one of the lifecycle ring.
func TestFlightWraparoundNeverTorn(t *testing.T) {
	for _, kind := range []obs.FlightKind{obs.FlightFlush, obs.FlightArtifactWrite} {
		t.Run(kind.String(), func(t *testing.T) { flightWraparoundNeverTorn(t, kind) })
	}
}

func flightWraparoundNeverTorn(t *testing.T, kind obs.FlightKind) {
	const (
		writers   = 8
		perWriter = 30_000
	)
	f := obs.NewFlightRecorder(64) // minimum capacity: guarantees lapping

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			token := fmt.Sprintf("ckpt-%06d", w)
			session := fmt.Sprintf("sess-%02d", w)
			for i := 0; i < perWriter; i++ {
				x := uint64(w)<<32 | uint64(i)
				// arg2 is a deterministic function of arg1; version echoes
				// the writer. A torn slot breaks at least one relation.
				f.Emit(kind, w, uint64(w)+1, token, session, x, x^0x5bd1e995)
			}
		}()
	}
	wg.Wait()

	evs, dropped := f.Events()
	if dropped == 0 {
		t.Fatalf("expected wraparound drops with capacity 64 and %d events", writers*perWriter)
	}
	if got, want := uint64(len(evs))+dropped, uint64(writers*perWriter); got != want {
		t.Fatalf("retained %d + dropped %d = %d events, emitted %d", len(evs), dropped, got, want)
	}
	for _, e := range evs {
		w := int(e.Arg1 >> 32)
		if w < 0 || w >= writers {
			t.Fatalf("torn event: writer %d out of range: %+v", w, e)
		}
		if e.Arg2 != e.Arg1^0x5bd1e995 {
			t.Fatalf("torn event: arg2 %x does not match arg1 %x: %+v", e.Arg2, e.Arg1, e)
		}
		if e.Shard != w || e.Version != uint64(w)+1 {
			t.Fatalf("torn event: shard/version do not match writer %d: %+v", w, e)
		}
		if e.Token != fmt.Sprintf("ckpt-%06d", w) || e.Session != fmt.Sprintf("sess-%02d", w) {
			t.Fatalf("torn event: token/session do not match writer %d: %+v", w, e)
		}
	}
}

// TestFlightDumpRoundTrip: a dump survives its one encoding, JSON — kinds as
// their stable names, the 31-byte crash-point token unclipped.
func TestFlightDumpRoundTrip(t *testing.T) {
	f := obs.NewFlightRecorder(64)
	f.Emit(obs.FlightCommitStart, -1, 9, "ckpt-000009", "", 0, 0)
	f.Emit(obs.FlightArtifactWrite, 1, 9, "shard1/meta-ckpt-000009", "", 2048, 0)
	f.Emit(obs.FlightCrashPoint, -1, 0, "before:cpr-manifest-ckpt-000009", "", 0, 0)
	f.Emit(obs.FlightPageCRC, 1, 0, "", "", 3, 0xdeadbeef)

	want := f.Dump()
	buf, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf, []byte(`"crash-point"`)) {
		t.Fatalf("kinds not encoded by name: %s", buf)
	}
	var got obs.FlightDump
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.WallStartNanos != f.WallStart() || len(want.Events) != 4 || !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

// TestFlightLifecycleSurvivesIngest: the events of 64 commits, emitted while
// four goroutines emit 20 000 events of the kinds an ingest server produces by
// the thousand, are all still there afterwards — every transition is on the
// timeline — and what was dropped was dropped from the other rings.
func TestFlightLifecycleSurvivesIngest(t *testing.T) {
	const commits, noisy, perNoisy = 64, 4, 5000
	f := obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	var wg sync.WaitGroup
	for g := 0; g < noisy; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < perNoisy; i++ {
				kind := [...]obs.FlightKind{obs.FlightInlogFsync, obs.FlightPageCRC, obs.FlightEpochBump}[i%3]
				f.Emit(kind, 0, 0, "", "", i, i)
			}
		}()
	}
	lifecycle := 0
	for c := 1; c <= commits; c++ {
		token := fmt.Sprintf("ckpt-%06d", c)
		emit := func(kind obs.FlightKind, shard int, session string, arg1, arg2 uint64) {
			f.Emit(kind, shard, uint64(c), token, session, arg1, arg2)
			lifecycle++
		}
		emit(obs.FlightCommitStart, 0, "", 0, 0)
		for p := uint64(0); p < 5; p++ {
			emit(obs.FlightPhase, 0, "", p, (p+1)%5)
			if p < 2 {
				emit(obs.FlightAckPrepare+obs.FlightKind(p), 0, "sess-a", uint64(c), 0)
			}
		}
		emit(obs.FlightPersistDone, 0, "", 4096, 0)
		emit(obs.FlightArtifactWrite, -1, "", 64, 0)
		emit(obs.FlightCommitDone, -1, "", 4096, 0)
		emit(obs.FlightInlogWatermark, -1, "inlog-pump", uint64(c), uint64(c))
		emit(obs.FlightInlogTrim, -1, "", uint64(c), 1<<20)
		runtime.Gosched()
	}
	wg.Wait()

	evs, dropped := f.Events()
	kept := 0
	for _, e := range evs {
		if e.Token != "" {
			kept++
		}
	}
	if kept != lifecycle {
		t.Fatalf("%d of %d lifecycle events retained", kept, lifecycle)
	}
	if dropped == 0 || uint64(len(evs))+dropped != uint64(lifecycle+noisy*perNoisy) {
		t.Fatalf("retained %d + dropped %d, emitted %d lifecycle + %d others", len(evs), dropped, lifecycle, noisy*perNoisy)
	}
	phases := map[string]int{}
	for _, e := range f.Tracer().Timeline().Events {
		if e.Kind == obs.KindPhase {
			phases[e.Token]++
		}
	}
	for c := 1; c <= commits; c++ {
		if token := fmt.Sprintf("ckpt-%06d", c); phases[token] != 5 {
			t.Fatalf("%s has %d transitions on the timeline, want 5", token, phases[token])
		}
	}
}

func TestFlightFilterByToken(t *testing.T) {
	f := obs.NewFlightRecorder(64)
	f.Emit(obs.FlightCommitStart, -1, 1, "ckpt-000001", "", 0, 0)
	f.Emit(obs.FlightArtifactWrite, 0, 1, "cpr-manifest-ckpt-000001", "", 100, 0)
	f.Emit(obs.FlightCommitStart, -1, 2, "ckpt-000002", "", 0, 0)
	f.Emit(obs.FlightEpochBump, 0, 0, "", "", 3, 0)
	evs, _ := f.Events()

	got := obs.FilterFlightEvents(evs, "ckpt-000001")
	if len(got) != 2 {
		t.Fatalf("filter kept %d events, want 2 (commit-start + containing artifact name)", len(got))
	}
	for _, e := range got {
		if e.Token != "ckpt-000001" && e.Token != "cpr-manifest-ckpt-000001" {
			t.Fatalf("filter kept unrelated event %+v", e)
		}
	}
	if all := obs.FilterFlightEvents(evs, ""); len(all) != len(evs) {
		t.Fatalf("empty token filtered events out")
	}
}

// TestRegistrySnapshotDuringRegistration races Snapshot against concurrent
// metric registration and updates: late registration (e.g. a shard opening
// mid-run, or registerLagGauges after recovery) must never corrupt or wedge a
// concurrent scrape. Run under -race.
func TestRegistrySnapshotDuringRegistration(t *testing.T) {
	reg := obs.NewRegistry()
	const writers, per = 4, 200

	// A scraper snapshots continuously while writers register and update new
	// metrics of every type.
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Snapshot()
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				i := i
				reg.Counter(fmt.Sprintf("reg_race_counter_%d_%d", g, i)).Add(uint64(i))
				reg.Gauge(fmt.Sprintf("reg_race_gauge_%d_%d", g, i)).Set(int64(i))
				reg.Histogram(fmt.Sprintf("reg_race_hist_%d_%d", g, i)).ObserveValue(uint64(i))
				reg.GaugeFunc(fmt.Sprintf("reg_race_gf_%d_%d", g, i), func() int64 { return int64(i) })
			}
		}()
	}
	wg.Wait()
	close(stop)
	scraper.Wait()

	snap := reg.Snapshot()
	if got := len(snap.Counters); got != writers*per {
		t.Fatalf("final snapshot has %d counters, want %d", got, writers*per)
	}
	if got := len(snap.Histograms); got != writers*per {
		t.Fatalf("final snapshot has %d histograms, want %d", got, writers*per)
	}
	if got := len(snap.Gauges); got != 2*writers*per {
		t.Fatalf("final snapshot has %d gauges, want %d", got, 2*writers*per)
	}
}
