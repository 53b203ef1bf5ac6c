package faster

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"strings"
	"testing"
	"time"

	"repro/internal/epoch"
	"repro/internal/hashfn"
	"repro/internal/hlog"
	"repro/internal/storage"
)

// One crash image, built so that the recovered commit has a fuzzy window full
// of v+1 records on pages its own page checksums cover, and the three ways of
// arriving at a commit — full recovery, instant restore, a replica's install
// followed by promotion — checked against each other on it, and full and
// instant recovery checked against a second crash.

// fuzzyImage is that crash image: what the devices and the checkpoint store
// held at the crash, and what the newest commit must recover to.
type fuzzyImage struct {
	shards int
	devs   []*storage.MemDevice
	ckpts  *storage.MemCheckpointStore
	token  string // the newest commit: log-only, v+1 records below its log end
	ids    []string
	want   map[uint64][]byte // every live key's committed value
	gone   map[uint64]bool   // keys the committed suffix deleted
	fuzzy  []int             // per shard, v+1 records inside the commit's log
}

// config is a Config over a private copy of the image.
func (img *fuzzyImage) config() Config {
	return configOver(img.shards, cloneDevs(img.devs), img.ckpts.Clone())
}

func configOver(shards int, devs []*storage.MemDevice, ckpts *storage.MemCheckpointStore) Config {
	return Config{Shards: shards, IndexBuckets: shards << 9, PageBits: 12, MemPages: 8 * shards,
		Checkpoints:   ckpts,
		DeviceFactory: func(i int) (storage.Device, error) { return devs[i], nil }}
}

func cloneDevs(devs []*storage.MemDevice) []*storage.MemDevice {
	out := make([]*storage.MemDevice, len(devs))
	for i, d := range devs {
		out[i] = d.Clone()
	}
	return out
}

func fuzzyValue(k, gen uint64) []byte {
	v := make([]byte, 100) // 128-byte records: 32 to a 4 KiB page
	copy(v, u64(k))
	copy(v[8:], u64(gen))
	return v
}

// buildFuzzyImage runs two sessions over a store of 4 KiB pages: an index
// commit over the base keys, a suffix of overwrites, new keys and deletes, and
// then a log-only commit during which session B holds every shard in the
// in-progress phase — it has acknowledged prepare and does not refresh — while
// session A, already in v+1, writes several pages of records per shard. Those
// lie below the commit's log end, on pages that are flushed whole before the
// commit's page checksums are taken. One goroutine does all of it, so the
// image is the same every time.
func buildFuzzyImage(t *testing.T, shards int) *fuzzyImage {
	t.Helper()
	img := &fuzzyImage{shards: shards, ckpts: storage.NewMemCheckpointStore(),
		want: map[uint64][]byte{}, gone: map[uint64]bool{}, fuzzy: make([]int, shards)}
	for i := 0; i < shards; i++ {
		img.devs = append(img.devs, storage.NewMemDevice())
	}
	// Every page stays resident while the image is built: with B not
	// refreshing, A could not wait for a frame to be evicted. (Recoveries of
	// the image run with 8 frames a shard and find most of the log evicted.)
	cfg := configOver(shards, img.devs, img.ckpts)
	cfg.MemPages = 64 * shards
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.StartSession(), s.StartSession()
	img.ids = []string{a.ID(), b.ID()}
	put := func(sess *Session, k, gen uint64, committed bool) {
		if st := sess.Upsert(key(k), fuzzyValue(k, gen)); st == Pending {
			sess.CompletePending(true)
		}
		if committed {
			img.want[k] = fuzzyValue(k, gen)
			delete(img.gone, k)
		}
	}
	nBase := uint64(256 * shards)
	for k := uint64(0); k < nBase; k++ {
		put(a, k, 1, true)
	}
	put(b, 1<<40, 1, true)
	driveCommit(t, s, []*Session{a, b}, CommitOptions{WithIndex: true})
	for i := uint64(0); i < nBase; i++ {
		switch i % 3 {
		case 0:
			put(a, i, 2, true)
		case 1:
			put(a, nBase+i, 2, true) // a key only the suffix has
		case 2:
			k := i * 7 % nBase
			if st := a.Delete(key(k)); st == Pending {
				a.CompletePending(true)
			}
			delete(img.want, k)
			img.gone[k] = true
		}
	}

	if img.token, err = s.Commit(CommitOptions{}); err != nil {
		t.Fatal(err)
	}
	// The store moves to in-progress inside a refresh (the epoch drains
	// there), so right after the call that moved it nobody has seen it yet.
	for turn := 0; s.Phase() != InProgress; turn++ {
		if turn > 1000 {
			t.Fatalf("commit stuck in %v", s.Phase())
		}
		[]*Session{a, b}[turn%2].Refresh()
	}
	a.Refresh() // A crosses to v+1; B stays behind and holds the phase
	if a.phase != InProgress || b.phase != Prepare || s.Phase() != InProgress {
		t.Fatalf("A in %v, B in %v, store in %v", a.phase, b.phase, s.Phase())
	}
	for i := uint64(0); i < uint64(160*shards); i++ {
		k := i * 3 % (2 * nBase) // live keys, deleted keys and keys that never existed
		if i%2 == 1 {
			k = 3*nBase + i
		}
		put(a, k, 3, false)
		img.fuzzy[s.shardOf(hashfn.Hash64(key(k)))]++
	}
	for turn := 0; ; turn++ {
		if res, ok := s.TryResult(img.token); ok {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			break
		}
		if turn > 1_000_000 {
			t.Fatalf("commit %s stuck in %v", img.token, s.Phase())
		}
		a.Refresh()
		b.Refresh()
	}
	put(a, 5, 4, false) // and the crash loses what came after the commit
	img.devs, img.ckpts = cloneDevs(img.devs), img.ckpts.Clone()
	a.StopSession()
	b.StopSession()
	s.Close()
	return img
}

// fuzzyOnCoveredPages reads shard i's part of an image without recovering it:
// how many records of version v+1 the newest commit's log holds from its scan
// start on, how many of them on pages the commit's page checksums cover (and
// which pages those are), and how many records of the commit itself.
func (img *fuzzyImage) fuzzyOnCoveredPages(t *testing.T, i int) (fuzzy, covered, committed int, touched map[uint64]bool) {
	t.Helper()
	rec, err := loadRecord(img.ckpts, img.token)
	if err != nil {
		t.Fatal(err)
	}
	meta := &rec.Shards[i]
	onPage := map[uint64]bool{}
	for _, pc := range meta.PageCRCs {
		onPage[pc.Page] = true
	}
	l, err := hlog.New(hlog.Config{PageBits: 12, MemPages: 8, Device: img.devs[i].Clone(), Epochs: epoch.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.RecoverTo(meta.logEnd()); err != nil {
		t.Fatal(err)
	}
	touched = map[uint64]bool{}
	bound := new(shard)
	bound.futureFrom[rec.Version&1].Store(meta.Lhs)
	err = l.Scan(meta.scanStart(), meta.logEnd(), func(addr uint64, r hlog.RecordRef) bool {
		switch {
		case !bound.isFuture(r.Version(), addr, rec.Version):
			committed++
		case onPage[addr>>12]:
			covered++
			touched[addr>>12] = true
			fallthrough
		default:
			fuzzy++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return fuzzy, covered, committed, touched
}

// recoveredState is everything two recoveries of one image must agree on.
type recoveredState struct {
	indexes [][]byte // per shard, the index image
	devices [][]byte // per shard, the device's bytes
	record  []byte   // the commit's record, page checksums and all
	points  map[string]uint64
}

func captureState(t *testing.T, img *fuzzyImage, s *Store, cfg Config) recoveredState {
	t.Helper()
	s.mu.Lock()
	st := recoveredState{points: maps.Clone(s.recoveredSerials)}
	s.mu.Unlock()
	var err error
	if st.record, err = storage.ReadArtifact(cfg.Checkpoints, storage.RecordName(img.token)); err != nil {
		t.Fatal(err)
	}
	for _, sh := range s.shards {
		st.indexes = append(st.indexes, imageOf(sh.index))
		dev := make([]byte, sh.cfg.Device.Size())
		if _, err := sh.cfg.Device.ReadAt(dev, 0); err != nil {
			t.Fatal(err)
		}
		st.devices = append(st.devices, dev)
	}
	return st
}

func (st recoveredState) mustEqual(t *testing.T, label string, other recoveredState) {
	t.Helper()
	for i := range st.indexes {
		if !bytes.Equal(st.indexes[i], other.indexes[i]) {
			t.Fatalf("%s: shard %d index images differ (%d and %d bytes)", label, i, len(st.indexes[i]), len(other.indexes[i]))
		}
		if !bytes.Equal(st.devices[i], other.devices[i]) {
			t.Fatalf("%s: shard %d device contents differ (%d and %d bytes)", label, i, len(st.devices[i]), len(other.devices[i]))
		}
	}
	if !bytes.Equal(st.record, other.record) {
		t.Fatalf("%s: commit records differ:\n%s\n%s", label, st.record, other.record)
	}
	if fmt.Sprint(st.points) != fmt.Sprint(other.points) {
		t.Fatalf("%s: recovered points differ: %v and %v", label, st.points, other.points)
	}
}

// TestRecoveryModesEquivalent: full replay, instant restore once warm, and a
// replica's install followed by Promote run one Alg. 3 with different sinks, so
// on one image they must leave byte-identical index images, device contents
// and commit records, the same recovered points and the same serving
// state — and instant restore's counters must say what the image holds.
func TestRecoveryModesEquivalent(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			img := buildFuzzyImage(t, shards)
			committed := make([]int, shards)
			for i := range committed {
				var fuzzy, covered int
				fuzzy, covered, committed[i], _ = img.fuzzyOnCoveredPages(t, i)
				if fuzzy != img.fuzzy[i] || covered == 0 {
					t.Fatalf("shard %d: %d v+1 records in the commit's log, %d on checksummed pages; %d were written",
						i, fuzzy, covered, img.fuzzy[i])
				}
			}

			fcfg := img.config()
			full, freport, err := RecoverWithReport(fcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer full.Close()
			if freport.Token != img.token || len(freport.Skipped) != 0 || freport.Instant || full.RestoreStatus() != nil {
				t.Fatalf("full recovery: report %+v, restore status %+v", freport, full.RestoreStatus())
			}

			icfg := img.config()
			icfg.InstantRestore = true
			inst, ireport, err := RecoverWithReport(icfg)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			if ireport.Token != img.token || ireport.Version != freport.Version || len(ireport.Skipped) != 0 || !ireport.Instant {
				t.Fatalf("instant recovery: report %+v", ireport)
			}
			if err := inst.WaitRestored(); err != nil {
				t.Fatal(err)
			}
			status := inst.RestoreStatus()
			if status == nil || status.Restoring || len(status.Shards) != shards {
				t.Fatalf("RestoreStatus = %+v", status)
			}
			for i, sh := range status.Shards {
				got := restoreCounters{sh.SuffixRecords, sh.ReplayedRecords, sh.InvalidatedRecords}
				want := restoreCounters{uint64(committed[i]), uint64(committed[i]), uint64(img.fuzzy[i])}
				if got != want || sh.ColdBuckets != 0 || sh.PendingRecords != 0 {
					t.Fatalf("shard %d restore counters %+v, want %+v; status %+v", i, got, want, sh)
				}
			}

			// The replica has the primary's log bytes (they stream ahead of
			// commits) and the commit's artifacts, and installs from nothing.
			rcfg := img.config()
			rcfg.Replica = true
			rep, err := Open(rcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rep.Close()
			if err := rep.ApplyCommitted(img.token); err != nil {
				t.Fatal(err)
			}
			for _, k := range []uint64{0, 5, 3} { // overwritten in the window, and not
				got, found, err := rep.ReadCommitted(key(k))
				if err != nil || found != (img.want[k] != nil) || !bytes.Equal(got, img.want[k]) {
					t.Fatalf("replica read of key %d before promotion: (%x, %v, %v), want %x", k, got, found, err, img.want[k])
				}
			}
			if err := rep.Promote(); err != nil {
				t.Fatal(err)
			}

			fstate := captureState(t, img, full, fcfg)
			fstate.mustEqual(t, "full and instant", captureState(t, img, inst, icfg))
			fstate.mustEqual(t, "full and promoted replica", captureState(t, img, rep, rcfg))
			for _, id := range img.ids {
				if fstate.points[id] == 0 {
					t.Fatalf("session %s has no recovered point: %v", id, fstate.points)
				}
			}
			for label, s := range map[string]*Store{"full": full, "instant": inst, "promoted replica": rep} {
				checkFuzzyImage(t, label, s, img)
			}
		})
	}
}

// checkFuzzyImage reads every key of the image through a session: the
// committed value, or nothing for a deleted key and for one only v+1 wrote.
func checkFuzzyImage(t *testing.T, label string, s *Store, img *fuzzyImage) {
	t.Helper()
	sess := s.StartSession()
	defer sess.StopSession()
	for k := uint64(0); k < uint64(4*256*img.shards); k++ {
		got, found := readVal(t, sess, k)
		if want := img.want[k]; found != (want != nil) || !bytes.Equal(got, want) {
			t.Fatalf("%s: key %d: got (%x,%v), want %x (deleted: %v)", label, k, got, found, want, img.gone[k])
		}
	}
}

// TestSecondCrashKeepsCommit is the regression test for a recovery that broke
// the page checksums of the commit it recovered: the invalid bits it writes
// into the v+1 records change pages the commit's page checksums cover, so a
// second crash before the next commit sent a full recovery back to an older
// commit than clients had been told was durable ("page N checksum mismatch").
// Recover, close without committing, recover again: same commit, nothing
// skipped, whichever mode ran first and whichever runs second.
func TestSecondCrashKeepsCommit(t *testing.T) {
	for _, shards := range []int{1, 4} {
		img := buildFuzzyImage(t, shards)
		for i := 0; i < shards; i++ {
			if _, covered, _, _ := img.fuzzyOnCoveredPages(t, i); covered == 0 {
				t.Fatalf("shards=%d: no v+1 record of shard %d lies on a page the commit's checksums cover", shards, i)
			}
		}
		for _, first := range []bool{false, true} {
			devs, ckpts := cloneDevs(img.devs), img.ckpts.Clone()
			recoverSame(t, fmt.Sprintf("shards=%d first (instant=%v)", shards, first), img, devs, ckpts, first).Close()
			for _, second := range []bool{false, true} {
				label := fmt.Sprintf("shards=%d first (instant=%v) second (instant=%v)", shards, first, second)
				r := recoverSame(t, label, img, cloneDevs(devs), ckpts.Clone(), second)
				checkFuzzyImage(t, label, r, img)
				r.Close()
			}
		}
	}
}

// recoverSame recovers the image's newest commit from devs and ckpts — in
// place, as a restarted process does — and fails unless it is that commit
// with nothing skipped.
func recoverSame(t *testing.T, label string, img *fuzzyImage, devs []*storage.MemDevice, ckpts *storage.MemCheckpointStore, instant bool) *Store {
	t.Helper()
	cfg := configOver(img.shards, devs, ckpts)
	cfg.InstantRestore = instant
	r, report, err := RecoverWithReport(cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := r.WaitRestored(); err != nil {
		t.Fatalf("%s: WaitRestored: %v", label, err)
	}
	if report.Token != img.token || len(report.Skipped) != 0 {
		t.Fatalf("%s: recovered %s skipping %+v, want %s and nothing skipped", label, report.Token, report.Skipped, img.token)
	}
	return r
}

// lingeringStore holds every reader of a commit record for a moment between its
// read and its return, so that read-modify-writes of one record overlap unless
// something serialises them.
type lingeringStore struct{ *storage.MemCheckpointStore }

func (s lingeringStore) Open(name string) (io.ReadCloser, error) {
	r, err := s.MemCheckpointStore.Open(name)
	if strings.HasPrefix(name, "cpr-manifest-") {
		time.Sleep(time.Millisecond)
	}
	return r, err
}

// TestRestoreAmendsOneRecord: the restore goroutines of a four-shard instant
// restore each find v+1 records on checksummed pages and amend the commit's one
// record at the same time. Once warm, the record has lost exactly those pages'
// checksums, on every shard, and nothing else; and a second recovery of the
// same devices and checkpoint store takes the same commit with nothing
// skipped.
func TestRestoreAmendsOneRecord(t *testing.T) {
	const shards = 4
	img := buildFuzzyImage(t, shards)
	before, err := loadRecord(img.ckpts, img.token)
	if err != nil {
		t.Fatal(err)
	}
	devs, ckpts := cloneDevs(img.devs), img.ckpts.Clone()
	cfg := configOver(shards, devs, ckpts)
	cfg.Checkpoints = lingeringStore{ckpts}
	cfg.InstantRestore = true
	first, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.WaitRestored(); err != nil {
		t.Fatal(err)
	}
	first.Close()
	after, err := loadRecord(ckpts, img.token)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shards; i++ {
		_, _, _, touched := img.fuzzyOnCoveredPages(t, i)
		if len(touched) == 0 {
			t.Fatalf("shard %d: no v+1 record on a checksummed page", i)
		}
		var want []hlog.PageCRC
		for _, pc := range before.Shards[i].PageCRCs {
			if !touched[pc.Page] {
				want = append(want, pc)
			}
		}
		if got := after.Shards[i].PageCRCs; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("shard %d: page checksums after the restore %v, want %v (touched %v)", i, got, want, touched)
		}
		after.Shards[i].PageCRCs = before.Shards[i].PageCRCs
	}
	if a, b := fmt.Sprintf("%+v", *after), fmt.Sprintf("%+v", *before); a != b {
		t.Fatalf("the amend changed more than page checksums:\n%s\n%s", a, b)
	}
	r := recoverSame(t, "second (full)", img, devs, ckpts, false)
	checkFuzzyImage(t, "second (full)", r, img)
	r.Close()
}
