package faster

import (
	"bytes"
	"fmt"
	"maps"
	"runtime"
	"testing"
	"time"

	"repro/internal/epoch"
	"repro/internal/hlog"
	"repro/internal/storage"
)

// One crash image, built so that the recovered commit has a fuzzy window full
// of v+1 records on pages its own page checksums cover, and the two ways of
// arriving at a commit — recovery, a replica's install followed by promotion —
// checked against each other on it, and recovery checked against a second
// crash.

// fuzzyImage is that crash image: what the device and the checkpoint store
// held at the crash, and what the newest commit must recover to.
type fuzzyImage struct {
	dev   *storage.MemDevice
	ckpts *storage.MemCheckpointStore
	token string // the newest commit: log-only, v+1 records below its log end
	ids   []string
	want  map[uint64][]byte // every live key's committed value
	gone  map[uint64]bool   // keys the committed suffix deleted
	fuzzy int               // v+1 records inside the commit's log
}

// config is a Config over a private copy of the image.
func (img *fuzzyImage) config() Config {
	return configOver(img.dev.Clone(), img.ckpts.Clone())
}

func configOver(dev *storage.MemDevice, ckpts *storage.MemCheckpointStore) Config {
	return Config{IndexBuckets: 1 << 9, PageBits: 12, MemPages: 8, Checkpoints: ckpts, Device: dev}
}

func fuzzyValue(k, gen uint64) []byte {
	v := make([]byte, 100) // 128-byte records: 32 to a 4 KiB page
	copy(v, u64(k))
	copy(v[8:], u64(gen))
	return v
}

// buildFuzzyImage runs two sessions over a store of 4 KiB pages: an index
// commit over the base keys, a suffix of overwrites, new keys and deletes, and
// then a log-only commit during which session B holds the store in the
// in-progress phase — it has acknowledged prepare and does not refresh — while
// session A, already in v+1, writes several pages of records. Those
// lie below the commit's log end, on pages that are flushed whole before the
// commit's page checksums are taken. One goroutine does all of it, so the
// image is the same every time.
func buildFuzzyImage(t *testing.T) *fuzzyImage {
	t.Helper()
	img := &fuzzyImage{dev: storage.NewMemDevice(), ckpts: storage.NewMemCheckpointStore(),
		want: map[uint64][]byte{}, gone: map[uint64]bool{}}
	// Every page stays resident while the image is built: with B not
	// refreshing, A could not wait for a frame to be evicted. (Recoveries of
	// the image run with 8 frames and find most of the log evicted.)
	cfg := configOver(img.dev, img.ckpts)
	cfg.MemPages = 64
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
	const nBase = 256
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
	if a.view.Phase != InProgress || b.view.Phase != Prepare || s.Phase() != InProgress {
		t.Fatalf("A in %v, B in %v, store in %v", a.view.Phase, b.view.Phase, s.Phase())
	}
	for i := uint64(0); i < 160; i++ {
		k := i * 3 % (2 * nBase) // live keys, deleted keys and keys that never existed
		if i%2 == 1 {
			k = 3*nBase + i
		}
		put(a, k, 3, false)
		img.fuzzy++
	}
	// Bounded by wall time, not by a pass count: each pass yields, so the
	// goroutine Machine.Flush starts and the I/O workers it waits on run even
	// on one processor.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if res, ok := s.TryResult(img.token); ok {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("commit %s stuck in %v", img.token, s.Phase())
		}
		a.Refresh()
		b.Refresh()
		runtime.Gosched()
	}
	put(a, 5, 4, false) // and the crash loses what came after the commit
	img.dev, img.ckpts = img.dev.Clone(), img.ckpts.Clone()
	a.StopSession()
	b.StopSession()
	s.Close()
	return img
}

// fuzzyOnCoveredPages reads an image without recovering it:
// how many records of version v+1 the newest commit's log holds from its scan
// start on, and how many of them on pages the commit's page checksums cover
// (and which pages those are).
func (img *fuzzyImage) fuzzyOnCoveredPages(t *testing.T) (fuzzy, covered int, touched map[uint64]bool) {
	t.Helper()
	rec, err := loadRecord(img.ckpts, img.token)
	if err != nil {
		t.Fatal(err)
	}
	meta := rec.sec()
	onPage := map[uint64]bool{}
	for _, pc := range meta.PageCRCs {
		onPage[pc.Page] = true
	}
	l, err := hlog.New(hlog.Config{PageBits: 12, MemPages: 8, Device: img.dev.Clone(), Epochs: epoch.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.RecoverTo(meta.logEnd()); err != nil {
		t.Fatal(err)
	}
	touched = map[uint64]bool{}
	bound := new(Store)
	bound.futureFrom[rec.Version&1].Store(meta.Lhs)
	err = l.Scan(meta.scanStart(), meta.logEnd(), func(addr uint64, r hlog.RecordRef) bool {
		if bound.isFuture(r.Version(), addr, rec.Version) {
			fuzzy++
			if onPage[addr>>12] {
				covered++
				touched[addr>>12] = true
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return fuzzy, covered, touched
}

// recoveredState is everything two recoveries of one image must agree on.
type recoveredState struct {
	index  []byte // the index image
	device []byte // the device's bytes
	record []byte // the commit's record, page checksums and all
	points map[string]uint64
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
	st.index = imageOf(s.index)
	st.device = make([]byte, s.cfg.Device.Size())
	if _, err := s.cfg.Device.ReadAt(st.device, 0); err != nil {
		t.Fatal(err)
	}
	return st
}

func (st recoveredState) mustEqual(t *testing.T, label string, other recoveredState) {
	t.Helper()
	if !bytes.Equal(st.index, other.index) {
		t.Fatalf("%s: index images differ (%d and %d bytes)", label, len(st.index), len(other.index))
	}
	if !bytes.Equal(st.device, other.device) {
		t.Fatalf("%s: device contents differ (%d and %d bytes)", label, len(st.device), len(other.device))
	}
	if !bytes.Equal(st.record, other.record) {
		t.Fatalf("%s: commit records differ:\n%s\n%s", label, st.record, other.record)
	}
	if fmt.Sprint(st.points) != fmt.Sprint(other.points) {
		t.Fatalf("%s: recovered points differ: %v and %v", label, st.points, other.points)
	}
}

// TestRecoveryModesEquivalent: recovery and a replica's install followed by
// Promote run one Alg. 3 with different neutralisers, so on one image they must
// leave byte-identical index images, device contents and commit records and
// the same recovered points; the record loses exactly the checksums of the
// pages its v+1 records lie on, and the promoted replica serves the commit.
// (What recovery recovers, key by key, is TestOracle's crash half.)
func TestRecoveryModesEquivalent(t *testing.T) { onePartition(t, recoveryModesEquivalent) }

func recoveryModesEquivalent(t *testing.T) {
	img := buildFuzzyImage(t)
	before, err := loadRecord(img.ckpts, img.token)
	if err != nil {
		t.Fatal(err)
	}
	fuzzy, covered, touched := img.fuzzyOnCoveredPages(t)
	if fuzzy != img.fuzzy || covered == 0 {
		t.Fatalf("%d v+1 records in the commit's log, %d on checksummed pages; %d were written",
			fuzzy, covered, img.fuzzy)
	}

	fcfg := img.config()
	full, err := Open(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	after, err := loadRecord(fcfg.Checkpoints, img.token)
	if err != nil {
		t.Fatal(err)
	}
	var want []hlog.PageCRC
	for _, pc := range before.sec().PageCRCs {
		if !touched[pc.Page] {
			want = append(want, pc)
		}
	}
	if got := after.sec().PageCRCs; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("page checksums after recovery %v, want %v (touched %v)", got, want, touched)
	}
	after.sec().PageCRCs = before.sec().PageCRCs
	if a, b := fmt.Sprintf("%+v", *after), fmt.Sprintf("%+v", *before); a != b {
		t.Fatalf("recovery changed more of the record than page checksums:\n%s\n%s", a, b)
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
	fstate.mustEqual(t, "recovered and promoted replica", captureState(t, img, rep, rcfg))
	for _, id := range img.ids {
		if fstate.points[id] == 0 {
			t.Fatalf("session %s has no recovered point: %v", id, fstate.points)
		}
	}
	checkFuzzyImage(t, "promoted replica", rep, img)
}

// checkFuzzyImage reads every key of the image through a session: the
// committed value, or nothing for a deleted key and for one only v+1 wrote.
func checkFuzzyImage(t *testing.T, label string, s *Store, img *fuzzyImage) {
	t.Helper()
	sess := s.StartSession()
	defer sess.StopSession()
	for k := uint64(0); k < 4*256; k++ {
		got, found := readVal(t, sess, k)
		if want := img.want[k]; found != (want != nil) || !bytes.Equal(got, want) {
			t.Fatalf("%s: key %d: got (%x,%v), want %x (deleted: %v)", label, k, got, found, want, img.gone[k])
		}
	}
}

// TestSecondCrashKeepsCommit is the regression test for a recovery that broke
// the page checksums of the commit it recovered: the invalid bits it writes
// into the v+1 records change pages the commit's page checksums cover, so a
// second crash before the next commit sent recovery back to an older commit
// than clients had been told was durable ("page N checksum mismatch"). Recover,
// close without committing, recover again: same commit, nothing skipped.
// TestOracle's second crash checks the same, but its images hold v+1 records
// on checksummed pages only now and then; this one always does.
func TestSecondCrashKeepsCommit(t *testing.T) {
	img := buildFuzzyImage(t)
	if _, covered, _ := img.fuzzyOnCoveredPages(t); covered == 0 {
		t.Fatal("no v+1 record lies on a page the commit's checksums cover")
	}
	dev, ckpts := img.dev.Clone(), img.ckpts.Clone()
	recoverSame(t, "first", img, dev, ckpts).Close()
	r := recoverSame(t, "second", img, dev, ckpts)
	checkFuzzyImage(t, "second", r, img)
	r.Close()
}

// recoverSame recovers the image's newest commit from dev and ckpts — in
// place, as a restarted process does — and fails unless it is that commit
// with nothing skipped.
func recoverSame(t *testing.T, label string, img *fuzzyImage, dev *storage.MemDevice, ckpts *storage.MemCheckpointStore) *Store {
	t.Helper()
	r, err := Open(configOver(dev, ckpts))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if report := r.RecoveryReport(); report == nil || report.Token != img.token || len(report.Skipped) != 0 {
		t.Fatalf("%s: recovered %+v, want %s and nothing skipped", label, report, img.token)
	}
	return r
}
