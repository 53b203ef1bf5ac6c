package faster

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/epoch"
	"repro/internal/hashfn"
)

// updateOutcomes is what one update does, by CPR path, by the HybridLog region
// its key's record is found in, by operation: the characterisation of Algs. 4/5
// that TestUpdateByRegion holds the operation path to.
//
//	ok+rec      Ok, a record of the op's version appended, its Prev the chain head
//	ok          Ok, the found record updated in place, nothing appended
//	notfound    NotFound, nothing appended
//	pending     Pending (parked: fuzzy region), nothing appended
//	pending+io  Pending with the cold record's read issued
//	+counted    … and the op counted toward the commit's pending-v tally
//
// The four paths differ in one thing only: prepare counts what it parks.
var updateOutcomes = map[string][6][3]string{
	//                 upsert        RMW                   delete
	"rest": {
		regionNone:     {"ok+rec", "ok+rec", "notfound"},
		regionMutable:  {"ok", "ok", "ok"},
		regionFuzzy:    {"pending", "pending", "pending"},
		regionSafeRO:   {"ok+rec", "ok+rec", "ok+rec"},
		regionDiskCopy: {"ok+rec", "ok+rec", "ok+rec"},
		regionDiskCold: {"ok+rec", "pending+io", "ok+rec"},
	},
	"prepare": {
		regionNone:     {"ok+rec", "ok+rec", "notfound"},
		regionMutable:  {"ok", "ok", "ok"},
		regionFuzzy:    {"pending+counted", "pending+counted", "pending+counted"},
		regionSafeRO:   {"ok+rec", "ok+rec", "ok+rec"},
		regionDiskCopy: {"ok+rec", "ok+rec", "ok+rec"},
		regionDiskCold: {"ok+rec", "pending+io+counted", "ok+rec"},
	},
	"v-completion": {
		regionNone:     {"ok+rec", "ok+rec", "notfound"},
		regionMutable:  {"ok", "ok", "ok"},
		regionFuzzy:    {"pending", "pending", "pending"},
		regionSafeRO:   {"ok+rec", "ok+rec", "ok+rec"},
		regionDiskCopy: {"ok+rec", "ok+rec", "ok+rec"},
		regionDiskCold: {"ok+rec", "pending+io", "ok+rec"},
	},
	// A v+1 operation whose key's newest record is already v+1 (or absent). On
	// the cold row the version is not known yet, so the op goes through Alg. 5's
	// hand-off gates: in-progress, fine-grained, bucket unlatched.
	"future": {
		regionNone:     {"ok+rec", "ok+rec", "notfound"},
		regionMutable:  {"ok", "ok", "ok"},
		regionFuzzy:    {"pending", "pending", "pending"},
		regionSafeRO:   {"ok+rec", "ok+rec", "ok+rec"},
		regionDiskCopy: {"ok+rec", "ok+rec", "ok+rec"},
		regionDiskCold: {"ok+rec", "pending+io", "ok+rec"},
	},
	// Single cells. A rest op of v+1 on a mutable record of v copies it until
	// every thread has seen commit v end — a session still in it may be copying
	// the record — and updates it in place once the store has settled at v+1.
	// A coarse-grained v+1 op hands a safe-read-only v record off only once no
	// v op can be pending.
	"rest-older":                 {regionMutable: {"ok+rec", "ok+rec", "ok+rec"}},
	"rest-older-settled":         {regionMutable: {"ok", "ok", "ok"}},
	"coarse-handoff-in-progress": {regionSafeRO: {"pending", "pending", "pending"}},
	"coarse-handoff-wait-flush":  {regionSafeRO: {"ok+rec", "ok+rec", "ok+rec"}},
}

const (
	regionNone = iota
	regionMutable
	regionFuzzy
	regionSafeRO
	regionDiskCopy // on storage, the op already holds its copy of the record
	regionDiskCold // on storage, not fetched
)

var (
	updateRegionNames = [6]string{"none", "mutable", "fuzzy", "safe-ro", "disk-copy", "disk-cold"}
	updateKinds       = [3]opKind{opUpsert, opRMW, opDelete}
	updateKindNames   = [3]string{"upsert", "rmw", "delete"}
)

func TestUpdateByRegion(t *testing.T) {
	for _, path := range sortedKeys(updateOutcomes) {
		for region, byKind := range updateOutcomes[path] {
			for k, outcome := range byKind {
				if outcome == "" {
					continue
				}
				t.Run(path+"/"+updateRegionNames[region]+"/"+updateKindNames[k], func(t *testing.T) {
					updateByRegionCell(t, path, region, updateKinds[k], outcome)
				})
			}
		}
	}
}

// updateByRegionCell puts one key's record in region, puts the session's
// context on path, dispatches one operation and compares what happened with
// outcome. The phase and version views are set by hand — the cell is about what
// an operation does given a view, not about how the view came to be.
func updateByRegionCell(t *testing.T, path string, region int, kind opKind, outcome string) {
	const oldVal, input = 40, 2
	cfg := smallConfig()
	if strings.HasPrefix(path, "coarse") {
		cfg.Transfer = CoarseGrained
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a := s.StartSession()
	defer a.StopSession()
	sh := s
	k := key(7)
	h := hashfn.Hash64(k)

	var addr uint64
	if region != regionNone {
		if st := a.Upsert(k, u64(oldVal)); st != Ok {
			t.Fatalf("seed upsert: %v", st)
		}
		_, entry := sh.index.probe(h, 0)
		addr = entryAddr(entry)
	}
	switch region {
	case regionFuzzy:
		// A session that does not refresh keeps the shift from becoming safe.
		hold := s.StartSession()
		defer hold.StopSession()
		sh.log.ShiftReadOnlyTo(sh.log.Tail())
		a.Refresh()
		if sro, ro := sh.log.SafeReadOnly(), sh.log.ReadOnly(); !(sro <= addr && addr < ro) {
			t.Fatalf("record at %d not fuzzy: safe-read-only %d, read-only %d", addr, sro, ro)
		}
	case regionSafeRO:
		sh.log.ShiftReadOnlyTo(sh.log.Tail())
		a.Refresh()
		if sro := sh.log.SafeReadOnly(); addr >= sro {
			t.Fatalf("record at %d not below safe-read-only %d", addr, sro)
		}
	case regionDiskCopy, regionDiskCold:
		for i := uint64(0); addr >= sh.log.Head(); i++ {
			if i > 1<<20 {
				t.Fatalf("record at %d never left memory (head %d)", addr, sh.log.Head())
			}
			a.Upsert(key(1000+i), u64(i))
		}
	}

	op := &pendingOp{kind: kind, key: k, hash: h}
	if kind != opDelete {
		op.input = append(op.input, u64(input)...)
	}
	op.serial = a.serial.Add(1)
	op.version = a.version
	if region == regionDiskCopy {
		rec, err := sh.log.ReadRecordSync(addr)
		if err != nil {
			t.Fatal(err)
		}
		op.ioRec, op.ioAddr = rec, addr
	}
	var ck *checkpointCtx
	switch path {
	case "prepare":
		ck = &checkpointCtx{store: s, version: a.version}
		s.active.Store(ck)
		a.phase = Prepare
	case "v-completion":
		a.phase = InProgress
	case "future":
		a.phase = InProgress
		a.version-- // what the store holds is now one version ahead of the view
	case "rest-older", "rest-older-settled":
		a.version++ // the record is now one version behind the view
		op.version = a.version
		if path == "rest-older-settled" {
			s.settled.Store(op.version)
		}
	case "coarse-handoff-in-progress", "coarse-handoff-wait-flush":
		a.phase = InProgress
		if path == "coarse-handoff-wait-flush" {
			a.phase = WaitFlush
		}
		op.version = a.version + 1
	}

	_, before := sh.index.probe(h, 0)
	tail := sh.log.Tail()
	st := a.dispatch(op)

	// Undo the hand-set view before anything can fail the cell: the deferred
	// StopSession and Close run against a store at rest.
	latched, counted := op.latched, op.counted
	if latched {
		sh.index.releaseSharedLatch(h)
	}
	if ck != nil {
		s.active.Store(nil)
	}
	s.settled.Store(0)
	a.phase, a.version = unpackState(s.state.Load())
	if op.awaitingIO {
		a.flushIO()
		for a.ready.Load() == 0 { // the read was queued: its completion arrives
			a.Refresh()
		}
	}

	want := map[string]struct {
		st                            Status
		appended, counted, awaitingIO bool
	}{
		"ok+rec":             {st: Ok, appended: true},
		"ok":                 {st: Ok},
		"notfound":           {st: NotFound},
		"pending":            {st: Pending},
		"pending+counted":    {st: Pending, counted: true},
		"pending+io":         {st: Pending, awaitingIO: true},
		"pending+io+counted": {st: Pending, awaitingIO: true, counted: true},
	}[outcome]
	if st != want.st {
		t.Fatalf("status %v, want %v", st, want.st)
	}
	if counted != want.counted || op.awaitingIO != want.awaitingIO {
		t.Fatalf("counted %v awaitingIO %v, want %v %v", counted, op.awaitingIO, want.counted, want.awaitingIO)
	}
	if counted && ck.pendingV.Load() != 1 {
		t.Fatalf("counted op, commit's pending-v tally %d", ck.pendingV.Load())
	}
	if latched != (path == "prepare") {
		t.Fatalf("shared latch held: %v", latched)
	}

	wantVal := uint64(input)
	if kind == opRMW && region != regionNone {
		wantVal = oldVal + input
	}
	_, after := sh.index.probe(h, 0)
	if !want.appended {
		if sh.log.Tail() != tail {
			t.Fatalf("tail moved %d -> %d", tail, sh.log.Tail())
		}
		if entryAddr(after) != entryAddr(before) {
			t.Fatalf("slot %#x -> %#x without a record", before, after)
		}
		if outcome == "ok" { // in place
			rec := sh.log.Record(addr)
			if kind == opDelete {
				if !rec.Tombstone() {
					t.Fatal("in-place delete left no tombstone")
				}
			} else if got := binary.LittleEndian.Uint64(rec.Value(nil)); got != wantVal {
				t.Fatalf("in-place value %d, want %d", got, wantVal)
			}
		}
		return
	}
	newAddr := entryAddr(after)
	if newAddr < tail || newAddr == entryAddr(before) {
		t.Fatalf("slot points at %d, appended records start at %d", newAddr, tail)
	}
	rec := sh.log.Record(newAddr)
	if got, want := rec.Version(), recVersion(op.version); got != want {
		t.Fatalf("record version %d, want %d", got, want)
	}
	if got, want := rec.Prev(), entryAddr(before); got != want {
		t.Fatalf("record prev %d, want the chain head %d", got, want)
	}
	if rec.Tombstone() != (kind == opDelete) {
		t.Fatalf("tombstone %v on %s", rec.Tombstone(), updateKindNames[kind-opUpsert])
	}
	if kind != opDelete {
		if got := binary.LittleEndian.Uint64(rec.Value(nil)); got != wantVal {
			t.Fatalf("value %d, want %d", got, wantVal)
		}
	}
}

// TestSettledInPlaceMeetsCopy interleaves the two updates a record older than
// the ops can get at once: a copy by a session still in the record's commit (a
// fine-grained v+1 hand-off from wait-flush) and an update in place by a
// session at rest in v+1 once the store has settled. One runs whole inside the
// other, just before the other takes the record latch; neither increment may be
// lost. Without install's value check the copy swaps in over the update in
// place; without update's slot check the update goes to the superseded record.
func TestSettledInPlaceMeetsCopy(t *testing.T) {
	for _, outer := range []string{"copy", "in-place"} {
		t.Run("inside-"+outer, func(t *testing.T) {
			s, err := Open(smallConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			copier, updater := s.StartSession(), s.StartSession()
			defer copier.StopSession()
			defer updater.StopSession()
			k := key(7)
			if st := copier.Upsert(k, u64(40)); st != Ok {
				t.Fatalf("seed upsert: %v", st)
			}
			v := copier.version
			copier.phase = WaitFlush // its view is still of commit v
			updater.version = v + 1  // at rest in v+1, settled
			s.settled.Store(v + 1)
			run := func(sess *Session) {
				op := &pendingOp{kind: opRMW, key: k, hash: hashfn.Hash64(k), input: u64(1), version: v + 1}
				st := sess.dispatch(op)
				for st == statusRetry {
					st = sess.dispatch(op)
				}
				if st != Ok {
					t.Errorf("rmw: %v", st)
				}
			}
			first, second := copier, updater
			if outer == "in-place" {
				first, second = updater, copier
			}
			interleaved := false
			epoch.SetYieldHook(func(site epoch.Site) {
				if site == epoch.SiteRecordLock && !interleaved {
					interleaved = true
					run(second)
				}
			})
			run(first)
			epoch.SetYieldHook(nil)
			copier.phase, copier.version = unpackState(s.state.Load())
			updater.phase, updater.version = unpackState(s.state.Load())
			s.settled.Store(0)
			if !interleaved {
				t.Fatal("the record latch was never reached")
			}
			if val, _ := readVal(t, copier, 7); binary.LittleEndian.Uint64(val) != 42 {
				t.Fatalf("value %d, want 42", binary.LittleEndian.Uint64(val))
			}
		})
	}
}
