package faster

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/hashfn"
	"repro/internal/hlog"
	"repro/internal/storage"
)

// The record's lens word is optional since PR 24 (DESIGN "Record layout"). The
// store must go on reading what it wrote before — devices and checkpoint
// directories whose every record has the word — and its updates must fall back
// to read-copy-update where a short-form record cannot take them in place.

// oldLayoutRecord spells out a record as logs held it before the short form:
// header (previous address in bits 0..47, version in 48..60, tombstone bit 61),
// lens word (key length | value length << 16 | capacity << 40), key, value.
func oldLayoutRecord(prev uint64, version uint16, tombstone bool, key, val []byte, valCap int) []byte {
	hdr := prev | uint64(version)<<48
	if tombstone {
		hdr |= 1 << 61
	}
	b := binary.LittleEndian.AppendUint64(nil, hdr)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(key))|uint64(len(val))<<16|uint64(valCap)<<40)
	b = append(append(b, key...), make([]byte, (8-len(key)%8)%8)...)
	return append(append(b, val...), make([]byte, (valCap+7)/8*8-len(val))...)
}

// oldLayoutImage is what a store of PR 23 left behind after one log-only
// commit (version 1, token ckpt-000001) and a crash: per shard a device of
// 4 KiB pages in the old layout and the commit's meta- and pagecrc- artifacts,
// and the manifest — every byte of the log put there by this test. The commit's
// log holds, per key k < keys: a first record (value k), for every third key
// an update chained to it (value 1000+k), for every seventh a tombstone, and —
// below the commit's log end, as a fuzzy window leaves them — version-2 records
// for every fifth key, which recovery must unwind and neutralise.
type oldLayoutImage struct {
	shards int
	devs   []*storage.MemDevice
	ckpts  *storage.MemCheckpointStore
	want   map[uint64]uint64 // live keys and their committed values
	gone   map[uint64]bool   // keys the commit deleted
}

const (
	oldLayoutKeys    = 700
	oldLayoutSession = "old-layout-session"
)

func buildOldLayoutImage(t *testing.T, shards int) *oldLayoutImage {
	t.Helper()
	img := &oldLayoutImage{shards: shards, ckpts: storage.NewMemCheckpointStore(), want: map[uint64]uint64{}, gone: map[uint64]bool{}}
	// A store of the same shape routes the keys and lends its (empty) indexes
	// to link each record to its slot's previous one; nothing is written to it.
	fresh := make([]*storage.MemDevice, shards)
	for i := range fresh {
		fresh[i] = storage.NewMemDevice()
	}
	router, err := Open(configOver(shards, fresh, storage.NewMemCheckpointStore()))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	const pageSize = 1 << 12
	logs := make([][]byte, shards) // the log from address 0 on; the first 64 bytes hold no record
	chains := make([]*index, shards)
	for i := range logs {
		logs[i] = make([]byte, hlog.FirstAddress)
		chains[i] = router.shards[i].index
	}
	put := func(k uint64, version uint16, tombstone bool, val []byte) {
		i := router.ShardOfKey(key(k))
		h := hashfn.Hash64(key(k))
		slot, entry := chains[i].probe(h, tagOf(h))
		rec := oldLayoutRecord(entryAddr(entry), version, tombstone, key(k), val, 8)
		if room := pageSize - len(logs[i])%pageSize; room < len(rec) {
			logs[i] = append(logs[i], make([]byte, room)...)
		}
		slot.Store(tagOf(h) | uint64(len(logs[i])))
		logs[i] = append(logs[i], rec...)
	}
	for k := uint64(0); k < oldLayoutKeys; k++ {
		put(k, 1, false, u64(k))
		img.want[k] = k
	}
	for k := uint64(0); k < oldLayoutKeys; k += 3 {
		put(k, 1, false, u64(1000+k))
		img.want[k] = 1000 + k
	}
	for k := uint64(0); k < oldLayoutKeys; k += 7 {
		put(k, 1, true, nil)
		delete(img.want, k)
		img.gone[k] = true
	}
	for k := uint64(0); k < oldLayoutKeys; k += 5 {
		put(k, 2, false, u64(5000+k)) // past the CPR point
	}

	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	rec := commitRecord{Format: recordFormat, Token: "ckpt-000001", Version: 1, Kind: FoldOver.String(),
		Serials: map[string]uint64{oldLayoutSession: 4242}}
	for i, log := range logs {
		if len(log) < 2*pageSize {
			t.Fatalf("shard %d: the old-layout log is %d bytes, want whole pages under checksums", i, len(log))
		}
		dev := storage.NewMemDevice()
		if _, err := dev.WriteAt(log[hlog.FirstAddress:], hlog.FirstAddress); err != nil {
			t.Fatal(err)
		}
		img.devs = append(img.devs, dev)
		sec := shardSection{Lhs: hlog.FirstAddress, Lhe: uint64(len(log))}
		for p := 0; (p+1)*pageSize <= len(log); p++ {
			sec.PageCRCs = append(sec.PageCRCs, hlog.PageCRC{Page: uint64(p), CRC: crc32.Checksum(log[max(p*pageSize, hlog.FirstAddress):(p+1)*pageSize], castagnoli)})
		}
		rec.Shards = append(rec.Shards, sec)
	}
	if _, err := storage.WriteRecord(img.ckpts, rec.Token, uint64(rec.Version), &rec, nil); err != nil {
		t.Fatal(err)
	}
	return img
}

func (img *oldLayoutImage) config() Config {
	return configOver(img.shards, cloneDevs(img.devs), img.ckpts.Clone())
}

// TestOldLayoutStillReads: a checkpoint directory and devices in the old layout
// recover — the replay re-points the index at old-layout records, unwinds the
// version-2 ones and sets their invalid bits on the device — serve reads from
// memory and from the device, take updates (new short-form records chained to
// old-layout ones), commit, log-only or with an index image, and recover again
// from the mixed log.
func TestOldLayoutStillReads(t *testing.T) {
	img := buildOldLayoutImage(t, testShardCount(1))
	for _, withIndex := range []bool{false, true} {
		cfg := img.config()
		s, report, err := RecoverWithReport(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if report.Token != "ckpt-000001" || len(report.Skipped) != 0 {
			t.Fatalf("recovered %q, skipped %v", report.Token, report.Skipped)
		}
		if got := s.RecoveredPoint(oldLayoutSession); got != 4242 {
			t.Fatalf("session recovered to serial %d, want 4242", got)
		}
		checkImage(t, "recovered", s, img.want, img.gone)
		sess := s.StartSession()

		// Updates: every live key's counter goes up by one through RMW — a copy
		// to the tail, the recovered log being read-only — then again, in
		// place on the new short-form record; deleted keys come back; every
		// eleventh key goes.
		want, gone := map[uint64]uint64{}, map[uint64]bool{}
		tails := func() (sum uint64) {
			for i := 0; i < s.NumShards(); i++ {
				sum += s.ShardLog(i).Tail()
			}
			return sum
		}
		before := tails()
		for k, v := range img.want {
			for range 2 {
				if st := sess.RMW(key(k), u64(1)); st == Pending {
					sess.CompletePending(true)
				}
			}
			want[k] = v + 2
		}
		// One short-form copy per key and a few bytes of page padding: less
		// than copies with a lens word would take.
		if grew, n, size := tails()-before, uint64(len(want)), uint64(hlog.RecordSize(8, 8)); grew < n*size || grew >= n*(size+8) {
			t.Fatalf("%d RMW pairs grew the logs by %d bytes, want one %d-byte copy each", n, grew, size)
		}
		for k := range img.gone {
			if st := sess.Upsert(key(k), u64(9000+k)); st == Pending {
				sess.CompletePending(true)
			}
			want[k] = 9000 + k
		}
		for k := uint64(0); k < oldLayoutKeys; k += 11 {
			if st := sess.Delete(key(k)); st == Pending {
				sess.CompletePending(true)
			}
			delete(want, k)
			gone[k] = true
		}
		checkImage(t, "updated", s, want, gone)
		driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: withIndex})
		sess.StopSession()
		s.Close()

		s, err = Recover(cfg)
		if err != nil {
			t.Fatalf("with index %v: second recovery, over old and new records: %v", withIndex, err)
		}
		checkImage(t, "recovered again", s, want, gone)
		s.Close()
	}
}

// TestInPlaceRuleFallsBackToRCU: in the mutable region a short-form record
// takes a value of its own length in place and sends any other to
// read-copy-update, which writes the long form when the new value does not fill
// a whole-word capacity; the long-form record then takes every length up to its
// capacity in place, as records always did.
func TestInPlaceRuleFallsBackToRCU(t *testing.T) {
	s, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	log := s.ShardLog(0)
	short, long := uint64(hlog.RecordSize(8, 8)), uint64(hlog.RecordSize(8, 8))+8
	for _, step := range []struct {
		val  string
		grew uint64
	}{
		{"12345678", short},             // new key: short form
		{"abcdefgh", 0},                 // same length: in place
		{"abcde", long},                 // another length: a copy, which keeps its lens word (5 bytes in a capacity of 8)
		{"abcdefgh", 0},                 // up to the capacity, in place
		{"abc", 0},                      // and any shorter
		{"sixteen bytes ok", short + 8}, // past the capacity: a copy, short form with two value words
		{"sixteen bytes !!", 0},         // in place
		{"eight by", short},             // shorter: the short form cannot say so
		{"twenty-four bytes long!!", short + 16},
	} {
		tail := log.Tail()
		if st := sess.Upsert(key(1), []byte(step.val)); st != Ok {
			t.Fatalf("upsert %q: %v", step.val, st)
		}
		if grew := log.Tail() - tail; grew != step.grew {
			t.Fatalf("upsert %q grew the log by %d bytes, want %d", step.val, grew, step.grew)
		}
		if got, st := sess.Read(key(1), nil); st != Ok || !bytes.Equal(got, []byte(step.val)) {
			t.Fatalf("after upsert %q: read %q, %v", step.val, got, st)
		}
	}
}
