package faster

import (
	"encoding/binary"
	"testing"

	"repro/internal/hashfn"
	"repro/internal/hlog"
)

// The tests in this file pin the fresh-key path: one probe of the index, one
// append, one publish — and what the path must refuse or leave alone.

// TestKeyOutOfRangeIsAnError: a key of 0 or over 65 535 bytes, or a value no
// page holds, is the caller's error, answered with Error by the operation. It
// used to panic inside the store ("hlog: key length 0 out of range"), which a
// server turned into a dead process.
func TestKeyOutOfRangeIsAnError(t *testing.T) {
	s, err := Open(Config{IndexBuckets: 1 << 10, PageBits: 17, MemPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	long := make([]byte, 1<<16)
	for name, st := range map[string]Status{
		"upsert of an empty key":        sess.Upsert(nil, u64(1)),
		"RMW of an empty key":           sess.RMW([]byte{}, u64(1)),
		"delete of an empty key":        sess.Delete(nil),
		"upsert of a 65 536-byte key":   sess.Upsert(long, u64(1)),
		"upsert of a value over a page": sess.Upsert(key(1), make([]byte, 1<<17)),
	} {
		if st != Error {
			t.Errorf("%s: %v, want error", name, st)
		}
	}
	var cbSt Status = Ok
	if _, st := sess.Read(nil, func(_ []byte, st Status) { cbSt = st }); st != Error || cbSt != Error {
		t.Errorf("read of an empty key: %v (callback %v), want error", st, cbSt)
	}
	if st := sess.Upsert(long[:hlog.MaxKeyLen], u64(7)); st != Ok {
		t.Fatalf("upsert of a 65 535-byte key: %v", st)
	}
	if v, st := sess.Read(long[:hlog.MaxKeyLen], nil); st != Ok || binary.LittleEndian.Uint64(v) != 7 {
		t.Fatalf("read of the 65 535-byte key: %v %v", v, st)
	}
}

// TestDeleteOfMissingKeyLeavesNoEntry: deleting a key that was never written
// finds nothing and changes nothing. It used to create the key's index entry
// (with no address) on the way, so a stream of such deletes filled the main
// buckets and grew overflow buckets without writing a record.
func TestDeleteOfMissingKeyLeavesNoEntry(t *testing.T) {
	s, err := Open(Config{IndexBuckets: 1 << 10, PageBits: 14, MemPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	sh := s
	tail := sh.log.Tail()
	for k := uint64(0); k < 100_000; k++ {
		if st := sess.Delete(key(k)); st != NotFound {
			t.Fatalf("delete of missing key %d: %v", k, st)
		}
	}
	entries := 0
	sh.index.eachBucket(sh.index.overflowNext.Load(), func(b *bucket) {
		for i := range b.entries {
			if b.entries[i].Load() != 0 {
				entries++
			}
		}
	})
	if entries != 0 || sh.index.overflowNext.Load() != 1 || sh.log.Tail() != tail {
		t.Fatalf("100 000 deletes of missing keys left %d index entries, %d overflow buckets and %d log bytes",
			entries, sh.index.overflowNext.Load()-1, sh.log.Tail()-tail)
	}
}

// TestInstallFailsOnReusedSlot: the slot word find walked from is what the
// install expects. Between the two, the matched slot is freed and reclaimed
// for another tag of the same bucket — compaction dropping a deleted key, then
// another insert. The install must fail its compare-and-swap, and the retried
// op must land under its own tag, not at the head of the other tag's chain.
func TestInstallFailsOnReusedSlot(t *testing.T) {
	s, err := Open(Config{IndexBuckets: 1 << 10, PageBits: 14, MemPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	idx := s.index

	a := key(1)
	ha := hashfn.Hash64(a)
	var b []byte // a key of a's bucket with another tag
	for k := uint64(2); b == nil; k++ {
		if h := hashfn.Hash64(key(k)); h&idx.mask == ha&idx.mask && tagOf(h) != tagOf(ha) {
			b = key(k)
		}
	}
	if st := sess.Upsert(a, u64(10)); st != Ok {
		t.Fatal(st)
	}
	op := &pendingOp{kind: opUpsert, key: a, input: u64(11), hash: ha, version: sess.view.Version}
	r := *sess.find(op, false)
	if r.entry&entryTagMask != tagOf(ha) || r.reg != regMutable {
		t.Fatalf("find of a: slot %p, entry %#x, region %d", r.slot, r.entry, r.reg)
	}

	r.slot.Store(0) // freed ...
	if st := sess.Upsert(b, u64(20)); st != Ok {
		t.Fatal(st)
	}
	if got := r.slot.Load(); got&entryTagMask != tagOf(hashfn.Hash64(b)) {
		t.Fatalf("b's insert did not take the freed slot: %#x", got)
	}
	bEntry := r.slot.Load() // ... and reclaimed for b

	if st := sess.install(op, &r); st != statusRetry {
		t.Fatalf("install against the reclaimed slot: %v, want a retry", st)
	}
	if got := r.slot.Load(); got != bEntry {
		t.Fatalf("b's slot went %#x -> %#x", bEntry, got)
	}
	if st := sess.dispatch(op); st != Ok {
		t.Fatalf("retried upsert: %v", st)
	}
	slot, entry := idx.probe(ha, 0)
	if entry == 0 || slot == r.slot || entry&entryTagMask != tagOf(ha) {
		t.Fatalf("a's entry after the retry: slot %p (b's is %p), entry %#x", slot, r.slot, entry)
	}
	if rec := s.log.Record(entryAddr(entry)); !rec.KeyEquals(a) || rec.Prev() != 0 {
		t.Fatalf("a's chain head is key %x with prev %d", rec.Key(nil), rec.Prev())
	}
	for k, want := range map[string]uint64{string(a): 11, string(b): 20} {
		if v, st := sess.Read([]byte(k), nil); st != Ok || binary.LittleEndian.Uint64(v) != want {
			t.Fatalf("read of %x: %v %v, want %d", k, v, st, want)
		}
	}
}
