package faster

import (
	"encoding/binary"
	"fmt"
	"testing"
)

func bkey(i int) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(i)*0x9e3779b97f4a7c15)
	return b
}

// TestSessionRecyclesOpRecords: a long run of ops on one session produces the
// right results, serials keep advancing monotonically, synchronous ops never
// touch the op freelist, and parked ops recycle its records instead of growing
// it without bound.
func TestSessionRecyclesOpRecords(t *testing.T) {
	cfg := Config{IndexBuckets: 1 << 8, PageBits: 14, MemPages: 8}
	store, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sess := store.StartSession()
	defer sess.StopSession()

	const n = 500
	var lastSerial uint64
	for i := 0; i < n; i++ {
		if st := sess.Upsert(bkey(i), []byte(fmt.Sprintf("val-%d", i))); st != Ok {
			t.Fatalf("upsert %d: %v", i, st)
		}
		if s := sess.Serial(); s <= lastSerial {
			t.Fatalf("serial went backwards: %d after %d", s, lastSerial)
		} else {
			lastSerial = s
		}
		// Interleave reads: the returned slice is only valid until the next
		// op, so compare immediately.
		if i%7 == 0 {
			v, st := sess.Read(bkey(i), nil)
			if st != Ok || string(v) != fmt.Sprintf("val-%d", i) {
				t.Fatalf("interleaved read %d: %q %v", i, v, st)
			}
		}
	}

	if len(sess.opFree) != 0 {
		t.Fatalf("%d op records on the freelist after synchronous ops only", len(sess.opFree))
	}

	// Ops parked in the fuzzy region — a session that has not refreshed holds
	// the read-only shift back — take records from the freelist, and
	// CompletePending returns them there, up to its cap; the second round
	// reuses them.
	hold := store.StartSession()
	for round := 0; round < 2; round++ {
		const parked = 2 * opFreeMax
		for i := 0; i < parked; i++ {
			sess.Upsert(bkey(i), []byte(fmt.Sprintf("val-%d", i)))
		}
		store.Log().ShiftReadOnlyTo(store.Log().Tail())
		sess.Refresh()
		for i := 0; i < parked; i++ {
			if st := sess.Upsert(bkey(i), []byte(fmt.Sprintf("val-%d", i))); st != Pending {
				t.Fatalf("round %d: upsert %d in the fuzzy region: %v, want pending", round, i, st)
			}
		}
		hold.Refresh()
		if failed := sess.CompletePending(true); failed != 0 {
			t.Fatalf("round %d: %d parked upserts failed", round, failed)
		}
		if len(sess.opFree) != opFreeMax {
			t.Fatalf("round %d: freelist holds %d records after %d parked ops, want its cap %d", round, len(sess.opFree), parked, opFreeMax)
		}
	}
	hold.StopSession()

	// Everything written reads back.
	for i := 0; i < n; i++ {
		v, st := sess.Read(bkey(i), nil)
		if st != Ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("read-back %d: %q %v", i, v, st)
		}
	}

	// A second run reuses the warm freelist and stays correct even when
	// key/value sizes change shape between runs.
	for i := 0; i < 64; i++ {
		big := make([]byte, 200+i)
		for j := range big {
			big[j] = byte(i)
		}
		if st := sess.Upsert(bkey(i), big); st != Ok {
			t.Fatalf("second run upsert %d: %v", i, st)
		}
		v, st := sess.Read(bkey(i), nil)
		if st != Ok || len(v) != 200+i || v[0] != byte(i) {
			t.Fatalf("second run read %d: len=%d %v", i, len(v), st)
		}
	}

	// Ops through recycled records participate in CPR commits like any other.
	token, err := store.Commit(CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := awaitCommit(t, store, token, sess)
	if got := res.Serials[sess.ID()]; got != sess.Serial() {
		t.Fatalf("commit point %d, want session serial %d", got, sess.Serial())
	}
}

// TestSessionDeleteRecycle: deletes and not-found reads recycle through the
// freelist too, and a recycled record never carries a result across ops.
func TestSessionDeleteRecycle(t *testing.T) {
	cfg := Config{IndexBuckets: 1 << 8, PageBits: 14, MemPages: 8}
	store, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sess := store.StartSession()
	defer sess.StopSession()

	for i := 0; i < 32; i++ {
		sess.Upsert(bkey(i), bkey(i))
	}
	for i := 0; i < 32; i += 2 {
		if st := sess.Delete(bkey(i)); st != Ok {
			t.Fatalf("delete %d: %v", i, st)
		}
	}
	for i := 0; i < 32; i++ {
		v, st := sess.Read(bkey(i), nil)
		if i%2 == 0 {
			if st != NotFound {
				t.Fatalf("read deleted %d: %v", i, st)
			}
		} else if st != Ok || string(v) != string(bkey(i)) {
			t.Fatalf("read kept %d: %v", i, st)
		}
	}
}
