package wal

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

func rec(key uint64, val string) Record {
	return Record{Key: key, Value: []byte(val)}
}

// openEmpty opens the log on dev, which must hold none.
func openEmpty(tb testing.TB, dev storage.Device) *Log {
	tb.Helper()
	l, err := Open(dev, func(Record) { tb.Fatal("replayed a record of an empty device") })
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

func TestAppendFlushReplay(t *testing.T) {
	dev := storage.NewMemDevice()
	l := openEmpty(t, dev)
	l.Append([]Record{rec(1, "aaaa"), rec(2, "bb")})
	l.Append([]Record{rec(3, "cccccccc")})
	if end, err := l.Flush(); err != nil || end != l.Flushed() || end != uint64(dev.Size()) {
		t.Fatalf("Flush = %d, %v; the log flushed %d of a %d-byte device", end, err, l.Flushed(), dev.Size())
	}
	l.Close()

	var got []Record
	end, err := replay(dev, l.Flushed(), func(r Record) {
		got = append(got, Record{Key: r.Key, Value: append([]byte(nil), r.Value...)})
	})
	if err != nil || end != l.Flushed() {
		t.Fatalf("replay to %d: %v; the log flushed %d", end, err, l.Flushed())
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
	if got[0].Key != 1 || string(got[0].Value) != "aaaa" {
		t.Fatalf("rec 0 = %+v", got[0])
	}
	if got[2].Key != 3 || string(got[2].Value) != "cccccccc" {
		t.Fatalf("rec 2 = %+v", got[2])
	}
}

func TestLSNMonotonic(t *testing.T) {
	dev := storage.NewMemDevice()
	l := openEmpty(t, dev)
	defer l.Close()
	var last uint64
	for i := 0; i < 100; i++ {
		lsn := l.Append([]Record{rec(uint64(i), "xxxxxxxx")})
		if i > 0 && lsn <= last {
			t.Fatalf("lsn %d not greater than previous %d", lsn, last)
		}
		last = lsn
	}
	l.mu.Lock()
	next := l.lsn
	l.mu.Unlock()
	if next <= last {
		t.Fatal("next LSN must exceed last appended")
	}
}

func TestGroupCommitFlusher(t *testing.T) {
	dev := storage.NewMemDevice()
	l := openEmpty(t, dev)
	l.Append([]Record{rec(1, "v")})
	deadline := time.Now().Add(2 * time.Second)
	for l.Flushed() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("group-commit flusher never flushed")
		}
		time.Sleep(time.Millisecond)
	}
	l.Close()
}

func TestConcurrentAppendsAllReplayed(t *testing.T) {
	dev := storage.NewMemDevice()
	l := openEmpty(t, dev)
	const threads, per = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var v [8]byte
			for j := 0; j < per; j++ {
				binary.LittleEndian.PutUint64(v[:], uint64(i*per+j))
				l.Append([]Record{{Key: uint64(i), Value: v[:]}})
			}
		}()
	}
	wg.Wait()
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	count := 0
	if _, err := replay(dev, l.Flushed(), func(Record) { count++ }); err != nil {
		t.Fatal(err)
	}
	if count != threads*per {
		t.Fatalf("replayed %d, want %d", count, threads*per)
	}
}

// TestReplayTornTail: replay keeps the whole transactions before a torn tail
// and applies no record of the one it cuts — whether the cut falls in its
// last record or between two of its records.
func TestReplayTornTail(t *testing.T) {
	dev := storage.NewMemDevice()
	l := openEmpty(t, dev)
	l.Append([]Record{rec(1, "first")})
	l.Append([]Record{rec(2, "second"), rec(3, "third"), rec(4, "fourth")})
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	first := uint64(len(encode([]Record{rec(1, "first")})))
	for _, size := range []uint64{l.Flushed() - 3, first + 4 + 12 + 6 + 12 + 5} {
		var keys []uint64
		end, err := replay(dev, size, func(r Record) { keys = append(keys, r.Key) })
		if err != nil || end != first || len(keys) != 1 || keys[0] != 1 {
			t.Fatalf("replay of %d bytes: keys %v to %d (%v), want key 1 to %d", size, keys, end, err, first)
		}
	}
}

// TestFailedGroupIsOwed: a group whose background write fails is written by
// the next flush, ahead of what was appended since; until then Flushed stays
// behind it, and a Flush reports the failure.
func TestFailedGroupIsOwed(t *testing.T) {
	inj := storage.NewInjector(storage.FaultConfig{})
	dev := storage.NewMemDevice()
	l := openEmpty(t, storage.NewFaultDevice(dev, inj))
	defer l.Close()
	inj.FailPermanently()
	l.Append([]Record{rec(1, "early")})
	time.Sleep(5 * flushEvery) // the flusher fails the group
	if _, err := l.Flush(); err == nil || l.Flushed() != 0 {
		t.Fatalf("Flush during the failure = %v, flushed %d", err, l.Flushed())
	}
	inj.Heal()
	l.Append([]Record{rec(2, "later")})
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	if _, err := replay(dev, uint64(dev.Size()), func(r Record) { keys = append(keys, r.Key) }); err != nil || len(keys) != 2 || keys[0] != 1 || keys[1] != 2 {
		t.Fatalf("replayed keys %v (%v), want 1 then 2", keys, err)
	}
}

// TestOpenResumesAfterWholePrefix: a log reopened over a torn tail appends
// after its last whole transaction, and what is left of the torn one behind a
// shorter group is not replayed.
func TestOpenResumesAfterWholePrefix(t *testing.T) {
	dev := storage.NewMemDevice()
	l := openEmpty(t, dev)
	l.Append([]Record{rec(1, "one")})
	l.Append([]Record{rec(2, "two"), rec(3, "three")})
	l.Append([]Record{rec(4, "four, the torn one")})
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	torn := dev.Clone()
	torn.WriteAt([]byte{0xff}, torn.Size()-1) //nolint:errcheck // in-memory

	var keys []uint64
	l, err := Open(torn, func(r Record) { keys = append(keys, r.Key) })
	if err != nil || len(keys) != 3 {
		t.Fatalf("Open replayed %v (%v), want keys 1, 2 and 3", keys, err)
	}
	l.Append([]Record{rec(5, "5")})
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	keys = nil
	if _, err := replay(torn, uint64(torn.Size()), func(r Record) { keys = append(keys, r.Key) }); err != nil || len(keys) != 4 || keys[3] != 5 {
		t.Fatalf("second replay %v (%v), want keys 1, 2, 3 and 5", keys, err)
	}
}

func TestAppendMeasuredMatchesAppend(t *testing.T) {
	dev := storage.NewMemDevice()
	l := openEmpty(t, dev)
	defer l.Close()
	lsn1 := l.Append([]Record{rec(1, "abc")})
	lsn2, lockNs, copyNs := l.AppendMeasured([]Record{rec(2, "def")})
	if lsn2 <= lsn1 {
		t.Fatal("measured append did not advance LSN")
	}
	if lockNs < 0 || copyNs < 0 {
		t.Fatal("negative timings")
	}
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	count := 0
	if _, err := replay(dev, l.Flushed(), func(Record) { count++ }); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("replayed %d, want 2", count)
	}
}

func BenchmarkAppend1Key(b *testing.B) {
	dev := storage.NewMemDevice()
	l := openEmpty(b, dev)
	defer l.Close()
	var v [8]byte
	recs := []Record{{Key: 1, Value: v[:]}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(recs)
	}
}
