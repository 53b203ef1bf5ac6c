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

func TestAppendFlushReplay(t *testing.T) {
	dev := storage.NewMemDevice()
	l := New(dev)
	l.Append([]Record{rec(1, "aaaa"), rec(2, "bb")})
	l.Append([]Record{rec(3, "cccccccc")})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	var got []Record
	err := Replay(dev, l.Flushed(), func(r Record) {
		got = append(got, Record{Key: r.Key, Value: append([]byte(nil), r.Value...)})
	})
	if err != nil {
		t.Fatal(err)
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
	l := New(dev)
	defer l.Close()
	var last uint64
	for i := 0; i < 100; i++ {
		lsn := l.Append([]Record{rec(uint64(i), "xxxxxxxx")})
		if i > 0 && lsn <= last {
			t.Fatalf("lsn %d not greater than previous %d", lsn, last)
		}
		last = lsn
	}
	if l.LSN() <= last {
		t.Fatal("next LSN must exceed last appended")
	}
}

func TestGroupCommitFlusher(t *testing.T) {
	dev := storage.NewMemDevice()
	l := New(dev)
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
	l := New(dev)
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
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	count := 0
	if err := Replay(dev, l.Flushed(), func(Record) { count++ }); err != nil {
		t.Fatal(err)
	}
	if count != threads*per {
		t.Fatalf("replayed %d, want %d", count, threads*per)
	}
}

func TestReplayTornTail(t *testing.T) {
	dev := storage.NewMemDevice()
	l := New(dev)
	l.Append([]Record{rec(1, "first")})
	l.Append([]Record{rec(2, "second")})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Claim fewer durable bytes than written: replay must stop cleanly at
	// the torn boundary, keeping the intact prefix.
	count := 0
	if err := Replay(dev, l.Flushed()-3, func(Record) { count++ }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("torn replay got %d records, want 1", count)
	}
}

func TestAppendMeasuredMatchesAppend(t *testing.T) {
	dev := storage.NewMemDevice()
	l := New(dev)
	defer l.Close()
	lsn1 := l.Append([]Record{rec(1, "abc")})
	lsn2, lockNs, copyNs := l.AppendMeasured([]Record{rec(2, "def")})
	if lsn2 <= lsn1 {
		t.Fatal("measured append did not advance LSN")
	}
	if lockNs < 0 || copyNs < 0 {
		t.Fatal("negative timings")
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := Replay(dev, l.Flushed(), func(Record) { count++ }); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("replayed %d, want 2", count)
	}
}

func BenchmarkAppend1Key(b *testing.B) {
	dev := storage.NewMemDevice()
	l := New(dev)
	defer l.Close()
	var v [8]byte
	recs := []Record{{Key: 1, Value: v[:]}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(recs)
	}
}
