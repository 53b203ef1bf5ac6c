package hlog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/epoch"
	"repro/internal/storage"
)

// flushValue is the 24-byte value of the record at addr after gen in-place
// updates: three words that each give the other two away, so a torn or stale
// copy is recognisable on its own.
func flushValue(addr, gen uint64) []byte {
	var v [24]byte
	binary.LittleEndian.PutUint64(v[0:], gen)
	binary.LittleEndian.PutUint64(v[8:], addr^gen*0x9e3779b97f4a7c15)
	binary.LittleEndian.PutUint64(v[16:], ^(addr + gen))
	return v[:]
}

// TestFlushFromFrames pins the contract a flush without a copy rests on: a
// page goes to the device as its frame holds it, and its checksum is folded
// from the frame afterwards, so the frame must not change from the moment the
// write is issued. Writers append records and — as a thread may — go on
// updating each in place for as long as it lies at or above the read-only
// offset they loaded since their last refresh; a committer folds over at the
// tail every few milliseconds; four frames keep eviction running. After every
// WaitDurable a second Log over the same device verifies every fully flushed
// page against PageChecksums, loads the tail pages (RecoverTo reads them into
// its frames' bytes) and scans back every record below the fold-over as its
// writer left it. Run under -race: a store below the safe-read-only offset
// would also show as a race with the device's read of the frame.
func TestFlushFromFrames(t *testing.T) {
	for _, tc := range []struct {
		pageBits uint
		per      int
	}{{12, 20000}, {16, 60000}} {
		t.Run(fmt.Sprintf("page%dKiB", 1<<tc.pageBits>>10), func(t *testing.T) {
			flushFromFrames(t, tc.pageBits, tc.per)
		})
	}
}

func flushFromFrames(t *testing.T, pageBits uint, per int) {
	const writers = 3
	dev := storage.NewMemDevice()
	em := epoch.New()
	cfg := Config{PageBits: pageBits, MemPages: MinMemPages, Device: dev, Epochs: em}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var mu sync.Mutex
	final := make(map[uint64]uint64) // address -> updates its writer made in place
	size := RecordSize(8, 24)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := em.Acquire()
			defer g.Release()
			for j := 0; j < per; j++ {
				addr := l.Allocate(g, size)
				if err := l.WriteRecord(addr, 0, 1, key64(addr), flushValue(addr, 0), 24); err != nil {
					t.Error(err)
					return
				}
				gen := uint64(0)
				for rec := l.Record(addr); gen < uint64(j%4) && addr >= l.ReadOnly(); {
					gen++
					rec.SetValue(flushValue(addr, gen))
				}
				mu.Lock()
				final[addr] = gen
				mu.Unlock()
				g.Refresh()
			}
		}()
	}

	checked, records := uint64(FirstAddress), 0
	foldOver := func() {
		target := l.Tail()
		l.ShiftReadOnlyTo(target) // the committer holds no guard: the writers' refreshes drain the shift
		l.WaitDurable(target)
		if err := l.FlushErr(); err != nil {
			t.Fatal(err)
		}
		vcfg := cfg
		vcfg.Epochs = epoch.New()
		v, err := New(vcfg)
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		if err := v.VerifyPages(l.PageChecksums(), target); err != nil {
			t.Fatalf("after the fold-over at %d: %v", target, err)
		}
		if err := v.RecoverTo(target); err != nil {
			t.Fatal(err)
		}
		err = v.Scan(checked, target, func(addr uint64, rec RecordRef) bool {
			mu.Lock()
			gen, ok := final[addr]
			mu.Unlock()
			if !ok || !rec.KeyEquals(key64(addr)) || !bytes.Equal(rec.Value(nil), flushValue(addr, gen)) {
				t.Errorf("record at %d reads key %x value %x from the device; written: %v, %d updates in place",
					addr, rec.Key(nil), rec.Value(nil), ok, gen)
				return false
			}
			records++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		checked = target
	}

	var done atomic.Bool
	go func() { wg.Wait(); done.Store(true) }()
	for !done.Load() && !t.Failed() {
		time.Sleep(time.Millisecond)
		foldOver()
	}
	foldOver() // the writers are gone: everything they wrote is below this one
	if !t.Failed() && records != writers*per {
		t.Fatalf("%d records read back from the device, %d written", records, writers*per)
	}
}
