package hlog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/epoch"
	"repro/internal/storage"
)

func newTestLog(t *testing.T, pageBits uint, memPages int) (*Log, *epoch.Manager) {
	t.Helper()
	em := epoch.New()
	l, err := New(Config{
		PageBits: pageBits, MemPages: memPages,
		Device: storage.NewMemDevice(), Epochs: em,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return l, em
}

// fit is where a record of size bytes lands when the tail stands at addr: there,
// or at the start of the next page when what is left of this one is too short.
func fit(l *Log, addr uint64, size uint32) uint64 {
	if l.offset(addr)+uint64(size) > l.pageSize {
		return (l.page(addr) + 1) << l.cfg.PageBits
	}
	return addr
}

func key64(k uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], k)
	return b[:]
}

// valueUint64 reads an 8-byte value.
func valueUint64(r RecordRef) uint64 { return binary.LittleEndian.Uint64(r.Value(nil)) }

func TestHeaderPacking(t *testing.T) {
	// An address is 8-byte aligned and below MaxAddress: its low three bits and
	// bit 47 belong to vw, and a prev with any of them set loses them rather
	// than spilling into vw.
	for vw := 0; vw <= 15; vw++ {
		h := makeHeader(0xABCDEF012345, 777, vw)
		r := RecordRef{words: append([]uint64{h, makeLens(8, 8, 8)}, make([]uint64, 16)...)}
		if r.Prev() != 0x2BCDEF012340 {
			t.Fatalf("vw %d: prev = %x", vw, r.Prev())
		}
		if got := headerVW(h); got != vw {
			t.Fatalf("vw %d: header %#x carries vw %d", vw, h, got)
		}
		if r.Version() != 777 {
			t.Fatalf("vw %d: version = %d", vw, r.Version())
		}
		if r.Tombstone() || r.Invalid() {
			t.Fatalf("vw %d: fresh header has flag bits set", vw)
		}
		want := RecordSize(8, 8*vw) // header + key + vw value words
		if vw == 0 {
			want = RecordSize(8, 8) + 8 // ... or what the lens word says, after the lens word
		}
		if r.Size() != want {
			t.Fatalf("vw %d: size = %d, want %d", vw, r.Size(), want)
		}
	}
}

func TestRecordSizeAlignment(t *testing.T) {
	cases := []struct {
		k, v int
		want uint32
	}{
		{8, 8, 24}, // short form: header + key + value
		{8, 56, 72},
		{8, 64, 80},
		{8, 120, 136},
		{8, 128, 152}, // sixteen value words: the lens word is back
		{8, 5, 32},
		{1, 1, 32},
		{7, 8, 32},
		{9, 8, 40},
		{8, 100, 128},
	}
	for _, c := range cases {
		if got := RecordSize(c.k, c.v); got != c.want {
			t.Errorf("RecordSize(%d,%d) = %d, want %d", c.k, c.v, got, c.want)
		}
	}
}

func TestAllocateWriteRead(t *testing.T) {
	l, em := newTestLog(t, 14, 8)
	g := em.Acquire()
	defer g.Release()

	key := key64(42)
	val := []byte("hello")
	size := RecordSize(len(key), len(val))
	addr := l.Allocate(g, size)
	if addr != FirstAddress {
		t.Fatalf("first addr = %d, want %d", addr, FirstAddress)
	}
	if err := l.WriteRecord(addr, 0, 3, key, val, len(val)); err != nil {
		t.Fatal(err)
	}
	rec := l.Record(addr)
	if !rec.KeyEquals(key) {
		t.Fatal("key mismatch")
	}
	if got := rec.Value(nil); !bytes.Equal(got, val) {
		t.Fatalf("value = %q", got)
	}
	if rec.Version() != 3 {
		t.Fatalf("version = %d", rec.Version())
	}
	if rec.Prev() != 0 {
		t.Fatalf("prev = %d", rec.Prev())
	}
}

// TestAllocateRefusesPastMaxAddress: no record is placed at or past 2^47, where
// a header's bit 47 would stop being vw's — whether the tail stands on the
// boundary or a record would have to spill onto the page that starts there.
func TestAllocateRefusesPastMaxAddress(t *testing.T) {
	l, em := newTestLog(t, 12, 4)
	g := em.Acquire()
	defer g.Release()
	for _, c := range []struct {
		tail uint64
		size uint32
	}{{MaxAddress, 24}, {MaxAddress - 16, 24}, {MaxAddress - 8, 4096}, {MaxAddress + 4096, 8}} {
		l.tail.Store(c.tail)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("tail %#x: Allocate of %d bytes did not refuse", c.tail, c.size)
				}
			}()
			l.Allocate(g, c.size)
		}()
		if l.Tail() != c.tail {
			t.Fatalf("a refused allocation moved the tail from %#x to %#x", c.tail, l.Tail())
		}
	}
}

func TestInPlaceUpdate(t *testing.T) {
	l, em := newTestLog(t, 14, 8)
	g := em.Acquire()
	defer g.Release()

	key := key64(7)
	if err := l.WriteRecord(l.Allocate(g, RecordSize(8, 16)), 0, 1, key, []byte("short"), 16); err == nil {
		t.Fatal("WriteRecord took a value shorter than its capacity into a short-form allocation")
	}
	_, rec := l.Append(g, 0, 1, key, []byte("short"), 16)
	if !rec.SetValue([]byte("a longer value!!")) { // 16 bytes, fits cap
		t.Fatal("SetValue rejected fitting value")
	}
	if got := rec.Value(nil); string(got) != "a longer value!!" {
		t.Fatalf("value = %q", got)
	}
	if rec.SetValue(make([]byte, 17)) {
		t.Fatal("SetValue accepted oversized value")
	}
}

func TestUpdateValueRMW(t *testing.T) {
	l, em := newTestLog(t, 14, 8)
	g := em.Acquire()
	defer g.Release()

	addr := l.Allocate(g, RecordSize(8, 8))
	var v0 [8]byte
	if err := l.WriteRecord(addr, 0, 1, key64(1), v0[:], 8); err != nil {
		t.Fatal(err)
	}
	rec := l.Record(addr)
	var scratch []byte
	for i := 0; i < 10; i++ {
		ok := rec.UpdateValue(&scratch, func(cur []byte) []byte {
			n := binary.LittleEndian.Uint64(cur)
			var out [8]byte
			binary.LittleEndian.PutUint64(out[:], n+5)
			return out[:]
		})
		if !ok {
			t.Fatal("UpdateValue failed")
		}
	}
	if got := valueUint64(rec); got != 50 {
		t.Fatalf("value = %d, want 50", got)
	}
}

func TestConcurrentRMWCounter(t *testing.T) {
	l, em := newTestLog(t, 16, 8)
	g := em.Acquire()
	addr := l.Allocate(g, RecordSize(8, 8))
	var v0 [8]byte
	if err := l.WriteRecord(addr, 0, 1, key64(1), v0[:], 8); err != nil {
		t.Fatal(err)
	}
	g.Release()

	const threads, perThread = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := l.Record(addr)
			var scratch []byte // per goroutine, as per session
			for j := 0; j < perThread; j++ {
				rec.UpdateValue(&scratch, func(cur []byte) []byte {
					binary.LittleEndian.PutUint64(cur, binary.LittleEndian.Uint64(cur)+1)
					return cur // the may-overwrite-cur contract
				})
			}
		}()
	}
	wg.Wait()
	if got := valueUint64(l.Record(addr)); got != threads*perThread {
		t.Fatalf("counter = %d, want %d", got, threads*perThread)
	}
}

func TestPageCrossingAndOffsets(t *testing.T) {
	l, em := newTestLog(t, 12, 8) // 4 KiB pages
	g := em.Acquire()
	defer g.Release()

	size := RecordSize(8, 8)
	var addrs []uint64
	for i := 0; i < 1000; i++ {
		addr := l.Allocate(g, size)
		if err := l.WriteRecord(addr, 0, 1, key64(uint64(i)), key64(uint64(i*10)), 8); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
	}
	// Addresses strictly increase and never straddle a page boundary.
	for i, a := range addrs {
		if i > 0 && a <= addrs[i-1] {
			t.Fatalf("addresses not increasing: %d then %d", addrs[i-1], a)
		}
		if a>>12 != (a+uint64(size)-1)>>12 {
			t.Fatalf("record at %d straddles page boundary", a)
		}
	}
	if l.Tail() <= l.ReadOnly() && l.ReadOnly() != FirstAddress {
		t.Fatalf("tail %d <= readOnly %d", l.Tail(), l.ReadOnly())
	}
	// All records still readable (in memory or on device via Scan).
	n := 0
	err := l.Scan(FirstAddress, l.Tail(), func(addr uint64, rec RecordRef) bool {
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("scan found %d records, want 1000", n)
	}
}

func TestEvictionAndDiskRead(t *testing.T) {
	l, em := newTestLog(t, 12, 4) // tiny: 4 KiB pages, 4 frames
	g := em.Acquire()
	defer g.Release()

	size := RecordSize(8, 8)
	var first uint64
	const n = 2000 // ~64 KB of records >> 16 KB of memory
	for i := 0; i < n; i++ {
		addr := l.Allocate(g, size)
		if i == 0 {
			first = addr
		}
		if err := l.WriteRecord(addr, 0, 1, key64(uint64(i)), key64(uint64(i)*3), 8); err != nil {
			t.Fatal(err)
		}
	}
	if l.InMemory(first) {
		t.Fatalf("first record still in memory; head=%d", l.Head())
	}
	rec, err := l.ReadRecordSync(first)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.KeyEquals(key64(0)) {
		t.Fatal("evicted record key mismatch")
	}
	if got := valueUint64(rec); got != 0 {
		t.Fatalf("evicted record value = %d", got)
	}

	// Async path too.
	done := make(chan error, 1)
	l.AsyncRead(first+uint64(size), &ColdRead{Done: func(r RecordRef, err error) {
		if err == nil && !r.KeyEquals(key64(1)) {
			err = fmt.Errorf("key mismatch on async read")
		}
		done <- err
	}})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestFoldOverFlush(t *testing.T) {
	l, em := newTestLog(t, 13, 8)
	g := em.Acquire()
	defer g.Release()

	size := RecordSize(8, 8)
	for i := 0; i < 100; i++ {
		addr := l.Allocate(g, size)
		if err := l.WriteRecord(addr, 0, 1, key64(uint64(i)), key64(uint64(i)), 8); err != nil {
			t.Fatal(err)
		}
	}
	target := l.Tail()
	l.ShiftReadOnlyTo(target)
	g.Refresh() // let the epoch action fire
	l.WaitDurable(target)
	if l.Durable() < target {
		t.Fatalf("durable = %d < target %d", l.Durable(), target)
	}
	// Device must now contain the flushed records.
	rec, err := l.ReadRecordSync(FirstAddress)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.KeyEquals(key64(0)) {
		t.Fatal("flushed record mismatch")
	}
}

func TestSnapshotAndRestore(t *testing.T) {
	l, em := newTestLog(t, 13, 8)
	g := em.Acquire()
	size := RecordSize(8, 8)
	for i := 0; i < 50; i++ {
		addr := l.Allocate(g, size)
		if err := l.WriteRecord(addr, 0, 2, key64(uint64(i)), key64(uint64(i)+100), 8); err != nil {
			t.Fatal(err)
		}
	}
	end := l.Tail()
	g.Release()
	var snap bytes.Buffer
	if err := l.WriteRange(&snap, FirstAddress, end); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Fresh log + device; restore the snapshot into the address space.
	em2 := epoch.New()
	dev := storage.NewMemDevice()
	l2, err := New(Config{PageBits: 13, MemPages: 8, Device: dev, Epochs: em2})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.RestoreRange(FirstAddress, snap.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := l2.RecoverTo(end); err != nil {
		t.Fatal(err)
	}
	if l2.Tail() != end {
		t.Fatalf("recovered tail = %d, want %d", l2.Tail(), end)
	}
	n := 0
	err = l2.Scan(FirstAddress, end, func(addr uint64, rec RecordRef) bool {
		if !rec.KeyEquals(key64(uint64(n))) {
			t.Fatalf("record %d key mismatch", n)
		}
		if valueUint64(rec) != uint64(n)+100 {
			t.Fatalf("record %d value = %d", n, valueUint64(rec))
		}
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("recovered %d records, want 50", n)
	}
}

func TestConcurrentAllocation(t *testing.T) {
	l, _ := newTestLog(t, 14, 8)
	em := l.cfg.Epochs
	const threads, per = 8, 2000
	size := RecordSize(8, 8)
	addrs := make([][]uint64, threads)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := em.Acquire()
			defer g.Release()
			for j := 0; j < per; j++ {
				addr := l.Allocate(g, size)
				if err := l.WriteRecord(addr, 0, 1, key64(uint64(i)<<32|uint64(j)), key64(uint64(j)), 8); err != nil {
					t.Error(err)
					return
				}
				addrs[i] = append(addrs[i], addr)
				if j%64 == 0 {
					g.Refresh()
				}
			}
		}(i)
	}
	wg.Wait()
	// All addresses globally unique.
	seen := make(map[uint64]bool, threads*per)
	for _, as := range addrs {
		for _, a := range as {
			if seen[a] {
				t.Fatalf("duplicate address %d", a)
			}
			seen[a] = true
		}
	}
	if len(seen) != threads*per {
		t.Fatalf("allocated %d, want %d", len(seen), threads*per)
	}
}

// TestFoldOverWhilePagesOpen is the regression test for a fold-over flush that
// captured addresses reserved but not yet written: Allocate used to move the
// tail onto a new page first and wait for the page's frame after — refreshing
// its epoch, which let a concurrent ShiftReadOnlyTo(Tail()) flush the page's
// first records as the frame's previous page (or as zeros) and call them
// durable. Writers store each record's own address as its key while a
// committer folds over at the tail; afterwards the device must hold, at every
// address below Durable(), the record written there.
func TestFoldOverWhilePagesOpen(t *testing.T) {
	l, em := newTestLog(t, 12, 4) // 4 KiB pages, 4 frames: a page opens every 170 records
	const writers, per = 3, 10000
	size := RecordSize(8, 8)
	var wg sync.WaitGroup
	var stop atomic.Bool
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := em.Acquire()
			defer g.Release()
			for j := 0; j < per; j++ {
				addr := l.Allocate(g, size)
				if err := l.WriteRecord(addr, 0, 1, key64(addr), key64(addr), 8); err != nil {
					t.Error(err)
					return
				}
				g.Refresh()
			}
		}()
	}
	committer := make(chan struct{})
	go func() {
		defer close(committer)
		g := em.Acquire()
		defer g.Release()
		for last := false; !last; {
			last = stop.Load() // one more fold-over once the writers are done
			target := l.Tail()
			l.ShiftReadOnlyTo(target)
			for g.Refresh(); l.Durable() < target; g.Refresh() {
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	stop.Store(true)
	<-committer

	end := l.Tail()
	if l.Durable() != end {
		t.Fatalf("durable %d, tail %d after the last fold-over", l.Durable(), end)
	}
	data := make([]byte, end)
	if _, err := l.cfg.Device.ReadAt(data[FirstAddress:], FirstAddress); err != nil {
		t.Fatal(err)
	}
	n := 0
	for addr := uint64(FirstAddress); addr < end; addr = fit(l, addr+uint64(size), size) {
		rec := bytesToRecord(data[addr:addr+uint64(size)], nil)
		if !rec.KeyEquals(key64(addr)) {
			t.Fatalf("device holds at %d (page offset %d) header %#x key %x, not the record written there",
				addr, l.offset(addr), rec.Header(), rec.Key(nil))
		}
		n++
	}
	if n != writers*per {
		t.Fatalf("%d records on the device, %d written", n, writers*per)
	}
}

func TestScanSkipsPagePadding(t *testing.T) {
	l, em := newTestLog(t, 12, 8) // 4 KiB page
	g := em.Acquire()
	defer g.Release()
	// 100-byte values -> 128-byte records; 4096-64=4032 on first page,
	// 4032/128=31.5 -> padding at end of page 0.
	val := make([]byte, 100)
	size := RecordSize(8, 100)
	const n = 40
	for i := 0; i < n; i++ {
		addr := l.Allocate(g, size)
		if err := l.WriteRecord(addr, 0, 1, key64(uint64(i)), val, 100); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	if err := l.Scan(FirstAddress, l.Tail(), func(uint64, RecordRef) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("scan found %d, want %d", count, n)
	}
}

func TestQuickLensRoundTrip(t *testing.T) {
	f := func(k uint16, v, c uint32) bool {
		kl := int(k)
		vl := int(v % (1 << 24))
		cl := int(c % (1 << 24))
		lens := makeLens(kl, vl, cl)
		hw, gk, gv, gc := shape(0, &lens)
		return hw == 2 && gk == kl && gv == vl && gc == cl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickValueRoundTrip(t *testing.T) {
	l, em := newTestLog(t, 16, 8)
	g := em.Acquire()
	defer g.Release()
	f := func(key, val []byte) bool {
		if len(key) == 0 || len(key) > 64 {
			return true
		}
		if len(val) > 512 {
			val = val[:512]
		}
		addr := l.Allocate(g, RecordSize(len(key), len(val)))
		if err := l.WriteRecord(addr, 0, 1, key, val, len(val)); err != nil {
			return false
		}
		rec := l.Record(addr)
		return rec.KeyEquals(key) && bytes.Equal(rec.Value(nil), val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
