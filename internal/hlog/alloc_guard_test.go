//go:build !race

package hlog

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/epoch"
	"repro/internal/storage"
)

// The guards below run without the race detector (it allocates); CI runs them
// with the other AllocFree guards.

// TestUpdateValueAllocFree: an in-place RMW copies the current value into the
// caller's scratch buffer, so once that has grown it allocates nothing.
func TestUpdateValueAllocFree(t *testing.T) {
	em := epoch.New()
	l, err := New(Config{PageBits: 16, MemPages: 8, Device: storage.NewMemDevice(), Epochs: em})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	g := em.Acquire()
	defer g.Release()
	addr := l.Allocate(g, RecordSize(8, 24))
	if err := l.WriteRecord(addr, 0, 1, key64(1), make([]byte, 24), 24); err != nil {
		t.Fatal(err)
	}
	rec := l.Record(addr)
	var scratch []byte
	update := func() {
		rec.UpdateValue(&scratch, func(cur []byte) []byte {
			binary.LittleEndian.PutUint64(cur[16:], binary.LittleEndian.Uint64(cur[16:])+1)
			return cur
		})
	}
	update() // grows scratch
	if allocs := testing.AllocsPerRun(200, update); allocs != 0 {
		t.Fatalf("UpdateValue allocates %.1f times per call, want 0", allocs)
	}
	if got := binary.LittleEndian.Uint64(rec.Value(nil)[16:]); got != 202 {
		t.Fatalf("counter = %d, want 202", got)
	}
}

// TestAsyncReadAllocFree: a fetch through a ColdRead that has served one
// record of the same size before allocates nothing — not in the log, not in
// the I/O pool.
func TestAsyncReadAllocFree(t *testing.T) {
	sizes := make([]int, 64)
	for i := range sizes {
		sizes[i] = 8
	}
	l, dev, addrs := coldLog(t, sizes...)
	done := make(chan error, 1)
	cr := &ColdRead{Done: func(_ RecordRef, err error) { done <- err }}
	i := 0
	read := func() {
		l.AsyncRead(addrs[i%len(addrs)], cr)
		i++
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	read()
	before := dev.reads.Load()
	if allocs := testing.AllocsPerRun(200, read); allocs != 0 {
		t.Fatalf("AsyncRead allocates %.1f times per record, want 0", allocs)
	}
	if reads := dev.reads.Load() - before; reads != 201 {
		t.Fatalf("%d device reads for 201 records, want one each", reads)
	}
}

// TestFlushPageAllocFree: a page is flushed from its frame, so what a flushed
// page costs the heap is a segment record and an I/O request — under 1 KiB
// whatever the page size, from the first page on and for a fold-over's burst of
// pages in flight at once as for one page at a time. Counted process-wide, so
// the I/O workers are included.
func TestFlushPageAllocFree(t *testing.T) {
	for _, pageBits := range []uint{16, 20} {
		l, g := flushLog(t, pageBits)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const rounds, burst = 8, 5 // five pages stay mutable until appendPages folds over: five segments at once
		for i := 0; i < rounds; i++ {
			appendPages(t, l, g, burst)
		}
		runtime.ReadMemStats(&after)
		perPage := (after.TotalAlloc - before.TotalAlloc) / (rounds * burst)
		t.Logf("%d bytes in %d allocations per flushed %d-byte page",
			perPage, (after.Mallocs-before.Mallocs)/(rounds*burst), l.pageSize)
		if perPage > 1024 {
			t.Fatalf("a flushed %d-byte page allocates %d bytes, want at most 1 KiB", l.pageSize, perPage)
		}
	}
}

// TestScanAllocFree: a scan reads the log by the page into one buffer and hands
// out views of it, so what it allocates does not grow with the records scanned
// — resident pages or evicted ones.
func TestScanAllocFree(t *testing.T) {
	l, _, addrs := scanLog(t, 4, 4000, 8)
	pages := float64(l.Tail() / l.PageSize())
	n := 0
	scan := func() {
		n = 0
		if err := l.Scan(FirstAddress, l.Tail(), func(uint64, RecordRef) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, scan)
	t.Logf("%.1f allocations for %d records on %.0f pages", allocs, n, pages)
	if n != len(addrs) {
		t.Fatalf("scanned %d records of %d", n, len(addrs))
	}
	if allocs > pages/4 {
		t.Fatalf("a scan of %d records on %.0f pages allocates %.1f times, want a handful", n, pages, allocs)
	}
}
