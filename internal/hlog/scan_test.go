package hlog

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/epoch"
	"repro/internal/storage"
)

// Scan's contract, case by case: every record that starts in [from, to) is
// delivered whole and in address order, whatever page state it is read from.

// flipDevice hands out device bytes with one bit flipped while flips is
// positive: a fault on the read path, not in what is stored.
type flipDevice struct {
	storage.Device
	reads atomic.Int64
	flips atomic.Int64
}

func (d *flipDevice) ReadAt(p []byte, off int64) (int, error) {
	d.reads.Add(1)
	n, err := d.Device.ReadAt(p, off)
	if d.flips.Add(-1) >= 0 {
		p[len(p)/2] ^= 0x10
	}
	return n, err
}

// scanLog appends n records of an 8-byte key (the record's index) and a
// valLen-byte value to a log of 4 KiB pages, folds over at the tail and waits
// for the flush: with memPages small the early pages are evicted, and every
// full page has a recorded checksum.
func scanLog(t testing.TB, memPages, n, valLen int) (*Log, *flipDevice, []uint64) {
	t.Helper()
	em := epoch.New()
	dev := &flipDevice{Device: storage.NewMemDevice()}
	dev.flips.Store(-1 << 40)
	l, err := New(Config{PageBits: 12, MemPages: memPages, Device: dev, Epochs: em})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	g := em.Acquire()
	defer g.Release()
	val := make([]byte, valLen)
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = l.Allocate(g, RecordSize(8, valLen))
		if err := l.WriteRecord(addrs[i], 0, 1, key64(uint64(i)), val, valLen); err != nil {
			t.Fatal(err)
		}
		g.Refresh()
	}
	l.ShiftReadOnlyTo(l.Tail())
	g.Refresh()
	l.WaitDurable(l.Tail())
	return l, dev, addrs
}

// scanned runs one Scan and checks what it delivers against the records of
// addrs that start in [from, to), stopping after limit records when limit > 0.
func scanned(t *testing.T, l *Log, addrs []uint64, from, to uint64, limit int) {
	t.Helper()
	var want []int
	for i, a := range addrs {
		if a >= from && a < to && (limit == 0 || len(want) < limit) {
			want = append(want, i)
		}
	}
	got := 0
	err := l.Scan(from, to, func(addr uint64, rec RecordRef) bool {
		if got >= len(want) {
			t.Fatalf("scan [%d,%d) delivered a record at %d past the %d expected", from, to, addr, len(want))
		}
		i := want[got]
		if addr != addrs[i] || !rec.KeyEquals(key64(uint64(i))) || rec.Size() != uint32(len(rec.words)*8) {
			t.Fatalf("scan [%d,%d) delivered #%d at %d (key %x, %d of %d bytes), want record %d at %d",
				from, to, got, addr, rec.Key(nil), len(rec.words)*8, rec.Size(), i, addrs[i])
		}
		got++
		return got != limit
	})
	if err != nil {
		t.Fatalf("scan [%d,%d): %v", from, to, err)
	}
	if got != len(want) {
		t.Fatalf("scan [%d,%d) delivered %d records, want %d", from, to, got, len(want))
	}
}

func TestScanContract(t *testing.T) {
	// 56-byte records fill page 0 exactly (4032 = 72 x 56) and leave 8 bytes of
	// padding on every later page; 128-byte records leave 64 on page 0.
	for _, valLen := range []int{25, 100} {
		for _, mem := range []struct {
			name  string
			pages int
		}{{"resident", 32}, {"evicted", 4}} {
			t.Run(fmt.Sprintf("val%d/%s", valLen, mem.name), func(t *testing.T) {
				l, dev, addrs := scanLog(t, mem.pages, 600, valLen)
				size := uint64(RecordSize(8, valLen))
				page := l.PageSize()
				if l.Tail() < 8*page {
					t.Fatalf("log too short for the table: tail %d", l.Tail())
				}
				if evicted := !l.InMemory(addrs[0]); evicted != (mem.name == "evicted") {
					t.Fatalf("first page evicted = %v", evicted)
				}
				mid := addrs[len(addrs)/2]
				cases := []struct {
					name     string
					from, to uint64
					limit    int
				}{
					{"whole log", FirstAddress, l.Tail(), 0},
					{"one page", page, 2 * page, 0},
					{"from mid-page", addrs[10], l.Tail(), 0},
					{"to mid-page", FirstAddress, mid, 0},
					{"both mid-page, one page", addrs[3], addrs[9], 0},
					{"to inside a record", FirstAddress, mid + 8, 0},
					{"to inside the last record", addrs[5], l.Tail() - size + 16, 0},
					{"to in the page's padding", FirstAddress, 3*page - 4, 0},
					{"empty range", mid, mid, 0},
					{"stop at the first record", FirstAddress, l.Tail(), 1},
					{"stop mid-page", FirstAddress, l.Tail(), 100},
				}
				for _, c := range cases {
					before := dev.reads.Load()
					scanned(t, l, addrs, c.from, c.to, c.limit)
					if reads := dev.reads.Load() - before; mem.name == "resident" && reads != 0 {
						t.Fatalf("%s: %d device reads with every page resident", c.name, reads)
					}
				}
				if mem.name == "evicted" {
					// One read per evicted page, however many records it holds.
					before := dev.reads.Load()
					scanned(t, l, addrs, FirstAddress, l.Head(), 0)
					if reads, pages := dev.reads.Load()-before, int64(l.Head()/page); reads != pages {
						t.Fatalf("%d device reads for %d evicted pages", reads, pages)
					}
				}
			})
		}
	}
}

// TestScanHealsBitFlip: a page with a recorded checksum is verified when it
// comes from the device. One flipped bit on the read path costs one more read;
// a flip on every read fails the scan after three.
func TestScanHealsBitFlip(t *testing.T) {
	l, dev, addrs := scanLog(t, 4, 600, 100)
	page := l.PageSize()
	if l.InMemory(3 * page) {
		t.Fatal("page 2 still resident")
	}
	// From mid-page: the page is still read whole, or it could not be checked.
	from := addrs[70]
	if from>>12 != 2 {
		t.Fatalf("record 70 is on page %d", from>>12)
	}

	dev.flips.Store(1)
	before := dev.reads.Load()
	scanned(t, l, addrs, from, 3*page, 0)
	if reads := dev.reads.Load() - before; reads != 2 {
		t.Fatalf("transient flip: %d device reads, want 2", reads)
	}

	dev.flips.Store(1 << 40)
	before = dev.reads.Load()
	err := l.Scan(from, 3*page, func(uint64, RecordRef) bool {
		t.Fatal("a record of a page that never verified was delivered")
		return false
	})
	if err == nil || !strings.Contains(err.Error(), "page 2 checksum mismatch") {
		t.Fatalf("persistent flip: err = %v", err)
	}
	if reads := dev.reads.Load() - before; reads != 3 {
		t.Fatalf("persistent flip: %d device reads, want 3", reads)
	}
}

// TestScanWhileFramesAreReclaimed: a scanner holds no epoch protection, so a
// writer may evict the page it is copying and give the frame to a new page.
// Every record of the immutable prefix must come out as written all the same:
// from the frame if it stayed the page's across the copy, else from the device.
func TestScanWhileFramesAreReclaimed(t *testing.T) {
	l, em := newTestLog(t, 12, 4)
	size := RecordSize(8, 8)
	var wg sync.WaitGroup
	var stop atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		g := em.Acquire()
		defer g.Release()
		for !stop.Load() {
			addr := l.Allocate(g, size)
			if err := l.WriteRecord(addr, 0, 1, key64(addr), key64(addr), 8); err != nil {
				t.Error(err)
				return
			}
			g.Refresh()
		}
	}()
	defer wg.Wait()
	defer stop.Store(true)

	// The few pages below the safe-read-only offset: the ones whose frames the
	// writer takes next (locally, some twenty copies per run lose their frame).
	window := 3 * l.pageSize
	records := 0
	for scans, last := 0, uint64(0); scans < 400; scans++ {
		to := l.SafeReadOnly()
		for ; to < last+l.pageSize; to = l.SafeReadOnly() {
			runtime.Gosched() // until the writer is a page further
		}
		last = to
		from := uint64(FirstAddress)
		if to > window+l.pageSize {
			from = (to - window) &^ l.pageMask
		}
		next := from
		err := l.Scan(from, to, func(addr uint64, rec RecordRef) bool {
			if addr != next || !rec.KeyEquals(key64(addr)) {
				t.Fatalf("scan of [%d,%d) delivered at %d the record with key %x (next expected at %d)",
					from, to, addr, rec.Key(nil), next)
			}
			next = fit(l, addr+uint64(size), size) // past the page's padding, if any
			records++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if next != to {
			t.Fatalf("scan of [%d,%d) ended at %d", from, to, next)
		}
	}
	t.Logf("%d records scanned while %d pages went through %d frames", records, l.Tail()/l.pageSize, len(l.frames))
}

// TestRecoverToLeavesPageZeroToTheDevice: New claims frame 0 for an empty page
// 0. A log recovered to an end on its last frame's page (page MemPages-1) keeps
// pages 1.. resident and loads nothing into frame 0 — whose claim used to
// survive, so a scan served page 0 from the empty frame and found no records
// on it.
func TestRecoverToLeavesPageZeroToTheDevice(t *testing.T) {
	const memPages = 4
	l, dev, addrs := scanLog(t, memPages, 260, 25) // 56-byte records, 73 to a page: the tail is on page 3
	if got := l.page(l.Tail()); got != memPages-1 {
		t.Fatalf("tail on page %d, want %d", got, memPages-1)
	}
	r, err := New(Config{PageBits: 12, MemPages: memPages, Device: dev, Epochs: epoch.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.RecoverTo(l.Tail()); err != nil {
		t.Fatal(err)
	}
	scanned(t, r, addrs, FirstAddress, r.Tail(), 0)
}
