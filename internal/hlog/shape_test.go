package hlog

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/epoch"
	"repro/internal/obs"
	"repro/internal/storage"
)

// The record's two shapes (DESIGN "Record layout"): what decides between them,
// that every accessor reads both, what an in-place update may do to each, that
// a log from before the short form existed reads and updates as it did, and the
// page tails a 24-byte record leaves.

// headerVW is the vw a header carries: bits 0..2, and bit 47 as its fourth.
func headerVW(h uint64) int { return int(h&vwMask>>44 | h&7) }

// wordsToBytes is a record's words as they lie on the device.
func wordsToBytes(words []uint64) []byte {
	b := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(b[8*i:], w)
	}
	return b
}

// FuzzRecordShape: any key of 1–64 bytes and value of 0–128 in a capacity at
// least its length, appended, reads back through every accessor — before and
// after the tombstone, invalid and latch bits went on — takes the short form
// exactly when it is eligible, and occupies what Allocate was asked for.
func FuzzRecordShape(f *testing.F) {
	for _, s := range []struct {
		k, v int
		grow uint8
	}{{8, 8, 0}, {8, 56, 0}, {8, 64, 0}, {8, 5, 3}, {8, 8, 8}, {8, 0, 0}, {8, 0, 8}, {7, 8, 0}, {9, 16, 0}, {64, 128, 31}, {1, 1, 0}, {8, 24, 0}, {8, 12, 0},
		{8, 120, 0}, {8, 128, 0}, {8, 112, 8}, {8, 100, 20}} {
		f.Add(bytes.Repeat([]byte{0xA5}, s.k), bytes.Repeat([]byte{0x5A}, s.v), s.grow, uint32(s.k*1000+s.v), uint16(s.v*61+s.k), uint8(s.k+s.v))
	}
	em := epoch.New()
	l, err := New(Config{PageBits: 16, MemPages: 8, Device: discardDevice{}, Epochs: em})
	if err != nil {
		f.Fatal(err)
	}
	g := em.Acquire()
	f.Cleanup(func() { g.Release(); l.Close() })
	f.Fuzz(func(t *testing.T, key, val []byte, grow uint8, prevWords uint32, version uint16, flags uint8) {
		if len(key) == 0 {
			return
		}
		key, val = key[:min(len(key), 64)], val[:min(len(val), 128)]
		valCap := len(val) + int(grow%32)
		prev := FirstAddress + 8*uint64(prevWords)
		version &= MaxVersion
		g.Refresh()
		addr, rec := l.Append(g, prev, version, key, val, valCap)
		asked := l.Tail() - addr // nothing else appends: the tail is this record's end

		short := headerVW(rec.Header()) != 0
		eligible := len(key) == 8 && len(val) == valCap && valCap%8 == 0 && valCap >= 8 && valCap <= 120
		if short != eligible {
			t.Fatalf("key %d, value %d in capacity %d: short form %v, eligible %v", len(key), len(val), valCap, short, eligible)
		}
		want := 8 * (2 + (len(key)+7)/8 + (valCap+7)/8)
		if short {
			want -= 8
			if vw := headerVW(rec.Header()); vw != valCap/8 {
				t.Fatalf("vw = %d for a value of %d bytes", vw, valCap)
			}
		}
		if uint64(want) != asked || valCap == len(val) && RecordSize(len(key), valCap) != uint32(want) {
			t.Fatalf("key %d, value %d in capacity %d: %d bytes allocated, RecordSize %d, want %d",
				len(key), len(val), valCap, asked, RecordSize(len(key), valCap), want)
		}
		check := func(when string, tombstone, invalid bool) {
			t.Helper()
			if !rec.KeyEquals(key) || !bytes.Equal(rec.Key(nil), key) {
				t.Fatalf("%s: key %x, want %x", when, rec.Key(nil), key)
			}
			if got := rec.Value(nil); !bytes.Equal(got, val) {
				t.Fatalf("%s: value %x, want %x", when, got, val)
			}
			if got := val; when != "latched" && !bytes.Equal(rec.LatchedValue(nil), got) { // it takes the latch itself
				t.Fatalf("%s: latched value %x, want %x", when, rec.LatchedValue(nil), got)
			}
			if rec.Size() != uint32(want) || rec.Prev() != prev || rec.Version() != version ||
				rec.Tombstone() != tombstone || rec.Invalid() != invalid {
				t.Fatalf("%s: size %d prev %d version %d tombstone %v invalid %v, want %d %d %d %v %v", when,
					rec.Size(), rec.Prev(), rec.Version(), rec.Tombstone(), rec.Invalid(), want, prev, version, tombstone, invalid)
			}
			// The same bytes as the device holds them, in full and cut after the
			// header word: the size, or the 16 bytes it takes to read it.
			b := wordsToBytes(rec.words[:want/8])
			if got := sizeFromBytes(b); got != want {
				t.Fatalf("%s: size from bytes %d, want %d", when, got, want)
			}
			if got := sizeFromBytes(b[:8]); short && got != want || !short && got != 16 {
				t.Fatalf("%s: size from the header word alone %d (short form %v, size %d)", when, got, short, want)
			}
		}
		check("written", false, false)
		tombstone, invalid := flags&1 != 0, flags&2 != 0
		if tombstone {
			rec.SetTombstone()
		}
		if invalid {
			rec.SetInvalid()
		}
		rec.Lock()
		check("latched", tombstone, invalid)
		rec.Unlock()
		check("released", tombstone, invalid)
	})
}

// mustAppend appends a record of an 8-byte key.
func mustAppend(t *testing.T, l *Log, g *epoch.Guard, k uint64, val []byte, valCap int) RecordRef {
	t.Helper()
	_, rec := l.Append(g, 0, 1, key64(k), val, valCap)
	return rec
}

// TestInPlaceRule: a long-form record takes any value up to its capacity in
// place, as ever; a short-form record has nowhere to keep a length, so it takes
// a value of its own length and refuses every other — the caller's
// read-copy-update then writes a record of whatever form the new value needs.
func TestInPlaceRule(t *testing.T) {
	l, em := newTestLog(t, 14, 8)
	g := em.Acquire()
	defer g.Release()
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	for _, c := range []struct {
		name        string
		val, valCap int
		short       bool
		sets        map[int]bool // length of the new value -> accepted in place
	}{
		{"short 8", 8, 8, true, map[int]bool{8: true, 0: false, 5: false, 7: false, 9: false, 16: false}},
		{"short 16", 16, 16, true, map[int]bool{16: true, 8: false, 15: false, 17: false, 24: false}},
		{"short 56", 56, 56, true, map[int]bool{56: true, 48: false, 64: false}},
		{"short 64: vw 8, bit 47 set", 64, 64, true, map[int]bool{64: true, 56: false, 8: false, 72: false}},
		{"short 120", 120, 120, true, map[int]bool{120: true, 112: false, 119: false, 128: false}},
		{"long: 128 bytes would need vw = 16", 128, 128, false, map[int]bool{128: true, 8: true, 0: true, 129: false}},
		{"long: 5 bytes in 8", 5, 8, false, map[int]bool{8: true, 5: true, 0: true, 9: false}},
		{"long: 8 bytes in 16", 8, 16, false, map[int]bool{16: true, 8: true, 3: true, 17: false}},
		{"long: 12 bytes in 12", 12, 12, false, map[int]bool{12: true, 8: true, 13: false}},
	} {
		for n, accepted := range c.sets {
			for _, via := range []string{"SetValue", "UpdateValue"} {
				rec := mustAppend(t, l, g, 1, fill(c.val, 0x11), c.valCap)
				if short := headerVW(rec.Header()) != 0; short != c.short {
					t.Fatalf("%s: short form %v", c.name, short)
				}
				size, next := rec.Size(), fill(n, 0x22)
				var got bool
				if via == "SetValue" {
					got = rec.SetValue(next)
				} else {
					var scratch []byte
					got = rec.UpdateValue(&scratch, func(cur []byte) []byte {
						if !bytes.Equal(cur, fill(c.val, 0x11)) {
							t.Fatalf("%s: UpdateValue saw %x", c.name, cur)
						}
						return next
					})
				}
				want := fill(c.val, 0x11)
				if accepted {
					want = next
				}
				if got != accepted || !bytes.Equal(rec.Value(nil), want) || rec.Size() != size || !rec.KeyEquals(key64(1)) {
					t.Fatalf("%s: %s of %d bytes = %v, want %v; value now %x, size %d (was %d)",
						c.name, via, n, got, accepted, rec.Value(nil), rec.Size(), size)
				}
			}
		}
	}

	// The 8-byte value's update is one atomic store in either form: it goes
	// through while another thread holds the record's latch.
	for _, rec := range []RecordRef{
		mustAppend(t, l, g, 2, fill(8, 0x11), 8),
		bytesToRecord(oldRecord(0, 1, false, key64(2), fill(8, 0x11), 8), nil),
	} {
		rec.Lock()
		done := make(chan bool, 1)
		go func() { done <- rec.SetValue(fill(8, 0x33)) }()
		select {
		case ok := <-done:
			if !ok || !bytes.Equal(rec.Value(nil), fill(8, 0x33)) {
				t.Fatalf("8-byte SetValue under a held latch = %v, value %x", ok, rec.Value(nil))
			}
		case <-time.After(5 * time.Second):
			t.Fatal("an 8-byte SetValue waits for the record latch")
		}
		rec.Unlock()
	}
}

// oldRecord spells out a record as the log held it before the short form
// existed (PR 23 and earlier): header word with the previous address in bits
// 0..47 — all of them, the low three zero because addresses are 8-byte aligned
// — the version in 48..60 and the tombstone bit 61; the lens word, always; the
// key and the value's capacity padded to words.
func oldRecord(prev uint64, version uint16, tombstone bool, key, val []byte, valCap int) []byte {
	hdr := prev | uint64(version)<<48
	if tombstone {
		hdr |= 1 << 61
	}
	lens := uint64(len(key)) | uint64(len(val))<<16 | uint64(valCap)<<40
	b := binary.LittleEndian.AppendUint64(nil, hdr)
	b = binary.LittleEndian.AppendUint64(b, lens)
	b = append(append(b, key...), make([]byte, (8-len(key)%8)%8)...)
	return append(append(b, val...), make([]byte, (valCap+7)/8*8-len(val))...)
}

type oldRec struct {
	addr, prev uint64
	version    uint16
	tombstone  bool
	key, val   []byte
	valCap     int
	short      bool   // no lens word
	raw        []byte // the bytes written, while nothing updated the record
}

// size is the record's footprint: header, lens word unless short, key, capacity.
func (r oldRec) size() int {
	n := 16 + (len(r.key)+7)/8*8 + (r.valCap+7)/8*8
	if r.short {
		n -= 8
	}
	return n
}

// oldImage is a log of 4 KiB pages from FirstAddress on. Pages 0 and 1 are in
// the layout from before the short form: page 0 is 126 records of 8 + 8 (32
// bytes each: it fills exactly), page 1 holds a chain of updates to key 0, a
// 100-byte value, a 5-byte value in an 8-byte capacity, a 13-byte key and a
// tombstone. Page 2 is in the layout the short form had before vw took bit 47:
// a record of seven value words without a lens word and a 64-byte value with
// one. The log ends there.
func oldImage(t *testing.T) (image []byte, recs []oldRec) {
	// The first record, byte by byte: no previous address, version 1, key
	// length 8, value length 8, capacity 8, key 0, value 1000.
	image = []byte{
		0, 0, 0, 0, 0, 0, 0x01, 0x00, // header: prev 0, version 1 << 48
		8, 0, 8, 0, 0, 8, 0, 0, // lens: key 8 | value 8 << 16 | capacity 8 << 40
		0, 0, 0, 0, 0, 0, 0, 0, // key 0
		0xE8, 0x03, 0, 0, 0, 0, 0, 0, // value 1000
	}
	if !bytes.Equal(image, oldRecord(0, 1, false, key64(0), key64(1000), 8)) {
		t.Fatal("oldRecord does not spell the literal record")
	}
	recs = append(recs, oldRec{FirstAddress, 0, 1, false, key64(0), key64(1000), 8, false, bytes.Clone(image)})
	add := func(prev uint64, version uint16, tombstone bool, key, val []byte, valCap int) uint64 {
		addr := FirstAddress + uint64(len(image))
		b := oldRecord(prev, version, tombstone, key, val, valCap)
		if addr>>12 != (addr+uint64(len(b))-1)>>12 {
			t.Fatalf("old image: record at %d straddles a page", addr)
		}
		image = append(image, b...)
		recs = append(recs, oldRec{addr, prev, version, tombstone, key, val, valCap, false, b})
		return addr
	}
	for k := uint64(1); k < 126; k++ {
		add(0, 1, false, key64(k), key64(1000+k), 8)
	}
	if FirstAddress+len(image) != 4096 {
		t.Fatalf("old image: page 0 ends at %d", FirstAddress+len(image))
	}
	a := add(FirstAddress, 2, false, key64(0), key64(2000), 8) // key 0 again, chained to its first record
	add(a, 3, false, key64(0), key64(3000), 8)
	add(0, 2, false, key64(200), bytes.Repeat([]byte{0xCD}, 100), 100)
	add(0, 2, false, key64(201), []byte("short"), 8)
	add(0, 3, false, []byte("thirteen bytes"[:13]), key64(7), 8)
	add(FirstAddress+32, 3, true, key64(1), nil, 8)

	// Page 2, byte by byte, as the short form wrote it with vw in bits 0..2
	// alone (bit 47, an address bit then, always zero).
	image = append(image, make([]byte, 2<<12-FirstAddress-len(image))...)
	short := append([]byte{
		0x07, 0, 0, 0, 0, 0, 0x04, 0x00, // header: vw 7, prev 0, version 4 << 48
		0xC8, 0, 0, 0, 0, 0, 0, 0, // key 200
	}, bytes.Repeat([]byte{0x77}, 56)...) // value: seven words
	long := append([]byte{
		0x00, 0x20, 0, 0, 0, 0, 0x05, 0x00, // header: vw 0, prev 8192 (the record before), version 5 << 48
		8, 0, 64, 0, 0, 64, 0, 0, // lens: key 8 | value 64 << 16 | capacity 64 << 40
		0xC8, 0, 0, 0, 0, 0, 0, 0, // key 200
	}, bytes.Repeat([]byte{0x64}, 64)...) // value: eight words, which vw 7 could not say
	if binary.LittleEndian.Uint64(short) != makeHeader(0, 4, 7) {
		t.Fatal("a vw-7 header is not spelled as it was")
	}
	recs = append(recs,
		oldRec{2 << 12, 0, 4, false, key64(200), bytes.Repeat([]byte{0x77}, 56), 56, true, short},
		oldRec{2<<12 + 72, 2 << 12, 5, false, key64(200), bytes.Repeat([]byte{0x64}, 64), 64, false, long})
	return append(append(image, short...), long...), recs
}

func (r oldRec) check(t *testing.T, how string, rec RecordRef) {
	t.Helper()
	if !rec.KeyEquals(r.key) || !bytes.Equal(rec.Value(nil), r.val) || rec.Prev() != r.prev ||
		rec.Version() != r.version || rec.Tombstone() != r.tombstone || rec.Invalid() ||
		int(rec.Size()) != r.size() || r.raw != nil && !bytes.Equal(wordsToBytes(rec.words[:r.size()/8]), r.raw) {
		t.Fatalf("%s: record at %d reads key %x value %x prev %d version %d tombstone %v size %d, written %+v",
			how, r.addr, rec.Key(nil), rec.Value(nil), rec.Prev(), rec.Version(), rec.Tombstone(), rec.Size(), r)
	}
}

// TestOldLayoutStillReads: a device holding the old layouts — every record with
// its lens word, alignment bits zero; the short form with vw in bits 0..2 alone
// — is loaded, scanned, read cold and synchronously, byte for byte the records
// written, updated in place and appended to.
func TestOldLayoutStillReads(t *testing.T) {
	image, recs := oldImage(t)
	end := FirstAddress + uint64(len(image))
	dev := &readCountDevice{Device: storage.NewMemDevice()}
	if _, err := dev.WriteAt(image, FirstAddress); err != nil {
		t.Fatal(err)
	}
	em := epoch.New()
	l, err := New(Config{PageBits: 12, MemPages: 4, Device: dev, Epochs: em})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.RecoverTo(end); err != nil {
		t.Fatal(err)
	}
	scan := func(how string, to uint64) {
		t.Helper()
		i := 0
		if err := l.Scan(FirstAddress, to, func(addr uint64, rec RecordRef) bool {
			if i == len(recs) || addr != recs[i].addr {
				t.Fatalf("%s: scan delivered #%d at %d", how, i, addr)
			}
			recs[i].check(t, how+": scan", rec)
			i++
			return true
		}); err != nil || i != len(recs) {
			t.Fatalf("%s: scan delivered %d of %d records, err %v", how, i, len(recs), err)
		}
	}
	scan("recovered", end)
	cr := new(ColdRead)
	for _, r := range recs {
		r.check(t, "resident", l.Record(r.addr))
		rec, err := l.ReadRecordSync(r.addr)
		if err != nil {
			t.Fatal(err)
		}
		r.check(t, "ReadRecordSync", rec)
		done := make(chan error, 1)
		cr.Done = func(got RecordRef, err error) { rec = got; done <- err }
		dev.shortAt.Store(int64(r.addr % 3 * 8)) // whole reads, and reads cut after the header word or the lens word
		l.AsyncRead(r.addr, cr)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		r.check(t, "AsyncRead", rec)
	}

	// In place, as before: any length up to the capacity — a short-form record
	// only its own — the record's size and neighbours untouched.
	g := em.Acquire()
	defer g.Release()
	for i, r := range recs {
		if r.tombstone {
			continue
		}
		rec := l.Record(r.addr)
		n := r.valCap
		if !r.short {
			n -= i % 2 // full, and a byte short of it
		} else if rec.SetValue(make([]byte, n-1)) {
			t.Fatalf("a short-form record took a value of %d bytes for its %d", n-1, n)
		}
		next := bytes.Repeat([]byte{byte(i)}, n)
		if i%3 == 0 {
			var scratch []byte
			if !rec.UpdateValue(&scratch, func([]byte) []byte { return next }) {
				t.Fatalf("UpdateValue of %d bytes in capacity %d refused", len(next), r.valCap)
			}
		} else if !rec.SetValue(next) {
			t.Fatalf("SetValue of %d bytes in capacity %d refused", len(next), r.valCap)
		}
		if rec.SetValue(make([]byte, r.valCap+1)) {
			t.Fatalf("SetValue past the capacity %d accepted", r.valCap)
		}
		recs[i].val, recs[i].raw = next, nil
	}
	scan("updated in place", end)

	// New records go on behind the old ones, in the form their lengths allow.
	for k := uint64(300); k < 600; k++ {
		rec := mustAppend(t, l, g, k, key64(k), 8)
		recs = append(recs, oldRec{addr: l.Tail() - uint64(rec.Size()), version: 1, key: key64(k), val: key64(k), valCap: 8, short: true})
	}
	i := 0
	if err := l.Scan(FirstAddress, l.Tail(), func(addr uint64, rec RecordRef) bool {
		r := recs[i]
		if addr != r.addr || !rec.KeyEquals(r.key) || !bytes.Equal(rec.Value(nil), r.val) {
			t.Fatalf("old and new: scan delivered #%d at %d (key %x), want the record at %d", i, addr, rec.Key(nil), r.addr)
		}
		if r.short != (headerVW(rec.Header()) != 0) || int(rec.Size()) != r.size() {
			t.Fatalf("old and new: record at %d (log in the old layout ends at %d) has header %#x, size %d", addr, end, rec.Header(), rec.Size())
		}
		i++
		return true
	}); err != nil || i != len(recs) {
		t.Fatalf("old and new: scan delivered %d of %d records, err %v", i, len(recs), err)
	}
}

// TestShortRecordsAtPageTails: 24-byte records leave page tails no 32-byte
// record did — none (the record ends with the page), 16 bytes, and 8 bytes,
// less than a lens word's worth of header. The scan, a cold read with a hint
// shorter than the record or a device that returns the header word alone all
// find the record before the tail and the one after it.
func TestShortRecordsAtPageTails(t *testing.T) {
	em := epoch.New()
	dev := &readCountDevice{Device: storage.NewMemDevice()}
	l, err := New(Config{PageBits: 12, MemPages: 8, Device: dev, Epochs: em, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	g := em.Acquire()
	defer g.Release()
	type placed struct {
		addr uint64
		val  []byte
	}
	var recs []placed
	put := func(n int) {
		val := bytes.Repeat([]byte{byte(len(recs))}, n)
		rec := mustAppend(t, l, g, uint64(len(recs)), val, n)
		recs = append(recs, placed{l.Tail() - uint64(rec.Size()), val})
	}
	small := uint64(RecordSize(8, 8))
	tails := map[uint64]uint64{} // page -> bytes left unused at its end
	for page := uint64(0); page < 3; page++ {
		if page == 2 {
			put(16) // one record a word longer shifts the page's tail from 16 bytes to 8
		}
		for l.offset(l.Tail())+small <= l.pageSize && l.offset(l.Tail()) != 0 {
			put(8)
		}
		tails[page] = (l.pageSize - l.offset(l.Tail())) % l.pageSize
		put(8) // the first record of the next page
	}
	if tails[0] != 0 || tails[1] != 16 || tails[2] != 8 {
		t.Fatalf("page tails %v, want 0, 16 and 8 bytes", tails)
	}
	l.ShiftReadOnlyTo(l.Tail())
	g.Refresh()
	l.WaitDurable(l.Tail())

	i := 0
	if err := l.Scan(FirstAddress, l.Tail(), func(addr uint64, rec RecordRef) bool {
		if addr != recs[i].addr || !rec.KeyEquals(key64(uint64(i))) || !bytes.Equal(rec.Value(nil), recs[i].val) {
			t.Fatalf("scan delivered #%d at %d (key %x), written at %d", i, addr, rec.Key(nil), recs[i].addr)
		}
		i++
		return true
	}); err != nil || i != len(recs) {
		t.Fatalf("scan delivered %d of %d records, err %v", i, len(recs), err)
	}

	cr := new(ColdRead)
	for i, r := range recs {
		atTail := i+1 < len(recs) && l.page(recs[i+1].addr) != l.page(r.addr)
		if !atTail && i > 0 && l.page(recs[i-1].addr) == l.page(r.addr) {
			continue // only the records on either side of a page boundary
		}
		for _, short := range []int64{0, 8, 16} {
			l.readHint.Store(uint32(short)) // at most the header and one more word
			dev.shortAt.Store(short)
			key, val, reads := fetch(t, l, dev, cr, r.addr)
			if key != uint64(i) || !bytes.Equal(val, r.val) {
				t.Fatalf("cold read at %d (hint and device cut %d) gave key %d value %x", r.addr, short, key, val)
			}
			if want := int64(2); reads != want {
				t.Fatalf("cold read at %d with a %d-byte hint took %d device reads, want %d", r.addr, short, reads, want)
			}
		}
		dev.shortAt.Store(0)
	}
}
