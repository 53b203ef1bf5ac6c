// Package hlog implements FASTER's HybridLog (Sec. 5.1 of the CPR paper): a
// log-structured record store whose logical address space spans main memory
// and secondary storage. The tail portion lives in in-memory page frames; the
// read-only offset splits the in-memory part into an immutable region and a
// mutable region updated in place; records below the head offset live only on
// the storage device and are fetched with asynchronous reads.
//
// Addresses are byte offsets into the logical log, always 8-byte aligned.
// Address values below FirstAddress are invalid (zero means "no record").
//
// Record memory that can still change is accessed through atomic word
// operations, making the log race-free under the Go memory model: the paper's
// C++ implementation performs racy in-place updates, which Go forbids (see
// DESIGN.md). Nothing stores below the safe-read-only offset, so there the tax
// ends: a flush hands the device the frame's own bytes, without a copy.
package hlog

import (
	"encoding/binary"
	"sync/atomic"

	"repro/internal/epoch"
)

// FirstAddress is the smallest valid logical address. Addresses below it
// (in particular 0) denote "invalid / no record".
const FirstAddress = 64

// MaxAddress bounds the log (128 TiB): Allocate places no record at or past it,
// so an address needs 47 bits and a header's bit 47 is free for vw.
const MaxAddress = 1 << 47

// A record is a header word, a lens word unless the header does without it, the
// key and the value's capacity, each padded to whole words (DESIGN.md "Record
// layout"). Header bit layout (word 0 of every record):
//
//	bits  0..2   vw's low bits, bit 47 its high bit: 0 = a lens word follows;
//	             1..15 = none: the key is 8 bytes, the value vw whole words, its
//	             capacity the same (short form)
//	bits  3..46  previous address in this hash chain (below MaxAddress and
//	             8-byte aligned, which frees bits 0..2 and 47)
//	bits 48..60  record version (13 bits, as in Sec. 6.2)
//	bit  61      tombstone
//	bit  62      invalid (set during recovery for post-CPR-point records)
//	bit  63      lock (in-place value update latch; Go race-freedom tax)
const (
	vwMask       = uint64(7) | 1<<47
	prevMask     = (MaxAddress - 1) &^ uint64(7)
	versionShift = 48
	versionBits  = 13
	versionMask  = (uint64(1)<<versionBits - 1) << versionShift
	tombstoneBit = uint64(1) << 61
	invalidBit   = uint64(1) << 62
	lockBit      = uint64(1) << 63
)

// MaxVersion is the largest representable record version (13 bits).
const MaxVersion = 1<<versionBits - 1

// Lens word layout (word 1 of a long-form record):
//
//	bits  0..15  key length in bytes
//	bits 16..39  value length in bytes
//	bits 40..63  value capacity in bytes (in-place updates may grow to this)
const (
	keyLenBits = 16
	valLenBits = 24
	maxValLen  = 1<<valLenBits - 1
)

// MaxKeyLen is the longest key a record holds; the shortest is one byte.
const MaxKeyLen = 1<<keyLenBits - 1

func makeHeader(prev uint64, version uint16, vw int) uint64 {
	return prev&prevMask | uint64(vw)&7 | uint64(vw)>>3<<47 | uint64(version)<<versionShift&versionMask
}

func makeLens(keyLen, valLen, valCap int) uint64 {
	return uint64(keyLen) | uint64(valLen)<<keyLenBits | uint64(valCap)<<(keyLenBits+valLenBits)
}

// shape is the one decoder of a record's layout: from the header word, how
// many words precede the key (1; 2 when a lens word follows, which is loaded
// from lens only then), and the key's length, the value's and the value's
// capacity in bytes.
func shape(hdr uint64, lens *uint64) (hw, keyLen, valLen, valCap int) {
	if vw := int(hdr&vwMask>>44 | hdr&7); vw != 0 {
		return 1, 8, 8 * vw, 8 * vw
	}
	w := atomic.LoadUint64(lens)
	return 2, int(w & MaxKeyLen), int(w >> keyLenBits & maxValLen), int(w >> (keyLenBits + valLenBits) & maxValLen)
}

// chooseShape is the encoder's side of shape: a record does without its lens
// word (hw 1, vw > 0) when its key is 8 bytes and its value 1..15 whole words
// that fill the capacity.
func chooseShape(keyLen, valLen, valCap int) (hw, vw int) {
	if keyLen == 8 && valLen == valCap && valCap%8 == 0 && valCap >= 8 && valCap <= 8*15 {
		return 1, valCap / 8
	}
	return 2, 0
}

func wordsFor(n int) int { return (n + 7) / 8 }

// recordBytes is a record's footprint given its header words.
func recordBytes(hw, keyLen, valCap int) int { return 8 * (hw + wordsFor(keyLen) + wordsFor(valCap)) }

// RecordSize returns the total record footprint in bytes for a key of keyLen
// bytes and a value that fills its capacity of valCap bytes: what WriteRecord
// needs from Allocate. (A value shorter than its capacity goes through Append,
// which sizes the record itself.)
func RecordSize(keyLen, valCap int) uint32 {
	hw, _ := chooseShape(keyLen, valCap, valCap)
	return uint32(recordBytes(hw, keyLen, valCap))
}

// sizeFromBytes is the footprint of the record whose first bytes are b, at
// least the header word; when the header announces a lens word that b does not
// reach, it is the 16 bytes it takes to tell.
func sizeFromBytes(b []byte) int {
	var lens uint64
	if len(b) >= 16 {
		lens = binary.LittleEndian.Uint64(b[8:])
	}
	hw, k, _, c := shape(binary.LittleEndian.Uint64(b), &lens)
	return recordBytes(hw, k, c)
}

// RecordRef is a view over one record's words, either inside a live page
// frame (shared, concurrently updated) or a private copy read from storage.
// The zero RecordRef is invalid.
type RecordRef struct {
	words []uint64
}

// Valid reports whether the ref points at a record.
func (r RecordRef) Valid() bool { return len(r.words) >= 2 }

func (r RecordRef) hdr() *uint64 { return &r.words[0] }

// Header atomically loads the header word.
func (r RecordRef) Header() uint64 { return atomic.LoadUint64(r.hdr()) }

// Prev returns the previous address in the record's hash chain.
func (r RecordRef) Prev() uint64 { return r.Header() & prevMask }

// Version returns the record's 13-bit CPR version.
func (r RecordRef) Version() uint16 {
	return uint16((r.Header() & versionMask) >> versionShift)
}

// Tombstone reports whether the record is a deletion marker.
func (r RecordRef) Tombstone() bool { return r.Header()&tombstoneBit != 0 }

// Invalid reports whether recovery marked the record invalid.
func (r RecordRef) Invalid() bool { return r.Header()&invalidBit != 0 }

// updateHeader sets and clears header bits in one atomic step.
func (r RecordRef) updateHeader(set, clear uint64) {
	for {
		h := atomic.LoadUint64(r.hdr())
		if atomic.CompareAndSwapUint64(r.hdr(), h, h&^clear|set) {
			return
		}
	}
}

// SetTombstone marks the record as a deletion marker.
func (r RecordRef) SetTombstone() { r.updateHeader(tombstoneBit, 0) }

// SetInvalid marks the record invalid (used by recovery, Alg. 3).
func (r RecordRef) SetInvalid() { r.updateHeader(invalidBit, 0) }

// Lock acquires the record's in-place-update latch by spinning on the
// header's lock bit.
func (r RecordRef) Lock() {
	for {
		h := atomic.LoadUint64(r.hdr())
		if h&lockBit == 0 && atomic.CompareAndSwapUint64(r.hdr(), h, h|lockBit) {
			return
		}
	}
}

// Unlock releases the latch taken by Lock.
func (r RecordRef) Unlock() { r.updateHeader(0, lockBit) }

// keyWords and valueWords are the key's words and the words of the value's
// capacity in a record of the given shape.
func (r RecordRef) keyWords(hw, keyLen int) []uint64 { return r.words[hw : hw+wordsFor(keyLen)] }

func (r RecordRef) valueWords(hw, keyLen, valCap int) []uint64 {
	start := hw + wordsFor(keyLen)
	return r.words[start : start+wordsFor(valCap)]
}

// Size returns the record's total footprint in bytes.
func (r RecordRef) Size() uint32 {
	hw, k, _, c := shape(r.Header(), &r.words[1])
	return uint32(recordBytes(hw, k, c))
}

// KeyEquals compares the record's key to key without allocating.
func (r RecordRef) KeyEquals(key []byte) bool {
	hw, k, _, _ := shape(r.Header(), &r.words[1])
	return k == len(key) && wordsEqualBytes(r.keyWords(hw, k), key)
}

// Key appends the record's key to dst and returns the result.
func (r RecordRef) Key(dst []byte) []byte {
	hw, k, _, _ := shape(r.Header(), &r.words[1])
	return appendWordsAsBytes(dst, r.keyWords(hw, k), k)
}

// Value appends the record's value to dst and returns the result. It takes no
// latch and stores nothing, so it is the reader for a record nothing updates in
// place: below the safe-read-only offset, whose page is flushed from its frame,
// or in a private copy. Elsewhere only a result of at most 8 bytes is whole (one
// length load, one word load); a longer one may be torn.
func (r RecordRef) Value(dst []byte) []byte {
	hw, k, v, c := shape(r.Header(), &r.words[1])
	return appendWordsAsBytes(dst, r.valueWords(hw, k, c), v)
}

// LatchedValue is Value for a record in the mutable region: a value longer
// than 8 bytes is read under the record latch so it is never torn. The latch is
// a store to the header — never below the safe-read-only offset.
func (r RecordRef) LatchedValue(dst []byte) []byte {
	if hw, k, v, c := shape(r.Header(), &r.words[1]); v <= 8 {
		return appendWordsAsBytes(dst, r.valueWords(hw, k, c), v)
	}
	epoch.YieldAt(epoch.SiteRecordLock)
	r.Lock()
	dst = r.Value(dst)
	r.Unlock()
	return dst
}

// SetValue performs an in-place value update. It returns false when val does
// not fit the record's value capacity, or the record is short-form and val has
// another length than its value (there is no lens word to keep it in): the
// caller's read-copy-update takes over. Updates longer than 8 bytes happen
// under the record latch.
func (r RecordRef) SetValue(val []byte) bool {
	hw, k, v, c := shape(r.Header(), &r.words[1])
	if len(val) > c || hw == 1 && len(val) != v {
		return false
	}
	vw := r.valueWords(hw, k, c)
	if c == 8 && v == 8 && len(val) == 8 {
		// Fast path: the stored length already matches, so a single atomic
		// word store suffices.
		atomic.StoreUint64(&vw[0], binary.LittleEndian.Uint64(val))
		return true
	}
	epoch.YieldAt(epoch.SiteRecordLock)
	r.Lock()
	storeBytesAsWords(vw, val)
	if hw == 2 {
		atomic.StoreUint64(&r.words[1], makeLens(k, len(val), c))
	}
	r.Unlock()
	return true
}

// UpdateValue runs fn on a private copy of the value under the record latch
// and stores the result in place. The copy is made into *scratch (grown as
// needed and kept there for the caller's next call), so fn may overwrite cur
// and return it. It returns false if the result exceeds the value capacity or,
// on a short-form record, has another length (caller must then fall back to
// read-copy-update).
func (r RecordRef) UpdateValue(scratch *[]byte, fn func(cur []byte) []byte) bool {
	epoch.YieldAt(epoch.SiteRecordLock)
	r.Lock()
	hw, k, v, c := shape(r.Header(), &r.words[1])
	vw := r.valueWords(hw, k, c)
	*scratch = appendWordsAsBytes((*scratch)[:0], vw, v)
	next := fn(*scratch)
	if len(next) > c || hw == 1 && len(next) != v {
		r.Unlock()
		return false
	}
	storeBytesAsWords(vw, next)
	if hw == 2 {
		atomic.StoreUint64(&r.words[1], makeLens(k, len(next), c))
	}
	r.Unlock()
	return true
}

// initRecord fills a freshly allocated record region, which is zero, in the
// shape chooseShape gave (hw, vw). Nothing reads a record before its address is
// published by a synchronizing operation — an index compare-and-swap, or the
// epoch every scanner and flush waits out (DESIGN "The operation path") — so
// the header, too, is a plain store.
func initRecord(words []uint64, hw, vw int, prev uint64, version uint16, key, value []byte, valCap int) {
	if hw == 2 {
		words[1] = makeLens(len(key), len(value), valCap)
	}
	kw := hw + wordsFor(len(key))
	copy(frameBytes(words[hw:kw]), key)
	copy(frameBytes(words[kw:kw+wordsFor(valCap)]), value)
	words[0] = makeHeader(prev, version, vw)
}

// --- word <-> byte packing helpers (little-endian) ---

func storeBytesAsWords(dst []uint64, b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		atomic.StoreUint64(&dst[i/8], binary.LittleEndian.Uint64(b[i:]))
	}
	if i < len(b) {
		var w [8]byte
		copy(w[:], b[i:])
		atomic.StoreUint64(&dst[i/8], binary.LittleEndian.Uint64(w[:]))
	}
}

func appendWordsAsBytes(dst []byte, words []uint64, n int) []byte {
	var w [8]byte
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(w[:], atomic.LoadUint64(&words[i/8]))
		take := n - i
		if take > 8 {
			take = 8
		}
		dst = append(dst, w[:take]...)
	}
	return dst
}

func wordsEqualBytes(words []uint64, b []byte) bool {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if atomic.LoadUint64(&words[i/8]) != binary.LittleEndian.Uint64(b[i:]) {
			return false
		}
	}
	if i == len(b) {
		return true
	}
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], atomic.LoadUint64(&words[i/8]))
	return string(w[:len(b)-i]) == string(b[i:])
}
