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
	"fmt"
	"sync/atomic"
)

// FirstAddress is the smallest valid logical address. Addresses below it
// (in particular 0) denote "invalid / no record".
const FirstAddress = 64

// Header bit layout (word 0 of every record):
//
//	bits  0..47  previous address in this hash chain (48 bits, as in FASTER)
//	bits 48..60  record version (13 bits, as in Sec. 6.2)
//	bit  61      tombstone
//	bit  62      invalid (set during recovery for post-CPR-point records)
//	bit  63      lock (in-place value update latch; Go race-freedom tax)
const (
	prevMask     = (uint64(1) << 48) - 1
	versionShift = 48
	versionBits  = 13
	versionMask  = (uint64(1)<<versionBits - 1) << versionShift
	tombstoneBit = uint64(1) << 61
	invalidBit   = uint64(1) << 62
	lockBit      = uint64(1) << 63
)

// MaxVersion is the largest representable record version (13 bits).
const MaxVersion = 1<<versionBits - 1

// Lens word layout (word 1 of every record):
//
//	bits  0..15  key length in bytes
//	bits 16..39  value length in bytes
//	bits 40..63  value capacity in bytes (in-place updates may grow to this)
const (
	keyLenBits = 16
	valLenBits = 24
	maxKeyLen  = 1<<keyLenBits - 1
	maxValLen  = 1<<valLenBits - 1
)

// MakeHeader packs a record header word.
func MakeHeader(prev uint64, version uint16) uint64 {
	return (prev & prevMask) | (uint64(version) << versionShift & versionMask)
}

func makeLens(keyLen, valLen, valCap int) uint64 {
	return uint64(keyLen) | uint64(valLen)<<keyLenBits | uint64(valCap)<<(keyLenBits+valLenBits)
}

func splitLens(w uint64) (keyLen, valLen, valCap int) {
	keyLen = int(w & maxKeyLen)
	valLen = int(w >> keyLenBits & maxValLen)
	valCap = int(w >> (keyLenBits + valLenBits) & maxValLen)
	return
}

func wordsFor(n int) int { return (n + 7) / 8 }

// RecordSize returns the total record footprint in bytes for a key of keyLen
// bytes and a value capacity of valCap bytes.
func RecordSize(keyLen, valCap int) uint32 {
	return uint32(8 * (2 + wordsFor(keyLen) + wordsFor(valCap)))
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

// SetTombstone marks the record as a deletion marker.
func (r RecordRef) SetTombstone() {
	for {
		h := atomic.LoadUint64(r.hdr())
		if atomic.CompareAndSwapUint64(r.hdr(), h, h|tombstoneBit) {
			return
		}
	}
}

// SetInvalid marks the record invalid (used by recovery, Alg. 3).
func (r RecordRef) SetInvalid() {
	for {
		h := atomic.LoadUint64(r.hdr())
		if atomic.CompareAndSwapUint64(r.hdr(), h, h|invalidBit) {
			return
		}
	}
}

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
func (r RecordRef) Unlock() {
	for {
		h := atomic.LoadUint64(r.hdr())
		if atomic.CompareAndSwapUint64(r.hdr(), h, h&^lockBit) {
			return
		}
	}
}

func (r RecordRef) lens() uint64 { return atomic.LoadUint64(&r.words[1]) }

// KeyLen returns the key length in bytes.
func (r RecordRef) KeyLen() int { k, _, _ := splitLens(r.lens()); return k }

// ValueLen returns the current value length in bytes.
func (r RecordRef) ValueLen() int { _, v, _ := splitLens(r.lens()); return v }

// Size returns the record's total footprint in bytes.
func (r RecordRef) Size() uint32 {
	k, _, c := splitLens(r.lens())
	return RecordSize(k, c)
}

func (r RecordRef) keyWords() []uint64 {
	k, _, _ := splitLens(r.lens())
	return r.words[2 : 2+wordsFor(k)]
}

func (r RecordRef) valueWords() []uint64 {
	k, _, c := splitLens(r.lens())
	start := 2 + wordsFor(k)
	return r.words[start : start+wordsFor(c)]
}

// KeyEquals compares the record's key to key without allocating.
func (r RecordRef) KeyEquals(key []byte) bool {
	if r.KeyLen() != len(key) {
		return false
	}
	return wordsEqualBytes(r.keyWords(), key)
}

// Key appends the record's key to dst and returns the result.
func (r RecordRef) Key(dst []byte) []byte {
	k, _, _ := splitLens(r.lens())
	return appendWordsAsBytes(dst, r.keyWords(), k)
}

// Value appends the record's value to dst and returns the result. It takes no
// latch and stores nothing, so it is the reader for a record nothing updates in
// place: below the safe-read-only offset, whose page is flushed from its frame,
// or in a private copy. Elsewhere only a result of at most 8 bytes is whole (one
// length load, one word load); a longer one may be torn.
func (r RecordRef) Value(dst []byte) []byte {
	_, v, _ := splitLens(r.lens())
	return appendWordsAsBytes(dst, r.valueWords(), v)
}

// LatchedValue is Value for a record in the mutable region: a value longer
// than 8 bytes is read under the record latch so it is never torn. The latch is
// a store to the header — never below the safe-read-only offset.
func (r RecordRef) LatchedValue(dst []byte) []byte {
	_, v, _ := splitLens(r.lens())
	if v <= 8 {
		return appendWordsAsBytes(dst, r.valueWords(), v)
	}
	r.Lock()
	dst = r.Value(dst)
	r.Unlock()
	return dst
}

// ValueUint64 atomically reads an 8-byte value's word. It is only meaningful
// for records whose value is exactly 8 bytes.
func (r RecordRef) ValueUint64() uint64 { return atomic.LoadUint64(&r.valueWords()[0]) }

// SetValue performs an in-place value update. It returns false when val does
// not fit the record's value capacity. Updates longer than 8 bytes happen
// under the record latch.
func (r RecordRef) SetValue(val []byte) bool {
	k, v, c := splitLens(r.lens())
	if len(val) > c {
		return false
	}
	if c == 8 && v == 8 && len(val) == 8 {
		// Fast path: the stored length already matches, so a single atomic
		// word store suffices.
		atomic.StoreUint64(&r.valueWords()[0], binary.LittleEndian.Uint64(val))
		return true
	}
	r.Lock()
	storeBytesAsWords(r.valueWords(), val)
	atomic.StoreUint64(&r.words[1], makeLens(k, len(val), c))
	r.Unlock()
	return true
}

// UpdateValue runs fn on a private copy of the value under the record latch
// and stores the result in place. The copy is made into *scratch (grown as
// needed and kept there for the caller's next call), so fn may overwrite cur
// and return it. It returns false if the result exceeds the value capacity
// (caller must then fall back to read-copy-update).
func (r RecordRef) UpdateValue(scratch *[]byte, fn func(cur []byte) []byte) bool {
	r.Lock()
	k, v, c := splitLens(r.lens())
	*scratch = appendWordsAsBytes((*scratch)[:0], r.valueWords(), v)
	next := fn(*scratch)
	if len(next) > c {
		r.Unlock()
		return false
	}
	storeBytesAsWords(r.valueWords(), next)
	atomic.StoreUint64(&r.words[1], makeLens(k, len(next), c))
	r.Unlock()
	return true
}

// initRecord fills a freshly allocated record region. The region is not yet
// published (no index entry points at it), so plain stores are safe here;
// we still use atomic stores to keep the race detector and the epoch-based
// flush argument airtight.
func initRecord(words []uint64, prev uint64, version uint16, key, value []byte, valCap int) {
	if valCap < len(value) {
		valCap = len(value)
	}
	atomic.StoreUint64(&words[1], makeLens(len(key), len(value), valCap))
	kw := wordsFor(len(key))
	storeBytesAsWords(words[2:2+kw], key)
	storeBytesAsWords(words[2+kw:2+kw+wordsFor(valCap)], value)
	// Header last: a concurrent scanner treats header==0 as "empty space".
	atomic.StoreUint64(&words[0], MakeHeader(prev, version))
}

// validateKV bounds-checks key/value sizes against the record format.
func validateKV(key, value []byte, valCap int) error {
	if len(key) == 0 || len(key) > maxKeyLen {
		return fmt.Errorf("hlog: key length %d out of range [1,%d]", len(key), maxKeyLen)
	}
	if len(value) > maxValLen || valCap > maxValLen {
		return fmt.Errorf("hlog: value length %d/cap %d exceeds %d", len(value), valCap, maxValLen)
	}
	return nil
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
	var w [8]byte
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(w[:], atomic.LoadUint64(&words[i/8]))
		take := len(b) - i
		if take > 8 {
			take = 8
		}
		for j := 0; j < take; j++ {
			if w[j] != b[i+j] {
				return false
			}
		}
	}
	return true
}
