// Package faster implements the FASTER concurrent hash key-value store of
// Secs. 5–6 of the CPR paper: a latch-free hash index over a HybridLog record
// store, with session-based operation serial numbers and CPR-based group
// commit (5-phase state machine: rest → prepare → in-progress → wait-pending
// → wait-flush).
package faster

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Hash-index entry layout (one 64-bit word):
//
//	bits  0..47  logical HybridLog address of the chain's tail record
//	bits 48..61  tag (further hash bits distinguishing keys in a bucket)
//	bit  62      tentative (two-phase latch-free insertion, as in FASTER)
//	bit  63      unused
//
// A zero entry is free. Keys sharing (bucket, tag) share one entry; their
// records form a reverse linked list through record.Prev.
const (
	entryAddrMask  = (uint64(1) << 48) - 1
	entryTagShift  = 48
	entryTagBits   = 14
	entryTagMask   = (uint64(1)<<entryTagBits - 1) << entryTagShift
	entryTentative = uint64(1) << 62
)

const entriesPerBucket = 7

// bucket meta word layout:
//
//	bits  0..47  overflow bucket index + 1 into the overflow slab (0 = none)
//	bits 48..62  shared-latch count (CPR prepare-phase latches, Sec. 6.2.1)
//	bit  63      exclusive latch
const (
	metaOverflowMask = (uint64(1) << 48) - 1
	metaSharedShift  = 48
	metaSharedUnit   = uint64(1) << metaSharedShift
	metaSharedMask   = (uint64(1)<<15 - 1) << metaSharedShift
	metaExclusive    = uint64(1) << 63
)

type bucket struct {
	entries [entriesPerBucket]atomic.Uint64
	meta    atomic.Uint64
}

// Overflow buckets live in lazily allocated fixed-size chunks so the slab
// can grow without moving existing buckets (readers hold pointers into it).
const (
	overflowChunkBits = 12
	overflowChunkSize = 1 << overflowChunkBits
	overflowMaxChunks = 1 << 12
)

type overflowChunk [overflowChunkSize]bucket

// index is the FASTER hash index: a power-of-two main bucket array plus a
// growable overflow slab. All slot updates are single-word
// compare-and-swaps, so the index is always physically consistent and can be
// checkpointed fuzzily (Sec. 6.3).
type index struct {
	buckets []bucket
	mask    uint64

	overflowNext   atomic.Uint64 // next free overflow slot + 1
	overflowChunks [overflowMaxChunks]atomic.Pointer[overflowChunk]
	growMu         sync.Mutex
}

func newIndex(nBuckets int, _ int) (*index, error) {
	if nBuckets <= 0 || nBuckets&(nBuckets-1) != 0 {
		return nil, fmt.Errorf("faster: index buckets %d must be a power of two", nBuckets)
	}
	idx := &index{
		buckets: make([]bucket, nBuckets),
		mask:    uint64(nBuckets - 1),
	}
	idx.overflowNext.Store(1)
	return idx, nil
}

// overflowBucket returns the overflow bucket with 1-based id n, allocating
// its chunk if necessary.
func (idx *index) overflowBucket(n uint64) *bucket {
	i := n - 1
	ci, off := i>>overflowChunkBits, i&(overflowChunkSize-1)
	if ci >= overflowMaxChunks {
		panic("faster: index overflow slab exhausted; raise IndexBuckets")
	}
	chunk := idx.overflowChunks[ci].Load()
	if chunk == nil {
		idx.growMu.Lock()
		if chunk = idx.overflowChunks[ci].Load(); chunk == nil {
			chunk = new(overflowChunk)
			idx.overflowChunks[ci].Store(chunk)
		}
		idx.growMu.Unlock()
	}
	return &chunk[off]
}

func (idx *index) mainBucket(hash uint64) *bucket {
	return &idx.buckets[hash&idx.mask]
}

func tagOf(hash uint64) uint64 {
	t := hash >> (64 - entryTagBits) << entryTagShift & entryTagMask
	if t == 0 {
		// A zero tag with a zero address would make a committed entry
		// indistinguishable from a free slot; fold tag 0 into tag 1.
		t = 1 << entryTagShift
	}
	return t
}

func entryAddr(e uint64) uint64 { return e & entryAddrMask }

// findSlot walks the bucket chain looking for a non-tentative entry with the
// given tag. It returns the slot word or nil.
func (idx *index) findSlot(hash uint64) *atomic.Uint64 {
	tag := tagOf(hash)
	b := idx.mainBucket(hash)
	for {
		for i := range b.entries {
			e := b.entries[i].Load()
			if e != 0 && e&entryTagMask == tag && e&entryTentative == 0 {
				return &b.entries[i]
			}
		}
		next := b.meta.Load() & metaOverflowMask
		if next == 0 {
			return nil
		}
		b = idx.overflowBucket(next)
	}
}

// findOrCreateSlot returns the slot for hash, inserting a fresh (tentative →
// committed) entry with address 0 if none exists. The two-phase tentative
// protocol prevents two threads from installing duplicate tags concurrently.
func (idx *index) findOrCreateSlot(hash uint64) *atomic.Uint64 {
	tag := tagOf(hash)
	for {
		if s := idx.findSlot(hash); s != nil {
			return s
		}
		// Claim a free slot in the chain, extending it if necessary.
		slot := idx.claimFreeSlot(hash, tag)
		if slot == nil {
			continue // chain changed under us; rescan
		}
		// Two-phase: entry is tentative; check for a duplicate tag inserted
		// concurrently elsewhere in the chain.
		if idx.duplicateTag(hash, tag, slot) {
			slot.Store(0) // back off; retry the scan
			continue
		}
		// Commit the entry.
		for {
			e := slot.Load()
			if e&entryTentative == 0 {
				break
			}
			if slot.CompareAndSwap(e, e&^entryTentative) {
				break
			}
		}
		return slot
	}
}

func (idx *index) claimFreeSlot(hash, tag uint64) *atomic.Uint64 {
	b := idx.mainBucket(hash)
	for {
		for i := range b.entries {
			if b.entries[i].Load() == 0 &&
				b.entries[i].CompareAndSwap(0, tag|entryTentative) {
				return &b.entries[i]
			}
		}
		meta := b.meta.Load()
		next := meta & metaOverflowMask
		if next == 0 {
			n := idx.overflowNext.Add(1) - 1
			idx.overflowBucket(n) // ensure the chunk exists before linking
			if !b.meta.CompareAndSwap(meta, meta&^metaOverflowMask|n) {
				// Lost the race; give back nothing (slab slot n leaks, which
				// is bounded by thread count) and follow the installed link.
				meta = b.meta.Load()
				next = meta & metaOverflowMask
				if next == 0 {
					continue
				}
			} else {
				next = n
			}
		}
		b = idx.overflowBucket(next)
	}
}

// duplicateTag reports whether another non-tentative or tentative entry with
// the same tag exists in the chain besides self.
func (idx *index) duplicateTag(hash, tag uint64, self *atomic.Uint64) bool {
	b := idx.mainBucket(hash)
	for {
		for i := range b.entries {
			p := &b.entries[i]
			if p == self {
				continue
			}
			if e := p.Load(); e != 0 && e&entryTagMask == tag {
				return true
			}
		}
		next := b.meta.Load() & metaOverflowMask
		if next == 0 {
			return false
		}
		b = idx.overflowBucket(next)
	}
}

// --- CPR bucket latches (fine-grained version transfer, Sec. 6.2) ---

// trySharedLatch increments the main bucket's shared-latch count unless the
// exclusive latch is held.
func (idx *index) trySharedLatch(hash uint64) bool {
	b := idx.mainBucket(hash)
	for {
		m := b.meta.Load()
		if m&metaExclusive != 0 {
			return false
		}
		if m&metaSharedMask == metaSharedMask {
			return false // counter saturated (pathological)
		}
		if b.meta.CompareAndSwap(m, m+metaSharedUnit) {
			return true
		}
	}
}

// releaseSharedLatch decrements the shared-latch count.
func (idx *index) releaseSharedLatch(hash uint64) {
	b := idx.mainBucket(hash)
	for {
		m := b.meta.Load()
		if m&metaSharedMask == 0 {
			panic("faster: releaseSharedLatch without holder")
		}
		if b.meta.CompareAndSwap(m, m-metaSharedUnit) {
			return
		}
	}
}

// tryExclusiveLatch succeeds only when no shared or exclusive latch is held.
func (idx *index) tryExclusiveLatch(hash uint64) bool {
	b := idx.mainBucket(hash)
	m := b.meta.Load()
	if m&(metaSharedMask|metaExclusive) != 0 {
		return false
	}
	return b.meta.CompareAndSwap(m, m|metaExclusive)
}

// releaseExclusiveLatch drops the exclusive latch.
func (idx *index) releaseExclusiveLatch(hash uint64) {
	b := idx.mainBucket(hash)
	for {
		m := b.meta.Load()
		if b.meta.CompareAndSwap(m, m&^metaExclusive) {
			return
		}
	}
}

// sharedCount returns the bucket's current shared-latch count (wait-pending
// phase check, Sec. 6.2.3).
func (idx *index) sharedCount(hash uint64) int {
	return int(idx.mainBucket(hash).meta.Load() & metaSharedMask >> metaSharedShift)
}

// --- fuzzy checkpoint (Sec. 6.3) ---

// imageSize is the exact size of the image appendImage produces right now (it
// grows only when an overflow bucket is claimed in between).
func (idx *index) imageSize() int {
	return 24 + 8*(entriesPerBucket+1)*(len(idx.buckets)+int(idx.overflowNext.Load()-1))
}

// appendImage appends the serialized index to dst with atomic word loads.
// Latch bits are masked out; tentative entries are dropped (their inserters
// will redo).
func (idx *index) appendImage(dst []byte) []byte {
	next := idx.overflowNext.Load()
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(idx.buckets)))
	dst = binary.LittleEndian.AppendUint64(dst, 0) // reserved (was slab capacity)
	dst = binary.LittleEndian.AppendUint64(dst, next)
	for i := range idx.buckets {
		dst = appendBucket(dst, &idx.buckets[i])
	}
	for n := uint64(1); n < next; n++ {
		dst = appendBucket(dst, idx.overflowBucket(n))
	}
	return dst
}

func appendBucket(dst []byte, b *bucket) []byte {
	for j := range b.entries {
		e := b.entries[j].Load()
		if e&entryTentative != 0 {
			e = 0
		}
		dst = binary.LittleEndian.AppendUint64(dst, e)
	}
	return binary.LittleEndian.AppendUint64(dst, b.meta.Load()&metaOverflowMask) // strip latches
}

// readIndex deserializes an index checkpoint.
func readIndex(r io.Reader) (*index, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("faster: index checkpoint header: %w", err)
	}
	nBuckets := binary.LittleEndian.Uint64(hdr[0:])
	next := binary.LittleEndian.Uint64(hdr[16:])
	idx, err := newIndex(int(nBuckets), 0)
	if err != nil {
		return nil, err
	}
	idx.overflowNext.Store(next)
	var word [8]byte
	load := func(bs []bucket) error {
		for i := range bs {
			b := &bs[i]
			for j := range b.entries {
				if _, err := io.ReadFull(r, word[:]); err != nil {
					return err
				}
				b.entries[j].Store(binary.LittleEndian.Uint64(word[:]))
			}
			if _, err := io.ReadFull(r, word[:]); err != nil {
				return err
			}
			b.meta.Store(binary.LittleEndian.Uint64(word[:]))
		}
		return nil
	}
	if err := load(idx.buckets); err != nil {
		return nil, fmt.Errorf("faster: index checkpoint buckets: %w", err)
	}
	for n := uint64(1); n < next; n++ {
		b := idx.overflowBucket(n)
		for j := range b.entries {
			if _, err := io.ReadFull(r, word[:]); err != nil {
				return nil, fmt.Errorf("faster: index checkpoint overflow: %w", err)
			}
			b.entries[j].Store(binary.LittleEndian.Uint64(word[:]))
		}
		if _, err := io.ReadFull(r, word[:]); err != nil {
			return nil, fmt.Errorf("faster: index checkpoint overflow: %w", err)
		}
		b.meta.Store(binary.LittleEndian.Uint64(word[:]))
	}
	return idx, nil
}
