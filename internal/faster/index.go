// Package faster implements the FASTER concurrent hash key-value store of
// Secs. 5–6 of the CPR paper: a latch-free hash index over a HybridLog record
// store, with session-based operation serial numbers and CPR-based group
// commit (5-phase state machine: rest → prepare → in-progress → wait-pending
// → wait-flush).
package faster

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/epoch"
	"repro/internal/hlog"
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

// decodeBucket views a bucket as its eight words and nothing else.
var _ = [1]struct{}{}[unsafe.Sizeof(bucket{})-8*(entriesPerBucket+1)]

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

func newIndex(nBuckets int) (*index, error) {
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

// probe walks hash's bucket chain once. It returns the slot of the committed
// entry with hash's tag and that entry as it loaded it — the word a decision
// made on the chain behind it is installed against (DESIGN "The operation
// path"). A tentative entry is an insert still checking for duplicates and
// counts as absent. Without a committed entry probe returns the first free
// slot it passed (nil if none) and 0: where claim may create the entry. With
// create, an entry of hash's tag, it creates it there instead — in a new
// overflow bucket when the chain has no free slot — and returns it, or the
// committed entry of the tag that appeared meanwhile.
func (idx *index) probe(hash, create uint64) (*atomic.Uint64, uint64) {
	tag := tagOf(hash)
	for {
		var free *atomic.Uint64
		b := idx.mainBucket(hash)
		for {
			for i := range b.entries {
				e := b.entries[i].Load()
				if e&(entryTagMask|entryTentative) == tag {
					return &b.entries[i], e
				}
				if e == 0 && free == nil {
					free = &b.entries[i]
				}
			}
			meta := b.meta.Load()
			if next := meta & metaOverflowMask; next != 0 {
				b = idx.overflowBucket(next)
				continue
			}
			if create == 0 {
				return free, 0
			}
			if free == nil {
				// Extend the chain. A lost race (the link, or a latch count,
				// changed the meta word) leaks slab slot n, bounded by the
				// thread count, and walks b again.
				n := idx.overflowNext.Add(1) - 1
				nb := idx.overflowBucket(n)
				if !b.meta.CompareAndSwap(meta, meta&^metaOverflowMask|n) {
					continue
				}
				free = &nb.entries[0]
			}
			break
		}
		if idx.claim(hash, free, create) {
			return free, create
		}
	}
}

// claim creates entry, of hash's tag, in the free slot: tentative, then
// committed once no other entry of the tag, tentative or not, is in the chain.
// It fails if the slot was taken meanwhile or another entry of the tag is there
// (two inserts of one tag may both fail; neither commits a duplicate).
func (idx *index) claim(hash uint64, free *atomic.Uint64, entry uint64) bool {
	if !free.CompareAndSwap(0, entry|entryTentative) {
		return false
	}
	for b := idx.mainBucket(hash); ; {
		for i := range b.entries {
			if e := b.entries[i].Load(); e&entryTagMask == entry&entryTagMask && &b.entries[i] != free {
				free.Store(0)
				return false
			}
		}
		next := b.meta.Load() & metaOverflowMask
		if next == 0 {
			break
		}
		b = idx.overflowBucket(next)
	}
	free.Store(entry) // nothing but this goroutine writes a tentative entry
	return true
}

// --- CPR bucket latches (fine-grained version transfer, Sec. 6.2) ---

// trySharedLatch increments the main bucket's shared-latch count unless the
// exclusive latch is held.
func (idx *index) trySharedLatch(hash uint64) bool {
	epoch.YieldAt(epoch.SiteLatch)
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
	epoch.YieldAt(epoch.SiteLatch)
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

// eachBucket calls fn on every bucket in image order: the main array, then the
// overflow slab below next.
func (idx *index) eachBucket(next uint64, fn func(b *bucket)) {
	for i := range idx.buckets {
		fn(&idx.buckets[i])
	}
	for k := uint64(1); k < next; k++ {
		fn(idx.overflowBucket(k))
	}
}

// --- fuzzy checkpoint (Sec. 6.3) ---
//
// The image is sized by occupancy, not capacity (DESIGN.md, "Fuzzy index
// checkpoint: the image"): a header — imageMagic, main bucket count,
// overflowNext, little-endian words — then one group per bucket in image order:
// a presence byte (bit j = entry j, bit 7 = overflow link) and what it names,
// entries before the link, each one minimal uvarint — an entry's address>>3
// above its 14-bit tag, a link's overflow bucket id.

const (
	imageMagic      = uint64('C') | 'P'<<8 | 'R'<<16 | 'I'<<24 | 'D'<<32 | 'X'<<40 | '3'<<48
	imageMagicFixed = imageMagic&^(0xFF<<48) | '2'<<48 // the image of 8-byte words this one replaced
	imageHeaderSize = 24
	imageLinkBit    = 1 << entriesPerBucket
	imageTagMask    = 1<<entryTagBits - 1
)

// imageBatch is how much image writeImage and decodeIndex hold at a time.
const imageBatch = 64 << 10

// writeImage streams the serialized index to w a batch of bucket groups at a
// time. Latch bits are masked out; tentative entries are dropped (their
// inserters will redo), and so is a link to an overflow bucket claimed after the
// capture began: everything behind it was inserted after Lis and is replayed,
// and carried along the link would outlive the recovered slab's reuse of it.
func (idx *index) writeImage(w io.Writer) error {
	var g imageGroup
	next := idx.overflowNext.Load()
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, imageBatch), imageMagic)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(idx.buckets)))
	buf = binary.LittleEndian.AppendUint64(buf, next)
	var err error
	idx.eachBucket(next, func(b *bucket) {
		if len(buf)+len(g) > cap(buf) && err == nil {
			_, err = w.Write(buf)
			buf = buf[:0]
		}
		buf = append(buf, g[:g.encode(b, next)]...)
	})
	if err == nil {
		_, err = w.Write(buf)
	}
	return err
}

// imageGroup holds one bucket's group of the image.
type imageGroup [1 + (entriesPerBucket+1)*binary.MaxVarintLen64]byte

// encode writes b's group into g and returns its length.
func (g *imageGroup) encode(b *bucket, next uint64) int {
	g[0] = 0
	n := 1
	for j := range b.entries {
		if e := b.entries[j].Load(); e != 0 && e&entryTentative == 0 {
			g[0] |= 1 << j
			n += binary.PutUvarint(g[n:], entryAddr(e)>>3<<entryTagBits|e>>entryTagShift&imageTagMask)
		}
	}
	if link := b.meta.Load() & metaOverflowMask; link != 0 && link < next {
		g[0] |= imageLinkBit
		n += binary.PutUvarint(g[n:], link)
	}
	return n
}

// decodeIndex rebuilds an index from the n-byte image r reads, in one pass and
// privately: r's io.EOF comes once the artifact verified. It trusts nothing: the
// header's counts are checked against n before any bucket is allocated (a
// bucket costs the image at least its presence byte), and what writeImage
// cannot have written — a uvarint that is not minimal, an entry of tag 0 or
// past hlog.MaxAddress, a link not forward into the slab, a byte past the last
// bucket — fails the decode.
func decodeIndex(r io.Reader, n int64) (*index, error) {
	var hdr [imageHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:min(n, imageHeaderSize)]); err != nil {
		return nil, fmt.Errorf("faster: index checkpoint header: %w", err)
	}
	if n >= imageHeaderSize && binary.LittleEndian.Uint64(hdr[:]) == imageMagicFixed {
		return nil, fmt.Errorf("faster: index checkpoint: a CPRIDX2 image (8-byte words, from before the varint image); this version cannot read it")
	}
	if n < imageHeaderSize || binary.LittleEndian.Uint64(hdr[:]) != imageMagic {
		return nil, fmt.Errorf("faster: index checkpoint: %d bytes without the CPRIDX3 magic (a dense image from before the sparse format?)", n)
	}
	nBuckets := binary.LittleEndian.Uint64(hdr[8:])
	next := binary.LittleEndian.Uint64(hdr[16:])
	room := uint64(n - imageHeaderSize)
	if next == 0 || next-1 > overflowMaxChunks*overflowChunkSize || nBuckets > room || next-1 > room-nBuckets {
		return nil, fmt.Errorf("faster: index checkpoint: header claims %d+%d buckets, image is %d bytes",
			nBuckets, next-1, n)
	}
	idx, err := newIndex(int(nBuckets))
	if err != nil {
		return nil, err
	}
	idx.overflowNext.Store(next)
	br := bufio.NewReaderSize(r, imageBatch)
	var window, p []byte // what br holds, and the part of it not yet decoded
	for k := uint64(0); k < nBuckets+next-1; k++ {
		if len(p) < len(imageGroup{}) { // short at the end: decodeBucket finds a truncation
			br.Discard(len(window) - len(p))
			window, _ = br.Peek(imageBatch)
			p = window
		}
		self, b := max(k+1, nBuckets)-nBuckets, &idx.buckets[k&idx.mask] // the main array, then the slab
		if self > 0 {
			b = idx.overflowBucket(self)
		}
		if p, err = decodeBucket(b, p, self, next); err != nil {
			return nil, fmt.Errorf("faster: index checkpoint bucket %d: %w", k, err)
		}
	}
	br.Discard(len(window) - len(p))
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, cmp.Or(err, errors.New("faster: index checkpoint: bytes after the last bucket"))
	}
	return idx, nil
}

// decodeBucket fills b (overflow id self, 0 for a main bucket) from the front
// of p and returns the rest. b is a fresh bucket no other goroutine can see
// yet, so its words are stored plainly: an atomic store is a full barrier, and
// one per word would expose the cache miss of every bucket of the index in turn.
func decodeBucket(b *bucket, p []byte, self, next uint64) ([]byte, error) {
	into := (*[entriesPerBucket + 1]uint64)(unsafe.Pointer(b))
	if len(p) == 0 {
		return nil, io.ErrUnexpectedEOF
	}
	present, p := p[0], p[1:]
	for m := present; m != 0; m &= m - 1 { // one turn per word present, the link last
		j := bits.TrailingZeros8(m)
		x, n := binary.Uvarint(p)
		switch {
		case n <= 0 || n > 1 && p[n-1] == 0:
			return nil, fmt.Errorf("word %d: not a minimal uvarint (%d)", j, n)
		case j == entriesPerBucket && (x <= self || x >= next):
			return nil, fmt.Errorf("overflow link %#x from bucket %d of %d", x, self, next-1)
		case j == entriesPerBucket:
			into[j] = x
		case x&imageTagMask == 0 || x>>entryTagBits >= hlog.MaxAddress>>3:
			return nil, fmt.Errorf("entry %d is %#x", j, x)
		default:
			into[j] = x>>entryTagBits<<3 | x&imageTagMask<<entryTagShift
		}
		p = p[n:]
	}
	return p, nil
}
