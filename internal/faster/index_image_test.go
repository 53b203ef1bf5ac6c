package faster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hlog"
	"repro/internal/storage"
)

// imageWord is one word an index image carries: slot 0..6 an entry, slot 7
// the overflow link, in main bucket `bucket` or (past the main array) overflow
// bucket bucket-len(main)+1.
type imageWord struct {
	bucket, slot int
	word         uint64
}

// indexWords lists the non-zero words of idx in image order. With masked it
// lists what an image of idx must hold — tentative entries dropped, meta words
// reduced to their link; without, the words as they are, so a latch bit or a
// tentative entry that survived a round trip shows up as a difference.
func indexWords(idx *index, masked bool) []imageWord {
	var out []imageWord
	next := idx.overflowNext.Load()
	visit := func(id int, b *bucket) {
		for j := range b.entries {
			e := b.entries[j].Load()
			if masked && e&entryTentative != 0 {
				e = 0
			}
			if e != 0 {
				out = append(out, imageWord{id, j, e})
			}
		}
		m := b.meta.Load()
		if masked {
			m &= metaOverflowMask
		}
		if m != 0 {
			out = append(out, imageWord{id, entriesPerBucket, m})
		}
	}
	for i := range idx.buckets {
		visit(i, &idx.buckets[i])
	}
	for k := uint64(1); k < next; k++ {
		visit(len(idx.buckets)+int(k)-1, idx.overflowBucket(k))
	}
	return out
}

// imageBytes is the size of an image of nBuckets buckets holding words: the
// header, a presence byte per bucket and a uvarint per word.
func imageBytes(nBuckets int, words []imageWord) int {
	n := imageHeaderSize + nBuckets
	for _, w := range words {
		x := w.word // a link
		if w.slot < entriesPerBucket {
			x = entryAddr(x)>>3<<entryTagBits | x>>entryTagShift&imageTagMask
		}
		n += len(binary.AppendUvarint(nil, x))
	}
	return n
}

// imageOf is the image writeImage streams for idx.
func imageOf(idx *index) []byte {
	var b bytes.Buffer
	idx.writeImage(&b) //nolint:errcheck // a bytes.Buffer does not fail
	return b.Bytes()
}

// decodeImage is decodeIndex of an image held whole.
func decodeImage(image []byte) (*index, error) {
	return decodeIndex(bytes.NewReader(image), int64(len(image)))
}

// checkRoundTrip encodes a quiescent idx, decodes the image and holds both to
// the format's contract.
func checkRoundTrip(t *testing.T, idx *index) []byte {
	t.Helper()
	want := indexWords(idx, true)
	image := imageOf(idx)
	nBuckets := len(idx.buckets) + int(idx.overflowNext.Load()) - 1
	if size := imageBytes(nBuckets, want); len(image) != size {
		t.Fatalf("image is %d bytes; %d buckets holding %d words make %d",
			len(image), nBuckets, len(want), size)
	}
	back, err := decodeImage(image)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.buckets) != len(idx.buckets) || back.mask != idx.mask ||
		back.overflowNext.Load() != idx.overflowNext.Load() {
		t.Fatalf("decoded %d buckets, overflowNext %d; want %d, %d", len(back.buckets),
			back.overflowNext.Load(), len(idx.buckets), idx.overflowNext.Load())
	}
	if got := indexWords(back, false); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded index holds %d words, the original %d non-tentative entries and links (or they differ)",
			len(got), len(want))
	}
	if again := imageOf(back); !bytes.Equal(again, image) {
		t.Fatal("decodeIndex(image) does not re-encode to the same image")
	}
	return image
}

// goldenIndex is a small index with overflow chains, a tentative entry and
// latch bits set — everything the image encoder has to mask or follow.
func goldenIndex(t testing.TB) *index {
	idx, err := newIndex(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 200; i++ {
		h := i * 0x9E3779B97F4A7C15
		idx.probe(h, tagOf(h)|(64+8*i))
	}
	idx.buckets[3].entries[2].Store(idx.buckets[3].entries[2].Load() | entryTentative)
	idx.trySharedLatch(5)
	idx.tryExclusiveLatch(6)
	return idx
}

// fixedImage is idx in the format this repository wrote before the varint
// image: the CPRIDX2 magic, bucket count and overflowNext, then per bucket a
// presence byte and the raw 8-byte words it names. decodeIndex must refuse it,
// by name.
func fixedImage(idx *index) []byte {
	out := binary.LittleEndian.AppendUint64(nil, imageMagicFixed)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(idx.buckets)))
	out = binary.LittleEndian.AppendUint64(out, idx.overflowNext.Load())
	words := indexWords(idx, true)
	for id := 0; id < len(idx.buckets)+int(idx.overflowNext.Load())-1; id++ {
		at := len(out)
		out = append(out, 0)
		for ; len(words) > 0 && words[0].bucket == id; words = words[1:] {
			out[at] |= 1 << words[0].slot
			out = binary.LittleEndian.AppendUint64(out, words[0].word)
		}
	}
	return out
}

// respell is image with word i of bucket 0 (entries, then the link) spelled as
// b instead.
func respell(image []byte, i int, b []byte) []byte {
	at := imageHeaderSize + 1
	for ; i > 0; i-- {
		_, n := binary.Uvarint(image[at:])
		at += n
	}
	_, n := binary.Uvarint(image[at:])
	return slices.Concat(image[:at], b, image[at+n:])
}

// nonMinimal is x's uvarint with a redundant zero group at the end.
func nonMinimal(x uint64) []byte {
	b := binary.AppendUvarint(nil, x)
	b[len(b)-1] |= 0x80
	return append(b, 0)
}

// denseImage is idx in the format this repository wrote before the sparse
// image: three header words (bucket count, 0, overflowNext), then eight raw
// words per bucket. decodeIndex must refuse it.
func denseImage(idx *index) []byte {
	next := idx.overflowNext.Load()
	out := binary.LittleEndian.AppendUint64(nil, uint64(len(idx.buckets)))
	out = binary.LittleEndian.AppendUint64(out, 0)
	out = binary.LittleEndian.AppendUint64(out, next)
	dump := func(b *bucket) {
		for j := range b.entries {
			out = binary.LittleEndian.AppendUint64(out, b.entries[j].Load()&^entryTentative)
		}
		out = binary.LittleEndian.AppendUint64(out, b.meta.Load()&metaOverflowMask)
	}
	for i := range idx.buckets {
		dump(&idx.buckets[i])
	}
	for k := uint64(1); k < next; k++ {
		dump(idx.overflowBucket(k))
	}
	return out
}

func TestIndexImageRoundTrip(t *testing.T) {
	idx := goldenIndex(t)
	if next := idx.overflowNext.Load(); next < 20 {
		t.Fatalf("golden index has only %d overflow buckets", next-1)
	}
	image := checkRoundTrip(t, idx)
	back, err := decodeImage(image)
	if err != nil {
		t.Fatal(err)
	}
	if e := back.buckets[3].entries[2].Load(); e != 0 {
		t.Fatalf("tentative entry survived the round trip: %x", e)
	}
	for _, b := range []int{5, 6} {
		if m := back.buckets[b].meta.Load(); m&^metaOverflowMask != 0 {
			t.Fatalf("bucket %d latch bits survived the round trip: %x", b, m)
		}
	}
	for i := uint64(1); i <= 200; i++ {
		h := i * 0x9E3779B97F4A7C15
		if _, e := idx.probe(h, 0); e == 0 {
			continue // the entry made tentative above
		}
		if _, e := back.probe(h, 0); entryAddr(e) != 64+8*i {
			t.Fatalf("key %d lost in the round trip", i)
		}
	}
}

// TestIndexImageProperty: for random indexes — empty to heavily chained, with
// holes, leaked overflow buckets, tentative entries (set on live entries and
// left behind in free slots) and shared and exclusive latches held —
// decodeIndex(writeImage(idx)) holds every non-tentative entry and every
// overflow link of idx, in place, and nothing else.
func TestIndexImageProperty(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nBuckets := 1 << rng.Intn(7)
		idx, err := newIndex(nBuckets)
		if err != nil {
			t.Fatal(err)
		}
		var slots []*atomic.Uint64
		for n := rng.Intn(nBuckets*20 + 1); n > 0; n-- {
			h := rng.Uint64()
			slot, _ := idx.probe(h, tagOf(h))
			if rng.Intn(8) != 0 { // else: an entry still at address 0
				slot.Store(tagOf(h) | rng.Uint64()&(hlog.MaxAddress-1)&^7) // any address a record can have
			}
			slots = append(slots, slot)
			switch rng.Intn(16) {
			case 0:
				idx.overflowBucket(idx.overflowNext.Add(1) - 1) // claimed, never linked
			case 1:
				idx.trySharedLatch(rng.Uint64())
			case 2:
				idx.tryExclusiveLatch(rng.Uint64())
			}
		}
		// Only now the half-done inserts: a tentative entry makes a later
		// creating probe of its tag wait for an inserter that is not there.
		for _, slot := range slots {
			switch rng.Intn(10) {
			case 0:
				slot.Store(0) // a hole, as clampIndex leaves
			case 1:
				slot.Store(slot.Load() | entryTentative)
			case 2:
				slot.Store(tagOf(rng.Uint64()) | entryTentative) // freed, then claimed by an insert that stopped
			}
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { checkRoundTrip(t, idx) })
	}
}

// TestIndexArtifactBytes: the index artifact of a WithIndex commit is sized by
// what the index holds. At the paper's sizing (one bucket per two keys) that is
// under 20 % of the dense image every bucket used to cost 64 bytes in: 15 %
// here, where the image of 8-byte words took 27 %.
func TestIndexArtifactBytes(t *testing.T) {
	const buckets, keys = 1 << 12, 1 << 13
	cs := storage.NewMemCheckpointStore()
	cfg := smallConfig()
	cfg.IndexBuckets = buckets
	cfg.Checkpoints = cs
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	for k := uint64(0); k < keys; k++ {
		if st := sess.Upsert(key(k), u64(k)); st == Pending {
			sess.CompletePending(true)
		}
	}
	res := driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true})
	sess.StopSession()
	got, err := storage.ReadArtifact(cs, blobName("index", res.Token))
	if err != nil {
		t.Fatal(err)
	}
	idx := s.index // quiescent: no session is running
	words := len(indexWords(idx, true))
	nBuckets := buckets + int(idx.overflowNext.Load()) - 1
	const envelope = 16
	if limit := envelope + imageBytes(nBuckets, indexWords(idx, true)); len(got) != limit {
		t.Fatalf("index artifact is %d bytes; %d buckets holding %d words make %d",
			len(got), nBuckets, words, limit)
	}
	if dense := 24 + 64*nBuckets; len(got)*100 > 20*dense {
		t.Fatalf("index artifact is %d bytes, %.0f%% of the %d-byte dense image",
			len(got), 100*float64(len(got))/float64(dense), dense)
	}
	payload, err := storage.DecodeArtifact(got)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeImage(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(indexWords(back, false), indexWords(idx, true)) {
		t.Fatal("the artifact does not decode to the store's index")
	}
}

// badImages are images decodeIndex must refuse, each derived from idx.
func badImages(idx *index) map[string][]byte {
	image := imageOf(idx)
	overclaim := bytes.Clone(image)
	binary.LittleEndian.PutUint64(overclaim[8:], 1<<40) // 64 TiB of buckets in a 2 KiB image
	slab := bytes.Clone(image)
	binary.LittleEndian.PutUint64(slab[16:], 1<<40)
	first, _ := binary.Uvarint(image[imageHeaderSize+1:]) // bucket 0's first word
	return map[string][]byte{
		"dense pre-sparse image":       denseImage(idx),
		"CPRIDX2 image":                fixedImage(idx),
		"non-minimal word":             respell(image, 0, nonMinimal(first)),
		"truncated mid-bucket":         image[:len(image)-5],
		"truncated header":             image[:imageHeaderSize-1],
		"header claims 2^40 buckets":   overclaim,
		"header claims 2^40 overflows": slab,
		"trailing bytes":               append(bytes.Clone(image), 0),
		"empty":                        nil,
	}
}

func TestDecodeIndexRejects(t *testing.T) {
	idx := goldenIndex(t)
	for name, image := range badImages(idx) {
		if _, err := decodeImage(image); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, err := decodeImage(fixedImage(idx)); err == nil || !strings.Contains(err.Error(), "CPRIDX2") {
		t.Errorf("a CPRIDX2 image: %v, want a refusal naming the format", err)
	}
	image := imageOf(idx)
	link := bits.OnesCount8(image[imageHeaderSize] &^ imageLinkBit) // bucket 0's link is its word #link
	if image[imageHeaderSize]&imageLinkBit == 0 {
		t.Fatal("golden bucket 0 has no overflow link")
	}
	first := entryAddr(idx.buckets[0].entries[0].Load())>>3<<entryTagBits | idx.buckets[0].entries[0].Load()>>entryTagShift&imageTagMask
	if idx.buckets[0].entries[0].Load() == 0 || !bytes.Equal(respell(image, 0, binary.AppendUvarint(nil, first)), image) {
		t.Fatal("golden bucket 0 does not start with its entry 0")
	}
	for name, word := range map[string][]byte{
		"link past the slab":         binary.AppendUvarint(nil, idx.overflowNext.Load()),
		"link with a latch bit":      binary.AppendUvarint(nil, idx.buckets[0].meta.Load()|metaExclusive),
		"zero word marked present":   {0},
		"link not minimal":           nonMinimal(idx.buckets[0].meta.Load() & metaOverflowMask),
		"link past 64 bits":          bytes.Repeat([]byte{0xFF}, 10),
		"entry of tag 0":             binary.AppendUvarint(nil, first&^imageTagMask),
		"entry past hlog.MaxAddress": binary.AppendUvarint(nil, hlog.MaxAddress>>3<<entryTagBits|1),
	} {
		at := link
		if strings.HasPrefix(name, "entry") {
			at = 0
		}
		if _, err := decodeImage(respell(image, at, word)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestRecoveryFallbackOnUndecodableIndex: an index artifact that passes its
// envelope check but does not decode — a dense image from before the sparse
// format, a truncated one, one whose header claims more buckets than its
// length can describe — demotes recovery to the previous verifiable commit,
// exactly as a CRC-corrupt index does.
func TestRecoveryFallbackOnUndecodableIndex(t *testing.T) {
	for name, bad := range badImages(goldenIndex(t)) {
		t.Run(name, func(t *testing.T) {
			dev := storage.NewMemDevice()
			ckpts := storage.NewMemCheckpointStore()
			cfg := Config{IndexBuckets: 1 << 8, PageBits: 13, MemPages: 8, Device: dev, Checkpoints: ckpts}
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sess := s.StartSession()
			var tokens [2]string
			for c := range tokens {
				for k := uint64(0); k < 300; k++ { // commit c holds k = c<<16 | k
					if st := sess.Upsert(key(k), u64(uint64(c)<<16|k)); st == Pending {
						sess.CompletePending(true)
					}
				}
				tokens[c] = driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true}).Token
			}
			sess.StopSession()
			s.Close()
			if err := storage.WriteArtifactChecked(ckpts, blobName("index", tokens[1]), bad); err != nil {
				t.Fatal(err)
			}
			r, err := Open(cfg)
			if err != nil {
				t.Fatalf("recovery must demote, not fail: %v", err)
			}
			defer r.Close()
			if report := r.RecoveryReport(); report == nil || report.Token != tokens[0] || len(report.Skipped) != 1 || report.Skipped[0].Token != tokens[1] {
				t.Fatalf("recovered %+v, want %s skipping %s", report, tokens[0], tokens[1])
			}
			reader := r.StartSession()
			defer reader.StopSession()
			for k := uint64(0); k < 300; k++ {
				if v, found := readVal(t, reader, k); !found || binary.LittleEndian.Uint64(v) != k {
					t.Fatalf("key %d recovers (%x, %v), want the first commit's %d", k, v, found, k)
				}
			}
		})
	}
}

// TestIndexImageConcurrentWriters takes index checkpoints while sessions
// insert fresh keys into a deliberately small index (every image is cut while
// entries appear, overflow buckets are claimed and chains are extended), then
// crashes after each commit and recovers from it: every session finds exactly
// its operations up to its CPR point.
func TestIndexImageConcurrentWriters(t *testing.T) {
	const sessions, commits = 3, 4
	dev := storage.NewMemDevice()
	ckpts := storage.NewMemCheckpointStore()
	cfg := Config{IndexBuckets: 1 << 6, PageBits: 13, MemPages: 8, Device: dev, Checkpoints: ckpts}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, sessions)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := range ids {
		sess := s.StartSession()
		ids[i] = sess.ID()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := uint64(1); !stop.Load(); n++ { // operation n inserts key (i, n) = n
				if st := sess.Upsert(key(uint64(i)<<32|n), u64(n)); st == Pending {
					sess.CompletePending(true)
				}
				if n%256 == 0 {
					runtime.Gosched()
				}
			}
			// A pass yields, so the flush runs on one processor; t.Fatal
			// cannot end the test from this goroutine, so the test binary's
			// timeout bounds the wait.
			for s.Phase() != Rest {
				sess.Refresh()
				sess.CompletePending(false)
				runtime.Gosched()
			}
			sess.StopSession()
		}()
	}
	type crash struct {
		token string
		dev   *storage.MemDevice
		ckpts *storage.MemCheckpointStore
	}
	var crashes []crash
	for c := 0; c < commits; c++ {
		token, err := s.Commit(CommitOptions{WithIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		if res := s.WaitForCommit(token); res.Err != nil {
			t.Fatalf("commit %s: %v", token, res.Err)
		}
		time.Sleep(time.Millisecond)                                // a log suffix past the image
		crashes = append(crashes, crash{token, nil, ckpts.Clone()}) // checkpoint store first:
		crashes[c].dev = dev.Clone()                                // its commits' log bytes are on the device
	}
	stop.Store(true)
	wg.Wait()
	s.Close()

	for _, c := range crashes {
		rcfg := cfg
		rcfg.Device, rcfg.Checkpoints = c.dev, c.ckpts
		r, err := Open(rcfg)
		if err != nil {
			t.Fatalf("%s: %v", c.token, err)
		}
		if report := r.RecoveryReport(); report == nil || report.Token != c.token || len(report.Skipped) != 0 {
			t.Fatalf("recovered %+v, want %s", report, c.token)
		}
		for i, id := range ids {
			rs, point := r.ContinueSession(id)
			if point == 0 {
				t.Fatalf("%s: session %d recovered no operations", c.token, i)
			}
			// Every operation of a short history; of a long one a sample and
			// the last ones before the point.
			stride := 1 + point/2000
			for n := uint64(1); n <= point+64; n++ {
				if n%stride != 0 && n+64 < point {
					continue
				}
				got, found := readVal(t, rs, uint64(i)<<32|n)
				if want := n <= point; found != want || (found && binary.LittleEndian.Uint64(got) != n) {
					t.Fatalf("%s: session %d operation %d, CPR point %d: found %v, value %x", c.token, i, n, point, found, got)
				}
			}
			rs.StopSession()
		}
		r.Close()
	}
}

// FuzzDecodeIndex: decodeIndex on arbitrary bytes never panics and never
// allocates more than the image can account for — a bucket costs the image at
// least one byte and the heap 64, plus the slab's chunk rounding and the
// reader's buffer — and what it accepts re-encodes to the same bytes.
func FuzzDecodeIndex(f *testing.F) {
	idx := goldenIndex(f)
	image := imageOf(idx)
	f.Add(image)
	for _, bad := range badImages(idx) {
		f.Add(bad)
	}
	for _, bit := range []int{3, 8*8 + 1, 16*8 + 2, 24 * 8, 25*8 + 62, len(image)*8 - 1} {
		flipped := bytes.Clone(image)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		back, err := decodeImage(data)
		runtime.ReadMemStats(&after)
		const chunkBytes = overflowChunkSize * 64
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+2*chunkBytes+imageBatch+1<<16); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), grew, bound)
		}
		if err != nil {
			return
		}
		if again := imageOf(back); !bytes.Equal(again, data) {
			t.Fatalf("accepted a %d-byte image that re-encodes to %d different bytes", len(data), len(again))
		}
	})
}
