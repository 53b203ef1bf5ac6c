package hlog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/epoch"
	"repro/internal/obs"
	"repro/internal/storage"
)

// crcTable is the CRC32-C polynomial used for per-page checksums (matching
// the storage package's artifact envelope).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// MinMemPages is the smallest allowed MemPages value: the log needs room
// for a mutable region, a fuzzy region and at least one flushing frame.
const MinMemPages = 4

// mutableFraction is the share of in-memory pages kept mutable, as in the
// paper's setup.
const mutableFraction = 0.9

// ioWorkers sizes the log's async I/O pool.
const ioWorkers = 4

// Config parameterizes a HybridLog.
type Config struct {
	// PageBits sets the page size to 1<<PageBits bytes (default 20 = 1 MiB).
	PageBits uint
	// MemPages is the number of in-memory page frames (default 16).
	MemPages int
	// Device stores flushed/evicted pages. Required.
	Device storage.Device
	// Epochs is the epoch manager, shared by every log of a store. Required.
	Epochs *epoch.Manager
	// Metrics, when non-nil, receives the log's instrumentation (region
	// offsets, flush volume/latency, async reads) and the I/O pool's.
	Metrics *obs.Registry
	// Flight, when non-nil, receives flush and page-CRC flight events (on
	// lane 0, the log's).
	Flight *obs.FlightRecorder
}

func (c *Config) fill() error {
	if c.PageBits == 0 {
		c.PageBits = 20
	}
	if c.PageBits < 12 || c.PageBits > 30 {
		return fmt.Errorf("hlog: PageBits %d out of range [12,30]", c.PageBits)
	}
	if c.MemPages == 0 {
		c.MemPages = 16
	}
	if c.MemPages < MinMemPages {
		return fmt.Errorf("hlog: MemPages %d too small (min %d)", c.MemPages, MinMemPages)
	}
	if c.Device == nil {
		return fmt.Errorf("hlog: Device is required")
	}
	if c.Epochs == nil {
		return fmt.Errorf("hlog: Epochs is required")
	}
	return nil
}

// flushSegment tracks one async page write so the durable watermark advances
// in address order even when device completions reorder.
type flushSegment struct {
	from, to uint64
	done     bool
	issued   time.Time // when the write was submitted (flush-latency metric)
}

// Log is a HybridLog instance. See the package comment for the region
// structure. All public methods are safe for concurrent use; methods taking
// an *epoch.Guard must be called under that guard's protection, which they
// refresh while they wait so the shifts they wait for can drain.
type Log struct {
	cfg      Config
	pageSize uint64
	pageMask uint64
	roLag    uint64 // readOnly trails tail by this many bytes

	frames [][]uint64    // page p's is frames[p%MemPages]
	opened atomic.Uint64 // the last page whose frame is ready; pages open in order
	openMu sync.Mutex    // serializes openPage

	tail         atomic.Uint64
	readOnly     atomic.Uint64 // latest read-only offset
	safeReadOnly atomic.Uint64 // read-only offset seen by all threads
	head         atomic.Uint64 // addresses below are read from the device; never past durable
	safeHead     atomic.Uint64 // head seen by all threads: frames below may be reused
	begin        atomic.Uint64 // first live address; advanced by compaction

	pool     *storage.Pool
	readHint atomic.Uint32 // largest record AsyncRead has served, up to maxReadHint

	flushMu     sync.Mutex
	flushIssued uint64
	segments    []*flushSegment

	durable     atomic.Uint64
	durableMu   sync.Mutex
	durableCond *sync.Cond
	flushErr    error // first permanent flush failure (guarded by durableMu)

	// Per-page checksums of flushed data (guarded by durableMu). pageCRCs
	// holds CRC32-C over each fully-flushed page's bytes ([FirstAddress,
	// pageEnd) for page 0); crcRun/crcNext accumulate the in-progress page as
	// the durable watermark advances in address order. A page whose flushed
	// history this Log did not observe end to end (recovery landed mid-page,
	// or a record on it was re-written by PersistInvalid/RestoreRange) is
	// left without an entry rather than given a wrong one.
	pageCRCs   map[uint64]uint32
	crcRun     uint32
	crcNext    uint64
	crcTainted bool

	// Observability (registered at construction; metrics are nil-safe).
	flushBytes *obs.Counter
	flushSegs  *obs.Counter
	flushNs    *obs.Histogram
	asyncReads *obs.Counter

	closed atomic.Bool
}

// New creates a HybridLog whose first record lands at FirstAddress.
func New(cfg Config) (*Log, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	l := &Log{
		cfg:      cfg,
		pageSize: 1 << cfg.PageBits,
		pageMask: 1<<cfg.PageBits - 1,
	}
	l.begin.Store(FirstAddress)
	mutablePages := int(float64(cfg.MemPages) * mutableFraction)
	if mutablePages < 1 {
		mutablePages = 1
	}
	if mutablePages > cfg.MemPages-2 {
		mutablePages = cfg.MemPages - 2
	}
	l.roLag = uint64(mutablePages) * l.pageSize
	l.frames = make([][]uint64, cfg.MemPages)
	l.frames[0] = make([]uint64, l.pageSize/8) // page 0 opened
	l.tail.Store(FirstAddress)
	l.readOnly.Store(FirstAddress)
	l.safeReadOnly.Store(FirstAddress)
	l.head.Store(FirstAddress)
	l.safeHead.Store(FirstAddress)
	l.flushIssued = FirstAddress
	l.durable.Store(FirstAddress)
	l.durableCond = sync.NewCond(&l.durableMu)
	l.pageCRCs = make(map[uint64]uint32)
	l.crcNext = FirstAddress
	l.pool = storage.NewPool(ioWorkers)
	l.instrument(cfg.Metrics)
	return l, nil
}

// instrument registers the log's metrics with reg (a nil registry leaves every
// metric a no-op; logs sharing reg count into the same metrics):
//
//	hlog_flush_bytes_total / hlog_flush_segments_total        flush volume
//	hlog_flush_ns                                             submit-to-durable latency
//	hlog_async_reads_total                                    cold-record fetches
func (l *Log) instrument(reg *obs.Registry) {
	l.flushBytes = reg.Counter("hlog_flush_bytes_total")
	l.flushSegs = reg.Counter("hlog_flush_segments_total")
	l.flushNs = reg.Histogram("hlog_flush_ns")
	l.asyncReads = reg.Counter("hlog_async_reads_total")
	l.pool.Instrument(reg)
}

// IOPool returns the log's I/O pool (its queue depth feeds the owner's
// storage_io_queue_depth gauge).
func (l *Log) IOPool() *storage.Pool { return l.pool }

// Close drains outstanding I/O. The log must not be used afterwards.
func (l *Log) Close() {
	if l.closed.Swap(true) {
		return
	}
	l.pool.Close()
}

// PageSize returns the page size in bytes.
func (l *Log) PageSize() uint64 { return l.pageSize }

// Tail returns the next free logical address.
func (l *Log) Tail() uint64 { return l.tail.Load() }

// ReadOnly returns the current read-only offset.
func (l *Log) ReadOnly() uint64 { return l.readOnly.Load() }

// SafeReadOnly returns the read-only offset guaranteed visible to every
// thread; addresses below it are immutable and flushable.
func (l *Log) SafeReadOnly() uint64 { return l.safeReadOnly.Load() }

// Head returns the smallest in-memory address.
func (l *Log) Head() uint64 { return l.head.Load() }

// Begin returns the first live address of the log; chain walks treat
// addresses below it as end-of-chain (their records were compacted away).
func (l *Log) Begin() uint64 { return l.begin.Load() }

// ShiftBegin advances the begin address after compaction copied every live
// record below target to the tail. Physical space reclamation (truncating
// the device prefix) is then possible out of band.
func (l *Log) ShiftBegin(target uint64) { raise(&l.begin, target) }

// raise moves a to target if that is forward and reports whether it did.
func raise(a *atomic.Uint64, target uint64) bool {
	for {
		old := a.Load()
		if target <= old {
			return false
		}
		if a.CompareAndSwap(old, target) {
			return true
		}
	}
}

// Durable returns the address below which all log data is on the device.
func (l *Log) Durable() uint64 { return l.durable.Load() }

// InMemory reports whether addr currently resides in a page frame.
func (l *Log) InMemory(addr uint64) bool { return addr >= l.head.Load() }

func (l *Log) page(addr uint64) uint64   { return addr >> l.cfg.PageBits }
func (l *Log) offset(addr uint64) uint64 { return addr & l.pageMask }

func (l *Log) frameFor(page uint64) []uint64 {
	return l.frames[page%uint64(len(l.frames))]
}

// frameRange is the byte view of [from, to), which lies within one resident
// page: the frame's own memory, not a copy.
func (l *Log) frameRange(from, to uint64) []byte {
	return frameBytes(l.frameFor(l.page(from)))[l.offset(from):][:to-from]
}

// Allocate reserves size bytes (8-aligned, must fit one page) and returns the
// record's logical address. It fails — panics — only on a bad size or when the
// record would lie past MaxAddress. An allocation that would be the first on a
// page opens that page first (see openPage), so the tail only ever moves onto a
// page whose frame is ready, and a thread never refreshes its epoch between
// reserving an address and writing the record there.
func (l *Log) Allocate(g *epoch.Guard, size uint32) uint64 {
	if size == 0 || uint64(size) > l.pageSize {
		panic(fmt.Sprintf("hlog: allocation size %d out of range (page %d)", size, l.pageSize))
	}
	if size%8 != 0 {
		panic("hlog: allocation size must be 8-byte aligned")
	}
	for {
		old := l.tail.Load()
		at := old
		if off := l.offset(old); off == 0 || off+uint64(size) > l.pageSize {
			// The page was sealed exactly at its boundary, or the record does
			// not fit: it goes to the start of the next page.
			if off != 0 {
				at = (l.page(old) + 1) << l.cfg.PageBits
			}
			if at >= MaxAddress { // page-aligned: a record below it ends at or below it
				panic(fmt.Sprintf("hlog: log full: a record at %d is past MaxAddress", at))
			}
			l.openPage(g, l.page(at))
		}
		if l.tail.CompareAndSwap(old, at+uint64(size)) {
			return at
		}
	}
}

// openPage makes page p ready for allocation before the tail moves onto it: it
// advances the read-only offset and readies the page's frame (ensureFrame). It
// waits — refreshing g, so the shifts' epoch actions can fire — and therefore
// runs before the caller has reserved anything: a thread that refreshed while
// holding an unwritten address would let a fold-over commit's flush capture
// that address as it was (the frame's previous page, or zeros) and call it
// durable. Any number of threads may ask for the same page, and a thread may
// ask late (the tail has moved on): whoever finds p opened is done.
func (l *Log) openPage(g *epoch.Guard, p uint64) {
	if l.opened.Load() >= p {
		return
	}
	for spins := 0; !l.openMu.TryLock(); spins++ {
		g.Refresh() // the holder may be waiting for this thread's epoch
		if spins%64 == 63 {
			runtime.Gosched()
		}
	}
	defer l.openMu.Unlock()
	if l.opened.Load() >= p {
		return
	}
	if target := int64(p<<l.cfg.PageBits) - int64(l.roLag); target > int64(FirstAddress) {
		l.ShiftReadOnlyTo(uint64(target))
	}
	l.ensureFrame(g, p)
	l.opened.Store(p)
}

// ShiftReadOnlyTo advances the read-only offset to target (monotonic; clamped
// to the tail) and registers an epoch action that, once every thread has
// observed the new offset, publishes it as safe-read-only and flushes the
// newly immutable region to the device. This is also the fold-over commit
// primitive (Sec. 6.2.4 / App. D).
func (l *Log) ShiftReadOnlyTo(target uint64) {
	if t := l.tail.Load(); target > t {
		target = t
	}
	if !raise(&l.readOnly, target) {
		return
	}
	l.cfg.Epochs.BumpEpoch(func() {
		if raise(&l.safeReadOnly, target) {
			l.issueFlushUntil(target)
		}
	})
}

// shiftHead moves the head toward target, but not past durable (below the head
// pages are read from the device), and once every thread has refreshed past the
// move lets ensureFrame reuse the frames below it: a thread that loaded the old
// head may still read one (FASTER's order: head, epoch bump, frames).
func (l *Log) shiftHead(target uint64) {
	target = min(target, l.durable.Load())
	if raise(&l.head, target) {
		l.cfg.Epochs.BumpEpoch(func() { raise(&l.safeHead, target) })
	}
}

// ensureFrame readies page p's frame under openMu: a new one, or page
// p-MemPages's once the head has passed it (shifted on every turn, as its flush
// lands) and every thread has refreshed since; it spins refreshing g.
func (l *Log) ensureFrame(g *epoch.Guard, p uint64) {
	idx, n := p%uint64(len(l.frames)), uint64(len(l.frames))
	if l.frames[idx] == nil {
		l.frames[idx] = make([]uint64, l.pageSize/8)
		return
	}
	for spins, evictEnd := 0, (max(p+1, n)-n)<<l.cfg.PageBits; l.safeHead.Load() < evictEnd; spins++ {
		l.shiftHead(evictEnd)
		g.Refresh()
		if spins%64 == 63 {
			runtime.Gosched()
		}
	}
	epoch.YieldAt(epoch.SiteFrameReuse)
	clear(l.frames[idx])
}

// WriteRecord fills a freshly allocated region at addr with a record. The
// caller must have obtained addr from Allocate with RecordSize(len(key),
// valCap) bytes and must not have published addr yet. A value shorter than
// valCap may need more than that (its record keeps the lens word): Append.
func (l *Log) WriteRecord(addr uint64, prev uint64, version uint16, key, value []byte, valCap int) error {
	valCap = max(valCap, len(value))
	if !l.Fits(len(key), valCap) {
		return fmt.Errorf("hlog: a %d-byte key and a %d-byte value capacity do not fit a record", len(key), valCap)
	}
	hw, vw := chooseShape(len(key), len(value), valCap)
	if uint32(recordBytes(hw, len(key), valCap)) != RecordSize(len(key), valCap) {
		return fmt.Errorf("hlog: WriteRecord of a %d-byte value in capacity %d: use Append", len(value), valCap)
	}
	initRecord(l.Record(addr).words, hw, vw, prev, version, key, value, valCap)
	return nil
}

// Fits reports whether Append takes a record of a keyLen-byte key and a value
// of capacity valCap: a key of 1..65535 bytes, a capacity below 16 MiB, and a
// record no larger than a page.
func (l *Log) Fits(keyLen, valCap int) bool {
	return uint(keyLen-1) < MaxKeyLen && uint(valCap) <= maxValLen &&
		uint64(recordBytes(2, keyLen, valCap)) <= l.pageSize
}

// Append allocates the record's exact size at the tail, writes it there,
// unpublished, and returns its address and the view it wrote through: the one
// call that needs no size from its caller. The caller has checked that the
// record Fits.
func (l *Log) Append(g *epoch.Guard, prev uint64, version uint16, key, value []byte, valCap int) (uint64, RecordRef) {
	valCap = max(valCap, len(value))
	hw, vw := chooseShape(len(key), len(value), valCap)
	addr := l.Allocate(g, uint32(recordBytes(hw, len(key), valCap)))
	rec := l.Record(addr)
	initRecord(rec.words, hw, vw, prev, version, key, value, valCap)
	return addr, rec
}

// Record returns a view over the in-memory record at addr. The caller must
// hold epoch protection and addr must be in memory (>= Head()).
func (l *Log) Record(addr uint64) RecordRef {
	frame := l.frameFor(l.page(addr))
	off := l.offset(addr) / 8
	return RecordRef{words: frame[off:]}
}

// issueFlushUntil writes log data in [flushIssued, target) to the device as
// one request per page chunk, each straight from its frame: target <=
// safeReadOnly, so nothing stores into the region any more (DESIGN "Pages are
// flushed from their frames").
func (l *Log) issueFlushUntil(target uint64) {
	l.flushMu.Lock()
	from := l.flushIssued
	if target <= from {
		l.flushMu.Unlock()
		return
	}
	l.flushIssued = target
	var segs []*flushSegment
	for from < target {
		end := (l.page(from) + 1) << l.cfg.PageBits
		if end > target {
			end = target
		}
		segs = append(segs, &flushSegment{from: from, to: end, issued: time.Now()})
		from = end
	}
	l.durableMu.Lock()
	l.segments = append(l.segments, segs...)
	l.durableMu.Unlock()
	l.flushMu.Unlock()

	for _, seg := range segs {
		seg := seg
		l.pool.Submit(storage.IORequest{
			Dev: l.cfg.Device, Buf: l.frameRange(seg.from, seg.to), Off: int64(seg.from), Write: true,
			Done: func(_ int, err error) {
				if err != nil {
					// The pool already retried transient errors; what reaches
					// here is permanent. Record it — the durable watermark
					// stalls below this segment, so no commit covering it can
					// ever be announced — and wake waiters so in-flight
					// commits abort cleanly instead of blocking forever.
					l.recordFlushError(seg, err)
					return
				}
				l.completeSegment(seg)
			},
		})
	}
}

// recordFlushError notes a permanent flush failure and wakes durability
// waiters. The failed segment stays pending, pinning the durable watermark
// below it: durability is never claimed for data that did not reach the
// device.
func (l *Log) recordFlushError(seg *flushSegment, err error) {
	l.durableMu.Lock()
	if l.flushErr == nil {
		l.flushErr = fmt.Errorf("hlog: flush [%d,%d) failed: %w", seg.from, seg.to, err)
	}
	l.durableMu.Unlock()
	l.durableCond.Broadcast()
}

// FlushErr reports the first permanent flush failure, if any. Once set, the
// durable watermark can no longer advance past the failed segment and
// commits waiting on it must abort.
func (l *Log) FlushErr() error {
	l.durableMu.Lock()
	defer l.durableMu.Unlock()
	return l.flushErr
}

// completeSegment marks seg done and advances the durable watermark across
// every leading completed segment, waking waiters.
func (l *Log) completeSegment(seg *flushSegment) {
	l.flushSegs.Inc()
	l.flushBytes.Add(seg.to - seg.from)
	lat := time.Since(seg.issued)
	if l.flushNs != nil {
		l.flushNs.Observe(lat)
	}
	l.cfg.Flight.Emit(obs.FlightFlush, 0, 0, "", "",
		seg.to-seg.from, uint64(lat.Nanoseconds()))
	l.durableMu.Lock()
	seg.done = true
	advanced := false
	for len(l.segments) > 0 && l.segments[0].done {
		l.absorbSegment(l.segments[0])
		l.durable.Store(l.segments[0].to)
		l.segments = l.segments[1:]
		advanced = true
	}
	l.durableMu.Unlock()
	if advanced {
		l.durableCond.Broadcast()
	}
}

// absorbSegment feeds a completed flush segment's bytes — the frame's, which
// stays the page's until durable has passed it — into the running per-page CRC
// accumulator, recording a page's checksum when its last byte becomes durable.
// Called under durableMu, in address order.
func (l *Log) absorbSegment(seg *flushSegment) {
	if seg.from != l.crcNext {
		// Accumulation gap (should not happen — segments advance contiguously
		// from the flush origin): restart at this segment, abandoning any
		// partial page.
		l.crcRun = 0
		l.crcTainted = l.offset(seg.from) != 0
		l.crcNext = seg.from
	}
	data := l.frameRange(seg.from, seg.to)
	for len(data) > 0 {
		pageEnd := (l.page(l.crcNext) + 1) << l.cfg.PageBits
		n := pageEnd - l.crcNext
		if n > uint64(len(data)) {
			n = uint64(len(data))
		}
		l.crcRun = crc32.Update(l.crcRun, crcTable, data[:n])
		l.crcNext += n
		data = data[n:]
		if l.crcNext == pageEnd {
			if !l.crcTainted {
				l.pageCRCs[l.page(pageEnd-1)] = l.crcRun
				l.cfg.Flight.Emit(obs.FlightPageCRC, 0, 0, "", "",
					l.page(pageEnd-1), uint64(l.crcRun))
			}
			l.crcRun = 0
			l.crcTainted = false
		}
	}
}

// PageCRC is one page's checksum: CRC32-C over the page's flushed bytes
// ([FirstAddress, pageEnd) for the first page, the full page otherwise).
type PageCRC struct {
	Page uint64 `json:"page"`
	CRC  uint32 `json:"crc"`
}

// PageChecksums returns the checksums of every fully-flushed page this Log
// has observed, sorted by page number. A commit persists them in its commit
// record; recovery verifies the device against them.
func (l *Log) PageChecksums() []PageCRC {
	l.durableMu.Lock()
	out := make([]PageCRC, 0, len(l.pageCRCs))
	for p, c := range l.pageCRCs {
		out = append(out, PageCRC{Page: p, CRC: c})
	}
	l.durableMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Page < out[j].Page })
	return out
}

// invalidatePageCRCs drops checksum entries for pages overlapping [from, to):
// their device bytes are being rewritten out of flush order, so the recorded
// CRCs no longer describe them.
func (l *Log) invalidatePageCRCs(from, to uint64) {
	l.durableMu.Lock()
	for p := l.page(from); p <= l.page(to-1); p++ {
		delete(l.pageCRCs, p)
		if p == l.page(l.crcNext) {
			l.crcTainted = true
		}
	}
	l.durableMu.Unlock()
}

// VerifyPages loads recorded page checksums into the log's checksum table, for
// every page that lies fully below end, and then checks the device contents of
// every such page, eagerly: a page that still mismatches after
// readDevicePage's retries fails recovery of this commit (the caller falls
// back to an older one). A loaded page is verified again whenever it is read
// from the device.
func (l *Log) VerifyPages(crcs []PageCRC, end uint64) error {
	l.durableMu.Lock()
	for _, pc := range crcs {
		if (pc.Page+1)<<l.cfg.PageBits > end {
			continue // page extends past the recovered prefix
		}
		l.pageCRCs[pc.Page] = pc.CRC
	}
	l.durableMu.Unlock()
	buf := make([]byte, l.pageSize)
	for _, pc := range crcs {
		start, stop, _, ok := l.pageCRCFor(pc.Page << l.cfg.PageBits)
		if !ok {
			continue
		}
		if err := l.readDevicePage(start, stop, buf[:stop-start]); err != nil {
			return err
		}
	}
	return nil
}

// ReadRaw copies raw log bytes at logical offset off from the device into p.
// The range [off, off+len(p)) must be durable (below Durable()); this is the
// replication shipper's read primitive for the immutable log prefix.
func (l *Log) ReadRaw(off uint64, p []byte) error {
	if end := off + uint64(len(p)); end > l.durable.Load() {
		return fmt.Errorf("hlog: raw read [%d,%d) beyond durable %d", off, end, l.durable.Load())
	}
	_, err := storage.ReadAtRetry(l.cfg.Device, p, int64(off))
	return err
}

// WaitDurable blocks until all log data below target is durable on the
// device, or until a permanent flush failure makes that impossible (check
// FlushErr / Durable afterwards). The caller must previously have caused a
// flush covering target (e.g. via ShiftReadOnlyTo) or it will block forever.
func (l *Log) WaitDurable(target uint64) {
	l.durableMu.Lock()
	for l.durable.Load() < target && l.flushErr == nil {
		l.durableCond.Wait()
	}
	l.durableMu.Unlock()
}

// ColdRead is the reusable state of one cold-record fetch: its buffers and
// I/O completion are allocated on first use and kept, so reading through the
// same ColdRead again allocates nothing. Not reusable before Done was called.
type ColdRead struct {
	// Done is invoked from an I/O worker with the record (a view over the
	// ColdRead's buffer, valid until its next AsyncRead) or an error.
	Done func(rec RecordRef, err error)

	log   *Log
	addr  uint64
	have  int                    // valid bytes in buf
	buf   []byte                 // device bytes from addr on
	words []uint64               // the record decoded from buf
	onIO  func(n int, err error) // cr.step, bound once
}

// maxReadHint caps the learned cold-read size: a larger record takes the
// second read rather than making every fetch that large.
const maxReadHint = 4096

// AsyncRead fetches the record at addr from the device through cr and invokes
// cr.Done from an I/O worker, modelling FASTER's asynchronous retrieval of
// cold records. It reads the largest record size served so far (clipped to the
// flushed extent) and needs a second read only for a larger record.
func (l *Log) AsyncRead(addr uint64, cr *ColdRead) {
	var one [1]storage.IORequest
	l.SubmitReads(l.QueueRead(one[:0], addr, cr))
}

// QueueRead is AsyncRead with the hand-off to the I/O pool left to the caller:
// the fetch's first device read is appended to q, and SubmitReads starts every
// read queued so far with one pool hand-off.
func (l *Log) QueueRead(q []storage.IORequest, addr uint64, cr *ColdRead) []storage.IORequest {
	l.asyncReads.Inc()
	if cr.onIO == nil {
		cr.onIO = cr.step
	}
	cr.log, cr.addr, cr.have = l, addr, 0
	upto := uint64(l.readHint.Load())
	if flushed := l.durable.Load() - addr; upto > flushed {
		upto = flushed
	}
	return append(q, cr.request(max(int(upto), 16)))
}

// SubmitReads hands the reads queued by QueueRead to the I/O pool. The pool
// copies them; q may be reused once this returns.
func (l *Log) SubmitReads(q []storage.IORequest) {
	if len(q) > 0 {
		l.pool.SubmitRun(q)
	}
}

// request is the device read extending the valid bytes to upto.
func (cr *ColdRead) request(upto int) storage.IORequest {
	if cap(cr.buf) < upto {
		cr.buf = append(make([]byte, 0, upto), cr.buf[:cr.have]...)
	}
	cr.buf = cr.buf[:upto]
	return storage.IORequest{
		Dev: cr.log.cfg.Device, Buf: cr.buf[cr.have:], Off: int64(cr.addr) + int64(cr.have),
		Done: cr.onIO,
	}
}

// step runs on an I/O worker after each read: deliver the record once all of
// it is there, otherwise read exactly what is missing (the record is larger
// than the hint, or the read came back short).
func (cr *ColdRead) step(n int, err error) {
	cr.have += n
	need := 8
	if cr.have >= need {
		need = sizeFromBytes(cr.buf[:cr.have])
	}
	switch {
	case cr.have >= need:
		if hint := &cr.log.readHint; need <= maxReadHint && uint32(need) > hint.Load() {
			hint.Store(uint32(need)) // racing stores: any served size is a fair hint
		}
		rec := bytesToRecord(cr.buf[:need], cr.words)
		cr.words = rec.words
		cr.Done(rec, nil)
	case err != nil && n == 0:
		cr.Done(RecordRef{}, err)
	default:
		cr.log.pool.Submit(cr.request(need))
	}
}

// ReadRecordSync synchronously reads a record from the device (recovery
// path). Transient device errors are retried.
func (l *Log) ReadRecordSync(addr uint64) (RecordRef, error) {
	hdr := make([]byte, 16) // no record is shorter
	if _, err := storage.ReadAtRetry(l.cfg.Device, hdr, int64(addr)); err != nil {
		return RecordRef{}, err
	}
	buf := append(hdr, make([]byte, sizeFromBytes(hdr)-16)...)
	if len(buf) > 16 {
		if _, err := storage.ReadAtRetry(l.cfg.Device, buf[16:], int64(addr)+16); err != nil {
			return RecordRef{}, err
		}
	}
	return bytesToRecord(buf, nil), nil
}

// pageCRCFor looks up addr's page checksum; ok is false when the page has no
// recorded CRC (still mutable, or its flushed history was not observed).
func (l *Log) pageCRCFor(addr uint64) (start, stop uint64, crc uint32, ok bool) {
	page := l.page(addr)
	l.durableMu.Lock()
	crc, ok = l.pageCRCs[page]
	l.durableMu.Unlock()
	if !ok {
		return 0, 0, 0, false
	}
	start = page << l.cfg.PageBits
	if start < FirstAddress {
		start = FirstAddress
	}
	return start, (page + 1) << l.cfg.PageBits, crc, true
}

// bytesToRecord decodes b into words, or into a new array when b needs more.
func bytesToRecord(b []byte, words []uint64) RecordRef {
	if cap(words) < len(b)/8 {
		words = make([]uint64, len(b)/8)
	}
	words = words[:len(b)/8]
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return RecordRef{words: words}
}

// Scan delivers every record that starts in [from, to), whole and in address
// order, to fn; fn returning false stops the scan. It reads the log a page at a
// time (see readPage) and walks the records inside that copy, so rec is a view
// over a buffer the scan reuses — valid only for the duration of the call — and
// scanning is safe against concurrent eviction. A page with a recorded checksum
// is read from its start, so that a device read of it can be verified; any
// other from where the scan stands to the page's end, the tail, or past to only
// up to safe-read-only (sessions may write above it). The range must be
// immutable (below safe-read-only) or the log offline, as for recovery.
func (l *Log) Scan(from, to uint64, fn func(addr uint64, rec RecordRef) bool) error {
	var buf []byte
	var words []uint64
	g := l.cfg.Epochs.Acquire()
	defer g.Release()
	for addr := from; addr < to; {
		pageEnd := (l.page(addr) + 1) << l.cfg.PageBits
		start, stop := addr, min(pageEnd, l.tail.Load(), max(to, l.safeReadOnly.Load()))
		if s, _, _, ok := l.pageCRCFor(addr); ok {
			start = s
		}
		if stop <= addr {
			return nil // the log ends here
		}
		if n := int(stop - start); cap(buf) < n {
			buf = make([]byte, n)
		}
		buf = buf[:stop-start]
		if err := l.readPage(g, start, stop, buf); err != nil {
			return fmt.Errorf("hlog: scan: %w", err)
		}
		// Stop at the page's padding: a zero header means the rest of the page
		// was never written.
		for addr < to && addr < stop {
			rec := buf[addr-start:]
			if binary.LittleEndian.Uint64(rec) == 0 {
				break
			}
			size := uint64(sizeFromBytes(rec))
			if size > uint64(len(rec)) {
				return fmt.Errorf("hlog: scan: record at %d (%d bytes) runs past %d, the end of its page or of the log", addr, size, stop)
			}
			ref := bytesToRecord(rec[:size], words)
			words = ref.words
			if !fn(addr, ref) {
				return nil
			}
			addr += size
		}
		addr = pageEnd
	}
	return nil
}

// readPage materializes [from, to), within one page, into out: from the device
// if the span lies below the head, else from the frame (the device may hold
// less of a page the head is inside of; the frame is not reused before the head
// passes its end), under g's protection. g is suspended on return.
func (l *Log) readPage(g *epoch.Guard, from, to uint64, out []byte) error {
	g.Refresh()
	if to <= l.head.Load() {
		g.Suspend()
		return l.readDevicePage(from, to, out)
	}
	frame := l.frameFor(l.page(from))
	for a := from; a < to; a += 8 {
		binary.LittleEndian.PutUint64(out[a-from:], atomic.LoadUint64(&frame[l.offset(a)/8]))
	}
	g.Suspend()
	return nil
}

// readDevicePage reads [from, to), which lies within one page, from the device
// into out; when the span is the whole of a page with a recorded checksum the
// bytes are checked against it. A failed read or check is retried, three
// attempts in all, which absorbs transient faults and bit flips on the read
// path.
func (l *Log) readDevicePage(from, to uint64, out []byte) error {
	start, stop, want, verify := l.pageCRCFor(from)
	verify = verify && start == from && stop == to
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if _, err = storage.ReadAtRetry(l.cfg.Device, out, int64(from)); err != nil {
			continue
		}
		if !verify {
			return nil
		}
		got := crc32.Checksum(out, crcTable)
		if got == want {
			return nil
		}
		err = fmt.Errorf("hlog: page %d checksum mismatch (stored %08x, device %08x)", l.page(from), want, got)
	}
	return err
}

// WriteRange writes the log's bytes in [from, to) to w a page at a time through
// readPage: the snapshot capture (App. D), a page of memory however large. The
// caller waits out an epoch after reading to, so every record below is whole.
func (l *Log) WriteRange(w io.Writer, from, to uint64) error {
	g := l.cfg.Epochs.Acquire()
	defer g.Release()
	buf := make([]byte, min(l.pageSize, to-from))
	for addr, end := from, from; addr < to; addr = end {
		end = min((l.page(addr)+1)<<l.cfg.PageBits, to)
		if err := l.readPage(g, addr, end, buf[:end-addr]); err != nil {
			return fmt.Errorf("hlog: snapshot: %w", err)
		}
		if _, err := w.Write(buf[:end-addr]); err != nil {
			return err
		}
	}
	return nil
}

// RestoreRange writes raw log bytes at their logical offsets into the device:
// a snapshot commit's capture slotting back into the main log address space
// at recovery, and the bytes a primary ships to a replica. Everything that
// writes the device outside flush order goes through here, because checksum
// entries for the touched pages have to go: they describe the bytes that were
// there, and every later device read of the page is checked against them.
func (l *Log) RestoreRange(from uint64, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	l.invalidatePageCRCs(from, from+uint64(len(data)))
	_, err := storage.WriteAtRetry(l.cfg.Device, data, int64(from))
	return err
}

// RecoverTo reinitializes the in-memory state of a freshly created Log from
// the device: the tail is set to end, the head is placed so the trailing
// portion of the log is resident, and those pages are loaded from the device.
// Offsets are set so the entire recovered prefix is immutable (post-commit
// updates go through read-copy-update, matching fold-over semantics).
func (l *Log) RecoverTo(end uint64) error {
	if end < FirstAddress {
		end = FirstAddress
	}
	head := uint64(FirstAddress)
	endPage := l.page(end)
	if endPage+1 > uint64(len(l.frames)-1) {
		head = (endPage + 1 - uint64(len(l.frames)-1)) << l.cfg.PageBits
	}
	for p := l.page(head); p <= endPage; p++ {
		l.frames[p%uint64(len(l.frames))] = make([]uint64, l.pageSize/8)
		start := max(p<<l.cfg.PageBits, FirstAddress)
		stop := min((p+1)<<l.cfg.PageBits, end)
		if stop <= start {
			continue
		}
		if err := l.readDevicePage(start, stop, l.frameRange(start, stop)); err != nil {
			return fmt.Errorf("hlog: recover: %w", err)
		}
	}
	l.tail.Store(end)
	l.readOnly.Store(end)
	l.safeReadOnly.Store(end)
	l.opened.Store(endPage)
	l.head.Store(head)
	l.safeHead.Store(head)
	l.flushMu.Lock()
	l.flushIssued = end
	l.flushMu.Unlock()
	l.durable.Store(end)
	l.durableMu.Lock()
	l.crcNext = end
	l.crcRun = 0
	l.crcTainted = l.offset(end) != 0 // mid-page landing: that page gets no CRC
	l.durableMu.Unlock()
	return nil
}

// PersistInvalid sets the invalid bit on the record at addr both in memory
// (when resident) and on the device, so post-CPR-point records stay dead
// across later evictions and re-reads. Used only by single-threaded
// recovery; the record must already be on the device (addr < Durable()).
func (l *Log) PersistInvalid(addr uint64) error {
	var hdr uint64
	if l.InMemory(addr) {
		rec := l.Record(addr)
		rec.SetInvalid()
		hdr = rec.Header()
	} else {
		var buf [8]byte
		if _, err := storage.ReadAtRetry(l.cfg.Device, buf[:], int64(addr)); err != nil {
			return err
		}
		hdr = binary.LittleEndian.Uint64(buf[:]) | invalidBit
	}
	l.invalidatePageCRCs(addr, addr+8)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], hdr)
	_, err := storage.WriteAtRetry(l.cfg.Device, buf[:], int64(addr))
	return err
}
