package inlog

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// FsyncPolicy selects when appended records become durable (and therefore
// ackable — an offset is acked only once WaitDurable covers it). Under every
// policy the records appended since the previous fsync are written as one
// group frame by one WriteAt and made durable by one Sync; the policy only
// decides when a group is cut.
type FsyncPolicy int

const (
	// FsyncAlways commits whenever anything is pending: the group is whatever
	// accumulated while the previous group was on the device, so a lone
	// appender gets one fsync per record and concurrent ones share theirs.
	FsyncAlways FsyncPolicy = iota
	// FsyncBatch commits once BatchRecords records are pending, and every
	// BatchInterval so a trickle of appends is never stranded.
	FsyncBatch
	// FsyncManual commits only on explicit Sync calls (tests and the crash
	// harness, which place fsync boundaries by hand).
	FsyncManual
)

// String implements fmt.Stringer (bench rows key on it).
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncBatch:
		return "batch"
	case FsyncManual:
		return "manual"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParseFsyncPolicy parses the flag spelling used by cprserver and cprbench.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "batch":
		return FsyncBatch, nil
	case "manual":
		return FsyncManual, nil
	}
	return 0, fmt.Errorf("inlog: unknown fsync policy %q (want always|batch|manual)", s)
}

// Config configures a Log.
type Config struct {
	// Segments is the backing segment store (required).
	Segments SegmentStore
	// SegmentBytes is the roll threshold: once the active segment reaches
	// this many bytes, the next group opens a new segment. Default 1 MiB.
	SegmentBytes int64
	// Fsync selects the durability policy. Default FsyncAlways.
	Fsync FsyncPolicy
	// BatchRecords is the pending-record count that triggers a commit under
	// FsyncBatch. Default 64.
	BatchRecords int
	// BatchInterval bounds how long a record can sit unsynced under
	// FsyncBatch. Default 2ms; 0 keeps the default, negative disables the
	// interval trigger.
	BatchInterval time.Duration
	// WrapDevice, when set, wraps every segment device as it is opened —
	// the layering hook for fault injection (storage.NewFaultDevice) and the
	// page-cache crash model (storage.NewSyncBufferDevice).
	WrapDevice func(storage.Device) (storage.Device, error)
	// Metrics receives inlog_* metrics (default: a nop registry).
	Metrics *obs.Registry
	// Flight receives inlog-append/fsync/trim events (nil-safe).
	Flight *obs.FlightRecorder
}

func (c *Config) fill() error {
	if c.Segments == nil {
		return errors.New("inlog: Config.Segments is required")
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 1 << 20
	}
	if c.BatchRecords <= 0 {
		c.BatchRecords = 64
	}
	if c.BatchInterval == 0 {
		c.BatchInterval = 2 * time.Millisecond
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewNop()
	}
	return nil
}

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("inlog: log closed")

// commitRetryDelay is how long the background committer waits before it
// retries a group whose write or fsync failed.
const commitRetryDelay = 10 * time.Millisecond

// segment is one open segment: its device plus an in-memory index of its
// groups (rebuilt by scanning on open).
type segment struct {
	base  uint64 // logical offset of the first record
	end   uint64 // one past the last record
	dev   storage.Device
	size  int64      // valid byte extent (stale bytes beyond are ignored)
	index []groupRef // one entry per group, ascending
}

// group is one of the log's two frame buffers: records are encoded into the
// open one while the sealed one is on the device.
type group struct {
	frame []byte // frameHeader reserved bytes, then the records' encodings
	base  uint64 // logical offset of the first record
	count int
}

// reset empties the buffer for a group whose first record will be base.
func (g *group) reset(base uint64) {
	var header [frameHeader]byte // sealFrame fills it in
	g.frame, g.base, g.count = append(g.frame[:0], header[:]...), base, 0
}

// Log is the durable segmented ingestion log. Logical offsets are dense
// record numbers (0, 1, 2, ...): offset arithmetic is what lets a CPR
// commit's session serial be converted to a log watermark by pure linear
// math (see Pump). All methods are safe for concurrent use.
//
// Append only assigns the offset and encodes the record into the open group;
// all I/O happens in the commit step (commitLocked), which runs with l.mu
// released, one at a time: it writes the pending group as one frame, fsyncs,
// then advances the durable offset. Under FsyncAlways and FsyncBatch a
// background goroutine runs it; Sync runs it in the caller.
type Log struct {
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond // broadcast when durable advances, a commit step ends, and on close
	segs []*segment // ascending base; the last is the active segment
	next uint64     // next logical offset to assign
	// durable: every record with offset < durable is fsynced. Only a
	// successful group commit advances it, groups commit in offset order,
	// and a record is on the device only as part of a committed group — so
	// the durable prefix is exactly what a reader (and a crash) can see.
	durable uint64
	open    group // receives appends
	sealed  group // count > 0: cut from open, on the device or awaiting a retry
	// committing is set while a commit step runs with mu released; it owns
	// sealed and the tail of the active segment until it clears the flag.
	committing bool
	err        error // why the last commit step failed; nil once one succeeds
	closed     bool

	kick chan struct{} // wakes the background committer; capacity 1, sends never block
	stop chan struct{}
	wg   sync.WaitGroup

	appends      *obs.Counter
	fsyncs       *obs.Counter
	trimmedBytes *obs.Counter
	flight       *obs.FlightRecorder
}

// Open opens (or creates) the log over cfg.Segments. Existing segments are
// scanned in order: each group must parse with the expected logical offset
// and a valid CRC. The first failure — the torn tail of a crashed group
// write — logically truncates the log there: the remainder of that segment
// is ignored (later groups overwrite it) and any later segments are removed.
// A group is acked only after the fsync that follows its write, and groups
// are written in order, so nothing at or past the first invalid frame can
// have been acked: truncation never loses an acked record. A segment in the
// old per-record format fails Open with ErrOldFormat and is left untouched.
func Open(cfg Config) (*Log, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	l := &Log{
		cfg:          cfg,
		appends:      cfg.Metrics.Counter("inlog_appends"),
		fsyncs:       cfg.Metrics.Counter("inlog_fsyncs"),
		trimmedBytes: cfg.Metrics.Counter("inlog_trimmed_bytes"),
		flight:       cfg.Flight,
	}
	l.cond = sync.NewCond(&l.mu)

	bases, err := cfg.Segments.List()
	if err != nil {
		return nil, fmt.Errorf("inlog: list segments: %w", err)
	}
	torn := false
	for _, base := range bases {
		if torn || (len(l.segs) > 0 && l.segs[len(l.segs)-1].end != base) {
			// Everything after a torn tail (or a continuity break) was never
			// acked; drop it.
			if err := cfg.Segments.Remove(base); err != nil {
				l.closeSegs()
				return nil, fmt.Errorf("inlog: drop stale segment %d: %w", base, err)
			}
			continue
		}
		seg, segTorn, err := l.openSegment(base)
		if err != nil {
			l.closeSegs()
			return nil, err
		}
		l.segs = append(l.segs, seg)
		torn = segTorn
	}
	if len(l.segs) == 0 {
		seg, _, err := l.openSegment(0)
		if err != nil {
			return nil, err
		}
		l.segs = append(l.segs, seg)
	}
	l.next = l.segs[len(l.segs)-1].end
	// Everything that survived the scan is on the medium by definition.
	l.durable = l.next
	l.open.reset(l.next)

	cfg.Metrics.GaugeFunc("inlog_tail", func() int64 { return int64(l.Tail()) })
	cfg.Metrics.SetHelp("inlog_tail",
		"Ingestion log append frontier (record offset); tail above inlog_durable means appends await fsync (the health engine's inlog-fsync-stalled signal).")
	cfg.Metrics.GaugeFunc("inlog_durable", func() int64 { return int64(l.Durable()) })
	cfg.Metrics.SetHelp("inlog_durable",
		"Ingestion log fsync frontier (record offset): every record below it survives a crash.")

	if cfg.Fsync != FsyncManual {
		l.kick = make(chan struct{}, 1)
		l.stop = make(chan struct{})
		l.wg.Add(1)
		go l.commitLoop()
	}
	return l, nil
}

// openSegment opens and scans one segment, returning whether its tail was
// torn (bytes past the last valid group).
func (l *Log) openSegment(base uint64) (*segment, bool, error) {
	dev, err := l.cfg.Segments.Open(base)
	if err != nil {
		return nil, false, fmt.Errorf("inlog: open segment %d: %w", base, err)
	}
	if l.cfg.WrapDevice != nil {
		if dev, err = l.cfg.WrapDevice(dev); err != nil {
			return nil, false, fmt.Errorf("inlog: wrap segment %d: %w", base, err)
		}
	}
	seg := &segment{base: base, end: base, dev: dev}
	sz := dev.Size()
	if sz == 0 {
		return seg, false, nil
	}
	buf := make([]byte, sz)
	if _, err := dev.ReadAt(buf, 0); err != nil {
		dev.Close()
		return nil, false, fmt.Errorf("inlog: scan segment %d: %w", base, err)
	}
	seg.index, seg.end, seg.size, err = scanFrames(buf, base)
	if errors.Is(err, ErrOldFormat) {
		dev.Close()
		return nil, false, fmt.Errorf("%w: segment %d, byte %d", err, base, seg.size)
	}
	return seg, err != nil, nil
}

func (l *Log) closeSegs() {
	for _, seg := range l.segs {
		seg.dev.Close()
	}
}

// Append appends one record and returns its logical offset. It does no I/O:
// the record is buffered into the open group, and the offset must not be
// acked to a client until WaitDurable(offset) returns (or Durable() covers
// it). While the last commit step's failure stands, Append returns it
// instead of buffering more.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	g := &l.open
	if len(g.frame)+len(payload) > maxGroupBytes {
		return 0, fmt.Errorf("inlog: %d bytes already await fsync", len(g.frame))
	}
	offset := l.next
	g.frame = appendRecord(g.frame, payload)
	g.count++
	l.next = offset + 1
	l.appends.Inc()
	// Wake the committer on the append that makes a commit due; it re-checks
	// under mu after every step, so later appends need not repeat the signal.
	if (l.cfg.Fsync == FsyncAlways && g.count == 1) ||
		(l.cfg.Fsync == FsyncBatch && g.count == l.cfg.BatchRecords) {
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
	return offset, nil
}

// commitLoop is the background committer of FsyncAlways and FsyncBatch.
func (l *Log) commitLoop() {
	defer l.wg.Done()
	var tick <-chan time.Time
	if l.cfg.Fsync == FsyncBatch && l.cfg.BatchInterval > 0 {
		t := time.NewTicker(l.cfg.BatchInterval)
		defer t.Stop()
		tick = t.C
	}
	var retry <-chan time.Time // set after a failed step
	for {
		// flush: commit whatever is pending, however little.
		flush := l.cfg.Fsync == FsyncAlways
		select {
		case <-l.stop:
			return
		case <-l.kick:
		case <-tick:
			flush = true
		case <-retry:
			flush = true
		}
		l.mu.Lock()
		for !l.closed {
			pending := l.sealed.count + l.open.count
			if pending == 0 || (!flush && pending < l.cfg.BatchRecords) {
				break
			}
			if l.commitLocked() != nil {
				retry = time.After(commitRetryDelay) // appenders see l.err meanwhile
				break
			}
			flush = l.cfg.Fsync == FsyncAlways
		}
		l.mu.Unlock()
	}
}

// commitLocked runs one commit step: it cuts the open group (or takes up a
// group whose previous step failed), writes it to the active segment as one
// frame with one WriteAt, fsyncs, and publishes it — index entry, segment
// extent, durable offset. Called with l.mu held and returns with it held,
// but the I/O runs with l.mu released so appenders fill the other buffer
// meanwhile. Steps are serialized by l.committing. A failed step leaves the
// group sealed; the next step rewrites it at the same position.
func (l *Log) commitLocked() error {
	for l.committing {
		l.cond.Wait()
	}
	if l.closed {
		return ErrClosed
	}
	if l.sealed.count == 0 {
		if l.open.count == 0 {
			return nil
		}
		l.sealed, l.open = l.open, l.sealed
		l.open.reset(l.next)
	}
	g := &l.sealed
	seg := l.segs[len(l.segs)-1]
	if seg.size >= l.cfg.SegmentBytes && len(seg.index) > 0 {
		// A group never spans segments: it opens the next one whole.
		rolled, _, err := l.openSegment(g.base)
		if err != nil {
			l.err = err
			return err
		}
		l.segs = append(l.segs, rolled)
		seg = rolled
	}
	pos := seg.size
	l.committing = true
	l.mu.Unlock()

	sealFrame(g.frame, g.base, g.count)
	var d time.Duration
	_, err := seg.dev.WriteAt(g.frame, pos)
	if err == nil {
		start := time.Now()
		err = seg.dev.Sync()
		d = time.Since(start)
	}

	l.mu.Lock()
	l.committing = false
	l.cond.Broadcast()
	if err != nil {
		l.err = fmt.Errorf("inlog: commit group [%d, %d) to segment %d: %w",
			g.base, g.base+uint64(g.count), seg.base, err)
		return l.err
	}
	l.err = nil
	seg.index = append(seg.index, groupRef{first: g.base, pos: pos})
	seg.size = pos + int64(len(g.frame))
	seg.end = g.base + uint64(g.count)
	l.durable = seg.end
	l.fsyncs.Inc()
	l.flight.Emit(obs.FlightInlogAppend, -1, 0, "", "", g.base, uint64(g.count))
	l.flight.Emit(obs.FlightInlogFsync, -1, 0, "", "", l.durable, uint64(d.Nanoseconds()))
	g.count = 0
	return nil
}

// Sync makes every record appended before the call durable. It is the whole
// of the FsyncManual policy and a barrier under the others.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	for target := l.next; l.durable < target; {
		if err := l.commitLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Tail returns the next offset to be assigned (one past the last appended
// record).
func (l *Log) Tail() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Durable returns the durability frontier: every record with offset <
// Durable() is fsynced, readable and safe to ack.
func (l *Log) Durable() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Start returns the logical offset of the oldest retained record (records
// below it have been trimmed).
func (l *Log) Start() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0].base
}

// WaitDurable blocks until the record at offset is durable (Durable() >
// offset) — the ack gate. Returns ErrClosed if the log closes first.
func (l *Log) WaitDurable(offset uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durable <= offset && !l.closed {
		l.cond.Wait()
	}
	if l.durable > offset {
		return nil
	}
	return ErrClosed
}

// ReadGroup reads the durable group that holds the record at offset with one
// device read into buf (grown when too small, and returned for reuse), and
// returns it positioned at that record. The record must be durable (offset <
// Durable()) and not trimmed (offset >= Start()). The group's payloads alias
// the returned buffer.
func (l *Log) ReadGroup(offset uint64, buf []byte) (Group, []byte, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return Group{}, buf, ErrClosed
	}
	seg := l.findSegment(offset)
	if seg == nil {
		start, durable := l.segs[0].base, l.durable
		l.mu.Unlock()
		return Group{}, buf, fmt.Errorf("inlog: offset %d outside the durable log [%d, %d)", offset, start, durable)
	}
	// The last group whose first record is at or below offset.
	i, found := slices.BinarySearchFunc(seg.index, offset,
		func(r groupRef, o uint64) int { return cmp.Compare(r.first, o) })
	if !found {
		i--
	}
	ref, limit, dev := seg.index[i], seg.size, seg.dev
	if i+1 < len(seg.index) {
		limit = seg.index[i+1].pos
	}
	l.mu.Unlock()

	// Read outside mu: published groups are immutable, and a device closed
	// under the read (Trim, Close) fails it rather than tearing it.
	n := int(limit - ref.pos)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := dev.ReadAt(buf, ref.pos); err != nil {
		return Group{}, buf, fmt.Errorf("inlog: read group at offset %d: %w", ref.first, err)
	}
	g, _, err := parseFrame(buf, ref.first)
	if err != nil {
		return Group{}, buf, fmt.Errorf("inlog: group at offset %d failed verification: %w", ref.first, storage.ErrCorruptArtifact)
	}
	for g.next < offset {
		g.Next()
	}
	return g, buf, nil
}

// Read returns the payload of the durable record at the given logical
// offset (a convenience over ReadGroup for tools and tests).
func (l *Log) Read(offset uint64) ([]byte, error) {
	g, _, err := l.ReadGroup(offset, nil)
	if err != nil {
		return nil, err
	}
	payload, _ := g.Next()
	return payload, nil
}

func (l *Log) findSegment(offset uint64) *segment {
	for i := len(l.segs) - 1; i >= 0; i-- {
		seg := l.segs[i]
		if offset >= seg.base && offset < seg.end {
			return seg
		}
	}
	return nil
}

// Trim removes segments whose every record lies below the given offset —
// the committed prefix made durable by a CPR commit's watermark. The active
// segment is never removed, so the log always retains its offset anchor.
// Returns the number of bytes physically deleted.
func (l *Log) Trim(before uint64) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	var removed int64
	for len(l.segs) > 1 && l.segs[0].end <= before {
		seg := l.segs[0]
		seg.dev.Close()
		if err := l.cfg.Segments.Remove(seg.base); err != nil {
			return removed, fmt.Errorf("inlog: trim segment %d: %w", seg.base, err)
		}
		removed += seg.size
		l.segs = l.segs[1:]
	}
	if removed > 0 {
		l.trimmedBytes.Add(uint64(removed))
		l.flight.Emit(obs.FlightInlogTrim, -1, 0, "", "", before, uint64(removed))
	}
	return removed, nil
}

// SegmentInfo describes one live segment.
type SegmentInfo struct {
	Base    uint64 `json:"base"`    // logical offset of the first record
	End     uint64 `json:"end"`     // one past the last durable record
	Bytes   int64  `json:"bytes"`   // valid byte extent
	Records int    `json:"records"` // durable record count
	Groups  int    `json:"groups"`  // group frames holding them
}

// Segments returns a snapshot of the live segments in ascending base order.
func (l *Log) Segments() []SegmentInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SegmentInfo, len(l.segs))
	for i, seg := range l.segs {
		out[i] = SegmentInfo{Base: seg.base, End: seg.end, Bytes: seg.size,
			Records: int(seg.end - seg.base), Groups: len(seg.index)}
	}
	return out
}

// Close commits outstanding appends (clean shutdown — the crash paths never
// call Close; they clone the segment store instead), stops the committer and
// closes every segment device. Blocked WaitDurable callers return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.syncLocked() // returns with no commit step in flight
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		l.wg.Wait()
	}
	l.mu.Lock()
	l.closeSegs()
	l.mu.Unlock()
	return err
}
