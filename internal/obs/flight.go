package obs

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// The flight recorder is the causal counterpart to the metrics registry: a
// lock-free, fixed-size set of ring buffers of structured binary events
// covering the full lifecycle of a CPR commit — epoch bumps, per-shard phase
// transitions, HybridLog flushes and page-CRC records, artifact writes and
// retries, fault injections, replication ship/install/promote, recovery
// verdicts. Every event is stamped with the commit token, CPR version, shard
// and session it belongs to, so one commit's end-to-end timeline can be
// reassembled across all layers (`fasterctl flight <token>`). It is the only
// place such an event is written: the phase timeline (tracer.go) and the
// replication spans of a trace dump (reqtrace.go) are computed from it.
//
// Emit is allocation-free and nil-receiver-safe, like Counter.Add: the hot
// path is one clock read, one atomic ticket fetch-add and a dozen atomic word
// stores into a preallocated slot. When a ring wraps, the oldest events are
// dropped (and counted) — never torn: each slot is guarded by a per-slot
// seqlock, so a reader either observes a fully-written event or skips the
// slot.

// FlightKind identifies the class of a flight-recorder event.
type FlightKind uint8

// Flight event kinds. The names (see String) are a stable interface: the
// crash-dump CI job and the causality tests grep for them.
const (
	FlightNone FlightKind = iota
	// FlightEpochBump: the epoch counter was incremented. Arg1 is the epoch
	// that was bumped.
	FlightEpochBump
	// FlightEpochDrain: a bump's trigger action fired after every registered
	// thread refreshed. Arg1 is the drained epoch, Arg2 the drain latency (ns).
	FlightEpochDrain
	// FlightPhase: a checkpoint state-machine transition. Arg1/Arg2 are the
	// from/to phase codes (see FlightPhaseName).
	FlightPhase
	// FlightAckPrepare: a session acknowledged the prepare phase. Arg1 is the
	// session's serial at the crossing.
	FlightAckPrepare
	// FlightDemarcate: a session fixed its CPR point. Arg1 is the point.
	FlightDemarcate
	// FlightDrop: a session left an active commit. Arg1 is its serial.
	FlightDrop
	// FlightCommitStart: a shard's commit state machine left rest.
	FlightCommitStart
	// FlightPersistDone: this shard's capture (log, index and snapshot blobs)
	// is durable; the commit is not — that is the artifact-write of its
	// record, cpr-manifest-<token>, on the store lane. Arg1 is the bytes
	// written.
	FlightPersistDone
	// FlightCommitDone: the commit completed successfully. Arg1 is the total
	// bytes written.
	FlightCommitDone
	// FlightCommitFail: the commit aborted with an error.
	FlightCommitFail
	// FlightCommitAnnounced: the replication primary announced the commit to
	// a replica (only after every artifact shipped).
	FlightCommitAnnounced
	// FlightFlush: a HybridLog flush segment became durable. Arg1 is the
	// segment bytes, Arg2 the submit-to-durable latency (ns).
	FlightFlush
	// FlightPageCRC: a fully-flushed log page's checksum was recorded.
	// Arg1 is the page number, Arg2 the CRC32-C value.
	FlightPageCRC
	// FlightArtifactWrite: a checkpoint artifact was written inside the
	// checksum envelope. Token is the artifact name, Arg1 the payload bytes.
	FlightArtifactWrite
	// FlightArtifactRetry: a transient fault made an artifact write retry.
	// Token is the artifact name, Arg1 the attempt number that failed.
	FlightArtifactRetry
	// FlightFaultInjected: the fault injector fired. Arg1 is the fault class
	// (see FlightFaultName).
	FlightFaultInjected
	// FlightCrashPoint: a named crash-point callback fired. Token is the
	// point name (possibly truncated).
	FlightCrashPoint
	// FlightReplShip: the primary finished shipping a commit's artifacts to a
	// replica. Arg1 is the bytes shipped, Arg2 how long the shipping took (ns).
	FlightReplShip
	// FlightReplInstall: a replica atomically installed a shipped commit.
	FlightReplInstall
	// FlightReplPromote: a replica promoted itself to primary.
	FlightReplPromote
	// FlightRecoverVerdict: recovery accepted a commit candidate (Arg1 = 1).
	FlightRecoverVerdict
	// FlightRecoverFallback: recovery rejected a commit candidate as
	// unverifiable and fell back to an older one.
	FlightRecoverFallback
	// FlightInlogAppend: one commit step of the ingestion log wrote a group of
	// appended records to the active segment — one event per group, not per
	// record, so ingest traffic does not wipe the rings. Arg1 is the group's
	// first offset, Arg2 its record count.
	FlightInlogAppend
	// FlightInlogFsync: the ingestion log fsynced its active segment,
	// advancing the durable (ackable) frontier. Arg1 is the durable offset
	// after the sync, Arg2 the fsync latency (ns).
	FlightInlogFsync
	// FlightInlogApply: the apply pump drained ingestion-log records into its
	// FASTER session. Arg1 is the next-to-apply offset after the drain, Arg2
	// the records applied in this drain.
	FlightInlogApply
	// FlightInlogWatermark: the pump handed a commit its watermark, a section
	// of the commit record. Token is the commit token, Arg1 the watermark
	// offset, Arg2 the session serial it anchors.
	FlightInlogWatermark
	// FlightInlogTrim: segments wholly below the commit watermark were
	// physically deleted. Arg1 is the trim offset, Arg2 the bytes removed.
	FlightInlogTrim
	// FlightInlogReplay: recovery replayed the ingestion-log suffix above the
	// recovered watermark. Arg1 is the replay start offset, Arg2 the records
	// replayed.
	FlightInlogReplay
	// Two numbers stay reserved for kinds that are gone (instant restore's
	// warm-bucket and sweep): numbering the kinds after them anew would make
	// a dump written before decode those kinds' numbers as others.
	_
	_
	// FlightHealthFire: a health-engine detector crossed its hysteresis bound
	// and started firing. Token is the detector name, Arg1 the consecutive
	// bad samples, Arg2 the incident bundle sequence (0 = no bundle written).
	FlightHealthFire
	// FlightHealthClear: a firing detector saw enough good samples to clear.
	// Token is the detector name, Arg1 the samples it had been firing for.
	FlightHealthClear

	numFlightKinds
)

var flightKindNames = [numFlightKinds]string{
	FlightNone:            "none",
	FlightEpochBump:       "epoch-bump",
	FlightEpochDrain:      "epoch-drain",
	FlightPhase:           "phase",
	FlightAckPrepare:      "ack-prepare",
	FlightDemarcate:       "demarcate",
	FlightDrop:            "drop",
	FlightCommitStart:     "commit-start",
	FlightPersistDone:     "persist-done",
	FlightCommitDone:      "commit-done",
	FlightCommitFail:      "commit-fail",
	FlightCommitAnnounced: "commit-announced",
	FlightFlush:           "flush",
	FlightPageCRC:         "page-crc",
	FlightArtifactWrite:   "artifact-write",
	FlightArtifactRetry:   "artifact-retry",
	FlightFaultInjected:   "fault-injected",
	FlightCrashPoint:      "crash-point",
	FlightReplShip:        "repl-ship",
	FlightReplInstall:     "repl-install",
	FlightReplPromote:     "repl-promote",
	FlightRecoverVerdict:  "recover-verdict",
	FlightRecoverFallback: "recover-fallback",
	FlightInlogAppend:     "inlog-append",
	FlightInlogFsync:      "inlog-fsync",
	FlightInlogApply:      "inlog-apply",
	FlightInlogWatermark:  "inlog-watermark",
	FlightInlogTrim:       "inlog-trim",
	FlightInlogReplay:     "inlog-replay",
	FlightHealthFire:      "health-fire",
	FlightHealthClear:     "health-clear",
}

var flightKindByName = func() map[string]FlightKind {
	m := make(map[string]FlightKind, numFlightKinds)
	for k, n := range flightKindNames {
		if n != "" {
			m[n] = FlightKind(k)
		}
	}
	return m
}()

// String implements fmt.Stringer.
func (k FlightKind) String() string {
	if int(k) < len(flightKindNames) && flightKindNames[k] != "" {
		return flightKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its stable name.
func (k FlightKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes either the stable name or a bare number.
func (k *FlightKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		if v, ok := flightKindByName[s]; ok {
			*k = v
			return nil
		}
		return fmt.Errorf("obs: unknown flight kind %q", s)
	}
	var n uint8
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*k = FlightKind(n)
	return nil
}

// FlightPhaseName names the checkpoint phase codes carried in FlightPhase
// events (mirrors faster.Phase and txdb's state machine; kept here so the
// decoder has no dependency on either).
func FlightPhaseName(code uint64) string {
	switch code {
	case 0:
		return "rest"
	case 1:
		return "prepare"
	case 2:
		return "in-progress"
	case 3:
		return "wait-pending"
	case 4:
		return "wait-flush"
	}
	return fmt.Sprintf("phase(%d)", code)
}

// FlightFaultName names the fault-class codes carried in FlightFaultInjected
// events (mirrors the storage fault injector's classes).
func FlightFaultName(code uint64) string {
	switch code {
	case 1:
		return "transient"
	case 2:
		return "torn"
	case 3:
		return "bit-flip"
	case 4:
		return "latency"
	}
	return fmt.Sprintf("fault(%d)", code)
}

// Fixed slot geometry. A slot is one seqlock word plus twelve data words
// (104 bytes): ticket, timestamp, packed meta, version, two arguments, a
// 32-byte token and a 16-byte session prefix. Strings longer than their field
// are truncated at Emit (store-generated commit tokens and artifact names fit
// whole; session GUIDs keep a 16-byte prefix, enough to disambiguate).
const (
	flightTokenWords   = 4
	flightSessionWords = 2
	flightDataWords    = 6 + flightTokenWords + flightSessionWords

	// FlightTokenBytes is the widest token recorded whole (longer ones are
	// truncated).
	FlightTokenBytes = 8 * flightTokenWords
	// FlightSessionBytes is the recorded session-ID prefix width.
	FlightSessionBytes = 8 * flightSessionWords
)

// flightSlot is one event slot: seq is a per-slot seqlock (odd while a writer
// owns the slot; writers claim it by CAS, so two writers lapping each other
// on a wrapped ring can never interleave their word stores).
type flightSlot struct {
	seq atomic.Uint64
	w   [flightDataWords]atomic.Uint64
}

// flightRing is one ring: pos is the monotonically increasing ticket counter;
// slot (ticket-1) & (len(slots)-1) holds the event.
type flightRing struct {
	pos   atomic.Uint64
	slots []flightSlot
}

// flightLifecycleKinds is the set of kinds emitted per commit, per session
// crossing or more rarely still (a recovery, a promotion, a detector firing).
// They share one ring of flightLifecycleSlots that the other kinds — emitted
// per epoch bump, page, fsync group, pump drain, bucket or injected fault —
// cannot evict; and since causally ordered lifecycle events then carry tickets
// of one ring, those with equal timestamps merge in causal order. A commit of
// an ingest server with one shard and one session leaves 13 events there (a
// further shard nine more, a further session two per shard), so the ring
// holds its last 315 commits, whatever else the process records.
const (
	flightLifecycleKinds = uint64(1)<<FlightPhase | 1<<FlightAckPrepare | 1<<FlightDemarcate | 1<<FlightDrop |
		1<<FlightCommitStart | 1<<FlightPersistDone | 1<<FlightCommitDone |
		1<<FlightCommitFail | 1<<FlightCommitAnnounced | 1<<FlightArtifactWrite | 1<<FlightArtifactRetry |
		1<<FlightCrashPoint | 1<<FlightReplShip | 1<<FlightReplInstall | 1<<FlightReplPromote |
		1<<FlightRecoverVerdict | 1<<FlightRecoverFallback | 1<<FlightInlogWatermark | 1<<FlightInlogTrim |
		1<<FlightInlogReplay | 1<<FlightHealthFire | 1<<FlightHealthClear
	flightLifecycleSlots = 4096
)

// DefaultFlightCapacity is the slot count of the event ring, which holds the
// kinds outside flightLifecycleKinds. Their rate follows the traffic, not
// the commits: an ingest server emits two events per fsync group and one per
// pump drain, thousands a second, so the ring holds the last fraction of a
// second of a busy process and minutes of an idle one. What a commit, a
// recovery or a detector did is in the lifecycle ring and outlives them.
const DefaultFlightCapacity = 1024

// FlightRecorder records flight events into two rings, the event ring (index 0)
// and the lifecycle ring (1). The nil FlightRecorder is a valid no-op: Emit on
// nil returns at once, so instrumented code never branches on configuration.
type FlightRecorder struct {
	start     time.Time
	wallStart int64 // wall clock at creation (UnixNano); AtNanos is relative
	rings     [2]flightRing
}

// NewFlightRecorder returns a recorder with capacity slots in its event ring
// (rounded up to a power of two, floor 64). Pass DefaultFlightCapacity unless
// profiling says otherwise.
func NewFlightRecorder(capacity int) *FlightRecorder {
	c, now := max(64, 1<<bits.Len(uint(capacity-1))), time.Now()
	f := &FlightRecorder{start: now, wallStart: now.UnixNano()}
	f.rings[0].slots = make([]flightSlot, c)
	f.rings[1].slots = make([]flightSlot, flightLifecycleSlots)
	return f
}

// WallStart returns the wall-clock instant (UnixNano) the recorder started;
// event timestamps are nanoseconds since then.
func (f *FlightRecorder) WallStart() int64 {
	if f == nil {
		return 0
	}
	return f.wallStart
}

// packFlightMeta packs kind, shard and the string lengths into one word.
// Shard is stored +1 in 16 bits so shard -1 (store-level events) round-trips.
func packFlightMeta(kind FlightKind, shard, tlen, slen int) uint64 {
	return uint64(kind) | uint64(uint16(shard+1))<<8 | uint64(tlen)<<24 | uint64(slen)<<32
}

// Emit records one event. It is allocation-free and safe on a nil receiver.
// shard is the CPR domain the event belongs to (-1 for store-level events);
// token and session are truncated to FlightTokenBytes / FlightSessionBytes.
//
// The timestamp is read before the ticket is claimed, so events ordered by
// happens-before carry non-decreasing timestamps; the reader's merge sort by
// (AtNanos, ring, ticket) therefore respects causality across goroutines, and
// between two events of one ring also when the clock did not advance.
func (f *FlightRecorder) Emit(kind FlightKind, shard int, version uint64, token, session string, arg1, arg2 uint64) {
	if f == nil {
		return
	}
	at := uint64(time.Since(f.start).Nanoseconds())
	if len(token) > FlightTokenBytes {
		token = token[:FlightTokenBytes]
	}
	if len(session) > FlightSessionBytes {
		session = session[:FlightSessionBytes]
	}
	r := &f.rings[flightLifecycleKinds>>kind&1]
	ticket := r.pos.Add(1)
	s := &r.slots[(ticket-1)&uint64(len(r.slots)-1)]
	// Claim the slot: CAS even->odd. Contention here requires another writer
	// to be mid-write on this very slot, which needs ring-capacity tickets
	// claimed within its ~100ns write window — effectively never; the spin is
	// a correctness backstop, not a fast-path cost.
	for {
		v := s.seq.Load()
		if v&1 == 0 && s.seq.CompareAndSwap(v, v+1) {
			break
		}
	}
	s.w[0].Store(ticket)
	s.w[1].Store(at)
	s.w[2].Store(packFlightMeta(kind, shard, len(token), len(session)))
	s.w[3].Store(version)
	s.w[4].Store(arg1)
	s.w[5].Store(arg2)
	for i := 0; i < flightTokenWords; i++ {
		s.w[6+i].Store(packFlightBytes(token, i*8))
	}
	for i := 0; i < flightSessionWords; i++ {
		s.w[6+flightTokenWords+i].Store(packFlightBytes(session, i*8))
	}
	s.seq.Add(1) // release: back to even
}

// packFlightBytes packs up to eight bytes of s starting at base into a word
// (little-endian), zero-padded.
func packFlightBytes(s string, base int) uint64 {
	var w uint64
	for j := 0; j < 8 && base+j < len(s); j++ {
		w |= uint64(s[base+j]) << (8 * uint(j))
	}
	return w
}

func unpackFlightBytes(dst []byte, w uint64) []byte {
	for j := 0; j < 8; j++ {
		dst = append(dst, byte(w>>(8*uint(j))))
	}
	return dst
}

// FlightEvent is one decoded flight-recorder event.
type FlightEvent struct {
	// Ring and Seq identify the slot: Seq is the ring's ticket, strictly
	// increasing per ring, so (Ring, Seq) is unique.
	Ring int    `json:"ring"`
	Seq  uint64 `json:"seq"`
	// AtNanos is monotonic nanoseconds since the recorder started.
	AtNanos int64      `json:"at_ns"`
	Kind    FlightKind `json:"kind"`
	// Shard is the CPR domain (-1 = store-level / cross-shard).
	Shard   int    `json:"shard"`
	Version uint64 `json:"version,omitempty"`
	Arg1    uint64 `json:"arg1,omitempty"`
	Arg2    uint64 `json:"arg2,omitempty"`
	Token   string `json:"token,omitempty"`
	Session string `json:"session,omitempty"`
}

// readFlightSlot seqlock-reads one slot. ok is false for never-written slots
// and slots that stayed write-locked across all retries (the event is then
// counted as neither retained nor torn — it simply isn't visible yet).
func readFlightSlot(s *flightSlot, ring int) (FlightEvent, bool) {
	for attempt := 0; attempt < 8; attempt++ {
		s1 := s.seq.Load()
		if s1 == 0 {
			return FlightEvent{}, false // never written
		}
		if s1&1 == 1 {
			continue // writer active
		}
		var w [flightDataWords]uint64
		for i := range w {
			w[i] = s.w[i].Load()
		}
		if s.seq.Load() != s1 {
			continue // overwritten mid-read; retry
		}
		return decodeFlightWords(ring, w), true
	}
	return FlightEvent{}, false
}

func decodeFlightWords(ring int, w [flightDataWords]uint64) FlightEvent {
	meta := w[2]
	tlen := int(meta>>24) & 0xff
	slen := int(meta>>32) & 0xff
	if tlen > FlightTokenBytes {
		tlen = FlightTokenBytes
	}
	if slen > FlightSessionBytes {
		slen = FlightSessionBytes
	}
	var sbuf [FlightTokenBytes + FlightSessionBytes]byte
	buf := sbuf[:0]
	for i := 0; i < flightTokenWords; i++ {
		buf = unpackFlightBytes(buf, w[6+i])
	}
	token := string(buf[:tlen])
	buf = sbuf[:0]
	for i := 0; i < flightSessionWords; i++ {
		buf = unpackFlightBytes(buf, w[6+flightTokenWords+i])
	}
	session := string(buf[:slen])
	return FlightEvent{
		Ring:    ring,
		Seq:     w[0],
		AtNanos: int64(w[1]),
		Kind:    FlightKind(meta & 0xff),
		Shard:   int(uint16(meta>>8)) - 1,
		Version: w[3],
		Arg1:    w[4],
		Arg2:    w[5],
		Token:   token,
		Session: session,
	}
}

// Events snapshots every retained event across all rings, merged into one
// timeline ordered by (AtNanos, Ring, Seq), plus the total number of events
// dropped to ring wraparound. Safe to call concurrently with Emit: slots
// being written are skipped or retried, never observed torn.
func (f *FlightRecorder) Events() ([]FlightEvent, uint64) {
	if f == nil {
		return nil, 0
	}
	var out []FlightEvent
	var dropped uint64
	for ri := range f.rings {
		r := &f.rings[ri]
		if pos, capacity := r.pos.Load(), uint64(len(r.slots)); pos > capacity {
			dropped += pos - capacity
		}
		for si := range r.slots {
			if e, ok := readFlightSlot(&r.slots[si], ri); ok {
				out = append(out, e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AtNanos != out[j].AtNanos {
			return out[i].AtNanos < out[j].AtNanos
		}
		if out[i].Ring != out[j].Ring {
			return out[i].Ring < out[j].Ring
		}
		return out[i].Seq < out[j].Seq
	})
	return out, dropped
}

// FilterFlightEvents keeps the events belonging to one commit: those whose
// token equals or contains token (artifact-write events carry artifact names
// like "cpr-manifest-<token>", which contain the commit token). An empty token keeps
// everything.
func FilterFlightEvents(evs []FlightEvent, token string) []FlightEvent {
	if token == "" {
		return evs
	}
	out := make([]FlightEvent, 0, len(evs))
	for _, e := range evs {
		if e.Token == token || strings.Contains(e.Token, token) {
			out = append(out, e)
		}
	}
	return out
}

// FlightDump is a decoded flight-recorder dump: the full merged timeline at
// the instant the dump was taken.
type FlightDump struct {
	// WallStartNanos anchors AtNanos offsets to the wall clock (UnixNano of
	// the recorder's start).
	WallStartNanos int64         `json:"wall_start_unix_ns"`
	Dropped        uint64        `json:"dropped,omitempty"`
	Events         []FlightEvent `json:"events"`
}

// Dump snapshots the recorder. Its JSON is the one encoding a dump has: the
// kvserver FLIGHT op, incident bundles and — inside the
// storage layer's checksum envelope — the crash-dump artifact all carry it.
func (f *FlightRecorder) Dump() FlightDump {
	evs, dropped := f.Events()
	return FlightDump{WallStartNanos: f.WallStart(), Dropped: dropped, Events: evs}
}

// Describe renders an event's payload for human consumption (one line,
// without the timestamp/shard columns — callers lay those out).
func (e FlightEvent) Describe() string {
	var b strings.Builder
	b.WriteString(e.Kind.String())
	switch e.Kind {
	case FlightPhase:
		fmt.Fprintf(&b, " %s->%s", FlightPhaseName(e.Arg1), FlightPhaseName(e.Arg2))
	case FlightEpochBump:
		fmt.Fprintf(&b, " epoch=%d", e.Arg1)
	case FlightEpochDrain:
		fmt.Fprintf(&b, " epoch=%d drain=%s", e.Arg1, time.Duration(e.Arg2))
	case FlightAckPrepare, FlightDemarcate, FlightDrop:
		fmt.Fprintf(&b, " serial=%d", e.Arg1)
	case FlightPersistDone:
		fmt.Fprintf(&b, " shard capture durable, bytes=%d", e.Arg1)
	case FlightCommitDone, FlightArtifactWrite:
		fmt.Fprintf(&b, " bytes=%d", e.Arg1)
	case FlightReplShip:
		fmt.Fprintf(&b, " bytes=%d took=%s", e.Arg1, time.Duration(e.Arg2))
	case FlightArtifactRetry:
		fmt.Fprintf(&b, " attempt=%d", e.Arg1)
	case FlightFlush:
		fmt.Fprintf(&b, " bytes=%d lat=%s", e.Arg1, time.Duration(e.Arg2))
	case FlightPageCRC:
		fmt.Fprintf(&b, " page=%d crc=%08x", e.Arg1, uint32(e.Arg2))
	case FlightFaultInjected:
		fmt.Fprintf(&b, " class=%s", FlightFaultName(e.Arg1))
	case FlightRecoverVerdict:
		// Arg1 counts newer commits skipped as unverifiable before this one.
		if e.Arg1 == 0 {
			b.WriteString(" clean")
		} else {
			fmt.Fprintf(&b, " after %d skipped commit(s)", e.Arg1)
		}
	case FlightHealthFire:
		fmt.Fprintf(&b, " after %d bad sample(s)", e.Arg1)
		if e.Arg2 != 0 {
			fmt.Fprintf(&b, " incident-seq=%d", e.Arg2)
		}
	case FlightHealthClear:
		fmt.Fprintf(&b, " fired-for=%d sample(s)", e.Arg1)
	}
	if e.Token != "" {
		fmt.Fprintf(&b, " token=%s", e.Token)
	}
	if e.Session != "" {
		fmt.Fprintf(&b, " session=%s", e.Session)
	}
	if e.Version != 0 {
		fmt.Fprintf(&b, " v%d", e.Version)
	}
	return b.String()
}
