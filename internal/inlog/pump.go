package inlog

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/faster"
	"repro/internal/obs"
)

// DefaultPumpSession is the session ID the apply pump runs under. The session
// is owned exclusively by the pump: its serial stream must mirror the log's
// offset stream one-to-one, which is the invariant every watermark anchor
// depends on.
const DefaultPumpSession = "inlog-pump"

// PumpConfig configures an apply pump.
type PumpConfig struct {
	Log   *Log
	Store *faster.Store
	// Metrics receives inlog_replayed and inlog_apply_lag (default nop).
	Metrics *obs.Registry
	// Flight receives inlog-apply/watermark/replay events (nil-safe).
	Flight *obs.FlightRecorder
}

// pumpIdle is how long the pump sleeps between polls when the log has no
// durable records to drain. While idle it keeps refreshing its session so CPR
// commits never stall on the pump.
const pumpIdle = 200 * time.Microsecond

// Pump drains durable ingestion-log records into a FASTER session, exactly
// once across crashes:
//
//   - It applies only records below the log's durability frontier, so a CPR
//     commit can never capture an operation whose log record might still be
//     lost — the committed prefix is always a durable-log prefix.
//   - Each record consumes exactly one session serial, making serial and
//     offset interconvertible by a linear anchor (see Watermark). At every
//     commit the pump hands its watermark to the commit record via
//     Store.OnCommitArtifact, and trims committed-out segments afterwards.
//   - On restart it continues the session, converts the recovered CPR point
//     back to an offset through the newest readable anchor, and resumes
//     applying from exactly that record.
type Pump struct {
	log    *Log
	store  *faster.Store
	sess   *faster.Session
	anchor Watermark // serial<->offset anchor (Token empty for the origin)
	buf    []byte    // group read buffer, owned by the apply loop

	mu      sync.Mutex
	cond    *sync.Cond
	applied uint64 // next offset to apply
	err     error
	closed  bool
	stopped chan struct{}

	replays *obs.Counter
	flight  *obs.FlightRecorder
}

// StartPump recovers the pump's position and starts the apply loop. Call it
// after the store is opened (or recovered); the replayed suffix, if any, is
// applied asynchronously — WaitApplied(log.Durable()-1) blocks until the
// store has caught up.
func StartPump(cfg PumpConfig) (*Pump, error) {
	p, err := newPump(cfg)
	if err != nil {
		return nil, err
	}
	go p.loop()
	return p, nil
}

// newPump is StartPump without the apply loop.
func newPump(cfg PumpConfig) (*Pump, error) {
	if cfg.Log == nil || cfg.Store == nil {
		return nil, fmt.Errorf("inlog: PumpConfig.Log and Store are required")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewNop()
	}
	p := &Pump{
		log:     cfg.Log,
		store:   cfg.Store,
		stopped: make(chan struct{}),
		replays: cfg.Metrics.Counter("inlog_replayed"),
		flight:  cfg.Flight,
	}
	p.cond = sync.NewCond(&p.mu)

	anchor, ok, err := LatestWatermark(cfg.Store.Checkpoints())
	if err != nil {
		return nil, err
	}
	if ok && anchor.Session != DefaultPumpSession {
		return nil, fmt.Errorf("inlog: watermark %s anchors session %q, pump runs %q",
			anchor.Token, anchor.Session, DefaultPumpSession)
	}
	sess, point := cfg.Store.ContinueSession(DefaultPumpSession)
	if !ok {
		// No commit has ever covered the pump: the session starts at its
		// recovered point (0 on a fresh store) aligned with the oldest
		// retained record.
		anchor = Watermark{Session: DefaultPumpSession, Serial: point, Offset: cfg.Log.Start()}
	}
	p.sess = sess
	p.anchor = anchor
	start := anchor.OffsetForSerial(point)
	if start < cfg.Log.Start() || start > cfg.Log.Durable() {
		sess.StopSession()
		return nil, fmt.Errorf(
			"inlog: recovered point %d maps to offset %d outside retained log [%d, %d]",
			point, start, cfg.Log.Start(), cfg.Log.Durable())
	}
	p.applied = start
	if d := cfg.Log.Durable(); d > start {
		// The suffix above the recovered watermark replays through the
		// normal apply loop; announce its extent up front.
		p.replays.Add(d - start)
		p.flight.Emit(obs.FlightInlogReplay, -1, 0, anchor.Token, DefaultPumpSession, start, d-start)
	}

	cfg.Metrics.GaugeFunc("inlog_apply_lag", func() int64 {
		return int64(p.log.Tail()) - int64(p.Applied())
	})
	cfg.Store.OnCommitArtifact(p.commitWatermark)
	cfg.Store.OnCommit(p.trimCommitted)
	return p, nil
}

// Session returns the pump's FASTER session ID.
func (p *Pump) Session() string { return DefaultPumpSession }

// Applied returns the next offset to apply: every record below it has been
// applied to the store.
func (p *Pump) Applied() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.applied
}

// Err returns the pump's terminal error, if it has stopped on one.
func (p *Pump) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// WaitApplied blocks until the record at offset has been applied (Applied()
// > offset), the pump stops on an error, or it is closed.
func (p *Pump) WaitApplied(offset uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.applied <= offset && p.err == nil && !p.closed {
		p.cond.Wait()
	}
	if p.applied > offset {
		return nil
	}
	if p.err != nil {
		return p.err
	}
	return ErrClosed
}

// OffsetForSerial converts a pump-session serial to its log offset through
// the pump's anchor.
func (p *Pump) OffsetForSerial(serial uint64) uint64 {
	return p.anchor.OffsetForSerial(serial)
}

// commitWatermark is the Store.OnCommitArtifact hook: it pins the commit's
// pump-session CPR point to its log offset, as a section of the commit's
// record.
func (p *Pump) commitWatermark(res faster.CommitResult) (string, []byte, error) {
	serial, ok := res.Serials[DefaultPumpSession]
	if !ok {
		return "", nil, nil // pump session not registered at commit time
	}
	w := Watermark{
		Token:   res.Token,
		Session: DefaultPumpSession,
		Serial:  serial,
		Offset:  p.anchor.OffsetForSerial(serial),
	}
	buf, err := json.Marshal(w)
	if err != nil {
		return "", nil, err
	}
	p.flight.Emit(obs.FlightInlogWatermark, -1, uint64(res.Version), res.Token, DefaultPumpSession, w.Offset, serial)
	return watermarkSection, buf, nil
}

// trimCommitted is the Store.OnCommit hook: once a commit (and therefore
// its watermark) is durable, segments wholly below the watermark are
// deleted. Trim failure is non-fatal — the commit stands, the space is
// reclaimed by a later trim.
func (p *Pump) trimCommitted(res faster.CommitResult) {
	serial, ok := res.Serials[DefaultPumpSession]
	if !ok {
		return
	}
	p.log.Trim(p.anchor.OffsetForSerial(serial))
}

// loop is the apply pump: drain durable groups in offset order, refreshing
// the session while idle so commits keep advancing.
func (p *Pump) loop() {
	defer close(p.stopped)
	for {
		p.mu.Lock()
		closed := p.closed
		cursor := p.applied
		p.mu.Unlock()
		if closed {
			return
		}
		d := p.log.Durable()
		if d <= cursor {
			p.sess.Refresh()
			time.Sleep(pumpIdle)
			continue
		}
		from := cursor
		for cursor < d && !closed {
			next, err := p.applyGroup(cursor)
			if err != nil {
				p.fail(err)
				return
			}
			cursor = next
			p.mu.Lock()
			p.applied = cursor
			closed = p.closed
			p.cond.Broadcast()
			p.mu.Unlock()
		}
		p.flight.Emit(obs.FlightInlogApply, -1, 0, "", DefaultPumpSession, cursor, cursor-from)
	}
}

// applyGroup reads the durable group holding the record at offset with one
// device read into the pump's buffer and applies its records from offset on
// through the pump session, returning the offset after the group. Exactly
// one serial is consumed per record; a record that fails to decode stops the
// pump before it is given one, so the serial<->offset anchor never shears.
// The group's parked operations complete before it returns, so it is published
// as applied only if every record of it is; a failed one stops the pump.
// A recovered store has replayed its whole log suffix before Recover returns,
// so the pump never applies a record over pre-prefix state.
func (p *Pump) applyGroup(offset uint64) (uint64, error) {
	g, buf, err := p.log.ReadGroup(offset, p.buf)
	p.buf = buf
	if err != nil {
		return offset, fmt.Errorf("inlog: pump read offset %d: %w", offset, err)
	}
	p.sess.Refresh() // once per group, so a commit never waits longer than one
	for {
		offset = g.Offset()
		payload, ok := g.Next()
		if !ok {
			if failed := p.sess.CompletePending(true); failed > 0 {
				return offset, fmt.Errorf("inlog: pump group ending at offset %d: %d parked operations failed", offset, failed)
			}
			return offset, nil
		}
		msg, err := DecodeMessage(payload)
		if err != nil {
			return offset, fmt.Errorf("inlog: pump offset %d: %w", offset, err)
		}
		var st faster.Status
		switch msg.Op {
		case OpRMW:
			st = p.sess.RMW(msg.Key, msg.Value)
		case OpUpsert:
			st = p.sess.Upsert(msg.Key, msg.Value)
		case OpDelete:
			st = p.sess.Delete(msg.Key)
		}
		if st == faster.Error {
			return offset, fmt.Errorf("inlog: pump offset %d: %s failed", offset, msg.Op)
		}
	}
}

func (p *Pump) fail(err error) {
	p.mu.Lock()
	p.err = err
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Close stops the apply loop and the pump's session. The log and store stay
// open (they have their own Close).
func (p *Pump) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	<-p.stopped
	p.sess.StopSession()
}
