package repl

import (
	"fmt"
	"log"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/kvserver"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Server is the primary-side replication endpoint: it accepts replica
// connections and, per connection, streams the durable HybridLog tail of
// every shard plus each completed commit's checkpoint artifacts, announcing
// the commit only after everything it depends on has been shipped. Replicas
// therefore install commits whose inputs are fully local — a half-received
// commit is simply never announced, which is what makes a primary crash
// mid-ship leave replicas at the previous committed prefix.
type Server struct {
	store *faster.Store

	// ClientAddr is the primary's client-facing (kvserver) address,
	// advertised to replicas so their write redirects point somewhere useful.
	ClientAddr string
	// Logger receives connection errors; defaults to the standard logger.
	Logger *log.Logger

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]chan string // per-conn completed-commit notifications
	closed bool
	wg     sync.WaitGroup

	replicas     *obs.Gauge
	shippedBytes *obs.Counter
	shippedArts  *obs.Counter
	announced    *obs.Counter
	verifyFails  *obs.Counter
	replwaitNs   *obs.Histogram
}

// NewServer wraps an open (primary) store. Commits completed from here on
// are pushed to connected replicas; a replica connecting later catches up
// from the latest completed commit.
func NewServer(store *faster.Store) *Server {
	reg := store.Metrics()
	s := &Server{
		store:        store,
		Logger:       log.New(os.Stderr, "repl: ", log.LstdFlags),
		conns:        make(map[net.Conn]chan string),
		replicas:     reg.Gauge("repl_replicas"),
		shippedBytes: reg.Counter("repl_shipped_log_bytes_total"),
		shippedArts:  reg.Counter("repl_shipped_artifacts_total"),
		announced:    reg.Counter("repl_commits_announced_total"),
		verifyFails:  reg.Counter("repl_artifact_verify_failures_total"),
		// Shared with kvserver's decomposition family: how long a locally
		// durable commit waited to be announced to a replica.
		replwaitNs: reg.Histogram("faster_op_replwait_ns"),
	}
	reg.SetHelp("repl_replicas", "Replica connections currently attached to this primary.")
	reg.SetHelp("repl_commits_announced_total",
		"Commit announcements shipped to replicas; commits completing without announcements fires the health engine's repl-lag-growing detector.")
	store.OnCommit(func(res faster.CommitResult) { s.broadcast(res.Token) })
	return s
}

// broadcast queues a completed commit token on every connection. A full
// queue is fine to drop into: the streamer falls back to LatestCommitToken,
// and installing the newest commit subsumes skipped intermediates.
func (s *Server) broadcast(token string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ch := range s.conns {
		select {
		case ch <- token:
		default:
		}
	}
}

// Serve listens on addr and blocks accepting replica connections until
// Close.
func (s *Server) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		ch := make(chan string, 64)
		s.mu.Lock()
		s.conns[conn] = ch
		s.mu.Unlock()
		s.replicas.Set(int64(s.Replicas()))
		s.wg.Add(1)
		go s.handle(conn, ch)
	}
}

// Addr returns the bound listen address (after Serve started).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Replicas reports the number of connected replicas.
func (s *Server) Replicas() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// ReplStats describes this primary for a kvserver stats snapshot.
func (s *Server) ReplStats() *kvserver.ReplStats {
	return &kvserver.ReplStats{
		Role:           "primary",
		Replicas:       s.Replicas(),
		AppliedVersion: s.store.LatestCommitVersion(),
	}
}

// Close stops accepting, closes replica connections, and waits for
// streamers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// handle runs one replica connection: welcome, then the ship loop.
func (s *Server) handle(conn net.Conn, notify chan string) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.replicas.Set(int64(s.Replicas()))
		conn.Close()
	}()
	if err := s.stream(conn, notify); err != nil {
		s.Logger.Printf("replica %v: %v", conn.RemoteAddr(), err)
	}
}

// shipConn is the write side of one replica connection. Every frame is built
// in place in buf, which only grows, and leaves in one Write: the stream's
// safety rests on frame order (every log byte and artifact a commit needs
// precedes its opCommit), so there is one way onto it.
type shipConn struct {
	net.Conn
	buf []byte
}

// open begins a frame in the connection's buffer; the caller appends the
// payload and hands the frame to send.
func (c *shipConn) open(opcode byte) []byte { return wire.Open(c.buf, opcode) }

func (c *shipConn) send(frame []byte) error {
	c.buf = frame[:0]
	c.SetWriteDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	_, err := c.Write(wire.Seal(frame))
	return err
}

func (s *Server) stream(nc net.Conn, notify chan string) error {
	conn := &shipConn{Conn: nc}
	conn.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	var hello []byte
	op, payload, err := wire.Read(conn, &hello)
	if err != nil || op != opHello {
		return fmt.Errorf("bad hello: %v", err)
	}
	_, rest, err := wire.TakeU32(payload) // appliedVersion (informational)
	if err != nil {
		return err
	}
	shards, rest, err := wire.TakeU32(rest)
	if err != nil {
		return err
	}
	if int(shards) != s.store.NumShards() {
		err := fmt.Errorf("shard count mismatch: replica %d, primary %d", shards, s.store.NumShards())
		conn.send(wire.AppendString(conn.open(opError), []byte(err.Error()))) //nolint:errcheck // hanging up either way
		return err
	}
	n := s.store.NumShards()
	sent := make([]uint64, n)
	welcome := wire.AppendString(conn.open(opWelcome), []byte(s.ClientAddr))
	welcome = wire.AppendU32(welcome, s.store.LatestCommitVersion())
	welcome = wire.AppendU32(welcome, uint32(n))
	for i := 0; i < n; i++ {
		have, r2, err := wire.TakeU64(rest)
		if err != nil {
			return err
		}
		rest = r2
		lg := s.store.ShardLog(i)
		start := have
		// If this primary's own recovery (or promotion) rewrote log state,
		// the replica must re-receive that range: its pre-crash copy lacks
		// the invalidation of records the recovery rolled back.
		if rs := s.store.ResyncFrom(i); rs != 0 && rs < start {
			start = rs
		}
		if d := lg.Durable(); start > d {
			start = d // replica claims bytes we never made durable: re-ship
		}
		if b := lg.Begin(); start < b {
			start = b
		}
		if start < hlog.FirstAddress {
			start = hlog.FirstAddress
		}
		sent[i] = start
		welcome = wire.AppendU64(welcome, lg.Begin())
		welcome = wire.AppendU64(welcome, start)
		welcome = wire.AppendU64(welcome, lg.Durable())
	}
	if err := conn.send(welcome); err != nil {
		return err
	}

	// A reader goroutine only to notice the peer going away (the replica
	// sends nothing after hello).
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		buf := make([]byte, 1)
		conn.SetReadDeadline(time.Time{}) //nolint:errcheck
		conn.Read(buf)                    //nolint:errcheck
	}()

	shipped := make(map[string]bool) // artifacts this connection already sent
	announcedTok := ""
	// Catch the replica up to the newest completed commit immediately.
	pending := ""
	if tok, ok := s.store.LatestCommitToken(); ok {
		pending = tok
	}
	heartbeat := time.NewTicker(100 * time.Millisecond)
	defer heartbeat.Stop()
	poll := time.NewTicker(2 * time.Millisecond)
	defer poll.Stop()

	for {
		progress, err := s.shipTail(conn, sent, 0)
		if err != nil {
			return err
		}
		if pending != "" && pending != announcedTok {
			if err := s.shipCommit(conn, pending, sent, shipped); err != nil {
				return err
			}
			announcedTok = pending
			pending = ""
		}
		select {
		case <-readerDone:
			return nil // replica hung up
		case tok := <-notify:
			pending = tok
		case <-heartbeat.C:
			if err := s.sendTail(conn); err != nil {
				return err
			}
		case <-poll.C:
			if !progress {
				// Nothing new; blocking a little keeps idle streams cheap.
				select {
				case <-readerDone:
					return nil
				case tok := <-notify:
					pending = tok
				case <-heartbeat.C:
					if err := s.sendTail(conn); err != nil {
						return err
					}
				case <-poll.C:
				}
			}
		}
	}
}

// shipTail streams every shard's durable log bytes past the sent watermarks,
// up to upTo when nonzero (else everything durable).
func (s *Server) shipTail(conn *shipConn, sent []uint64, upTo uint64) (bool, error) {
	progress := false
	for i := range sent {
		lg := s.store.ShardLog(i)
		limit := lg.Durable()
		if upTo != 0 && upTo < limit {
			limit = upTo
		}
		for sent[i] < limit {
			n := min(limit-sent[i], chunkSize)
			// The log's bytes are read straight into the frame, behind its header.
			frame := wire.AppendU64(wire.AppendU32(conn.open(opChunk), uint32(i)), sent[i])
			body := len(frame)
			frame = slices.Grow(frame, int(n))[:body+int(n)]
			if err := lg.ReadRaw(sent[i], frame[body:]); err != nil {
				return progress, fmt.Errorf("read log shard %d @%d: %w", i, sent[i], err)
			}
			if err := conn.send(frame); err != nil {
				return progress, err
			}
			sent[i] += n
			s.shippedBytes.Add(n)
			progress = true
		}
	}
	return progress, nil
}

// shipCommit ships everything commit token depends on — log coverage to each
// shard's end, then the commit's artifacts — and finally announces it.
func (s *Server) shipCommit(conn *shipConn, token string, sent []uint64, shipped map[string]bool) error {
	tShip0 := time.Now().UnixNano()
	info, err := s.store.CommitShipInfo(token)
	if err != nil {
		return fmt.Errorf("ship info %s: %w", token, err)
	}
	if info.Kind == faster.Snapshot {
		// Snapshot commits reopen the captured region for in-place updates;
		// later flushes of that region are not version-consistent, so a
		// replica applying them would leave the committed prefix. Fold-over
		// (the default) has no such window. See DESIGN.md.
		s.Logger.Printf("warning: shipping snapshot commit %s; replica prefix consistency requires fold-over commits", token)
	}
	// A completed commit's range is durable, so shipping everything durable
	// necessarily covers every shard's floor.
	if _, err := s.shipTail(conn, sent, 0); err != nil {
		return err
	}
	for i := range sent {
		if sent[i] < info.ShardFloors[i] {
			return fmt.Errorf("commit %s needs shard %d coverage to %d, durable stops at %d",
				token, i, info.ShardFloors[i], sent[i])
		}
	}
	var artifactBytes uint64
	for _, name := range info.Artifacts {
		if shipped[name] {
			continue
		}
		data, err := storage.ReadArtifact(s.store.Checkpoints(), name)
		if err != nil {
			return fmt.Errorf("artifact %s: %w", name, err)
		}
		// Verify the checksum envelope before shipping: a locally corrupted
		// artifact must fail the ship (the commit is never announced and the
		// replica stays at the previous prefix) rather than propagate garbage.
		// The framed bytes themselves go on the wire verbatim, so the replica
		// re-verifies on its own restart.
		if _, verr := storage.DecodeArtifact(data); verr != nil {
			s.verifyFails.Inc()
			return fmt.Errorf("artifact %s failed verification, not shipping: %w", name, verr)
		}
		for off := 0; off == 0 || off < len(data); off += artifactChunk {
			end := off + artifactChunk
			if end > len(data) {
				end = len(data)
			}
			frame := wire.AppendString(conn.open(opArtifact), []byte(name))
			frame = wire.AppendU32(wire.AppendU32(frame, uint32(len(data))), uint32(off))
			if err := conn.send(append(frame, data[off:end]...)); err != nil {
				return err
			}
		}
		shipped[name] = true
		s.shippedArts.Inc()
		artifactBytes += uint64(len(data))
	}
	tShipped := time.Now().UnixNano()
	// The ship and announce events are also a trace dump's global spans
	// (obs.ReplSpans): a slow request's durwait span and these share the commit
	// token, which is the cross-link fasterctl trace uses.
	s.store.Flight().Emit(obs.FlightReplShip, -1, uint64(info.Version), token, "",
		artifactBytes, uint64(tShipped-tShip0))
	ann := wire.AppendString(conn.open(opCommit), []byte(token))
	ann = wire.AppendU32(ann, info.Version)
	ann = append(ann, byte(info.Kind))
	ann = wire.AppendU32(ann, uint32(len(info.ShardEnds)))
	for i := range info.ShardEnds {
		ann = wire.AppendU64(ann, info.ShardEnds[i])
		ann = wire.AppendU64(ann, info.ShardFloors[i])
	}
	if err := conn.send(ann); err != nil {
		return err
	}
	s.announced.Inc()
	tAnn := time.Now().UnixNano()
	s.store.Flight().Emit(obs.FlightCommitAnnounced, -1, uint64(info.Version), token, "", 0, 0)
	s.replwaitNs.ObserveValue(uint64(tAnn - tShip0))
	return nil
}

// sendTail sends the heartbeat/lag frame.
func (s *Server) sendTail(conn *shipConn) error {
	n := s.store.NumShards()
	frame := wire.AppendU32(conn.open(opTail), s.store.LatestCommitVersion())
	frame = wire.AppendU32(frame, uint32(n))
	for i := 0; i < n; i++ {
		frame = wire.AppendU64(frame, s.store.ShardLog(i).Durable())
	}
	return conn.send(frame)
}
