package repl

import (
	"errors"
	"fmt"
	"io"
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
// connections and, per connection, streams the durable HybridLog tail plus
// each completed commit's checkpoint artifacts, announcing
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

	// conns accepts and tracks the replica connections; its Close closes them.
	conns *wire.Conns

	mu        sync.Mutex
	committed chan struct{} // closed and replaced when a commit completes

	announced  *obs.Counter
	replwaitNs *obs.Histogram
}

// NewServer wraps an open (primary) store. Commits completed from here on
// are pushed to connected replicas; a replica connecting later catches up
// from the latest completed commit.
func NewServer(store *faster.Store) *Server {
	reg := store.Metrics()
	s := &Server{
		store:      store,
		Logger:     log.New(os.Stderr, "repl: ", log.LstdFlags),
		conns:      wire.NewConns(wire.CloseConn),
		committed:  make(chan struct{}),
		announced:  reg.Counter("repl_commits_announced_total"),
		replwaitNs: reg.Histogram("faster_op_replwait_ns"),
	}
	reg.SetHelp("faster_op_replwait_ns",
		"Per-commit wait from the start of its shipping to its commit-announce reaching a replica.")
	reg.GaugeFunc("repl_replicas", func() int64 { return int64(s.Replicas()) })
	reg.SetHelp("repl_replicas", "Replica connections currently attached to this primary.")
	reg.SetHelp("repl_commits_announced_total",
		"Commit announcements shipped to replicas; commits completing without announcements fires the health engine's repl-lag-growing detector.")
	store.OnCommit(func(faster.CommitResult) {
		s.mu.Lock()
		close(s.committed)
		s.committed = make(chan struct{})
		s.mu.Unlock()
	})
	return s
}

// commits returns the channel the next completed commit closes.
func (s *Server) commits() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.committed
}

// Serve listens on addr and blocks accepting replica connections until
// Close.
func (s *Server) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.conns.Serve(ln, s.handle)
}

// Addr returns the bound listen address (after Serve started).
func (s *Server) Addr() net.Addr { return s.conns.Addr() }

// Replicas reports the number of connected replicas.
func (s *Server) Replicas() int { return s.conns.Len() }

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
func (s *Server) Close() { s.conns.Close() }

// handle runs one replica connection: welcome, then the ship loop.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	if err := s.stream(conn); err != nil {
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

func (s *Server) stream(nc net.Conn) error {
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
	have, extra, err := wire.TakeU64(rest)
	if err == nil && len(extra) > 0 {
		err = fmt.Errorf("a hello %d bytes longer than this protocol's (a replica of a partitioned store?)", len(extra))
		conn.send(wire.AppendString(conn.open(opError), []byte(err.Error()))) //nolint:errcheck // hanging up either way
	}
	if err != nil {
		return err
	}
	lg := s.store.Log()
	sent := have
	// If this primary's own recovery (or promotion) rewrote log state, the
	// replica must re-receive that range: its pre-crash copy lacks the
	// invalidation of records the recovery rolled back.
	if rs := s.store.RewrittenFrom(); rs != 0 {
		sent = min(sent, rs)
	}
	sent = min(sent, lg.Durable()) // replica claims bytes we never made durable: re-ship
	sent = max(sent, lg.Begin(), hlog.FirstAddress)
	welcome := wire.AppendString(conn.open(opWelcome), []byte(s.ClientAddr))
	welcome = wire.AppendU32(welcome, s.store.LatestCommitVersion())
	welcome = wire.AppendU64(welcome, lg.Begin())
	welcome = wire.AppendU64(welcome, sent)
	welcome = wire.AppendU64(welcome, lg.Durable())
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
	heartbeat := time.NewTicker(100 * time.Millisecond)
	defer heartbeat.Stop()
	poll := time.NewTicker(2 * time.Millisecond)
	defer poll.Stop()

	for {
		// The channel is taken before the token is read, so a commit that
		// completes after the read wakes this loop. Only the newest commit is
		// shipped: installing it subsumes the commits it skipped.
		committed := s.commits()
		if err := s.shipTail(conn, &sent); err != nil {
			return err
		}
		if tok, _ := s.store.LatestCommitToken(); tok != "" && tok != announcedTok {
			if err := s.shipCommit(conn, tok, &sent, shipped); err != nil {
				return err
			}
			announcedTok = tok
		}
		select {
		case <-readerDone:
			return nil // replica hung up
		case <-committed:
		case <-heartbeat.C:
			if err := s.sendTail(conn); err != nil {
				return err
			}
		case <-poll.C: // the log's durable frontier has no notification of its own
		}
	}
}

// shipTail streams the durable log bytes past the sent watermark.
func (s *Server) shipTail(conn *shipConn, sent *uint64) error {
	lg := s.store.Log()
	for limit := lg.Durable(); *sent < limit; {
		n := min(limit-*sent, chunkSize)
		// The log's bytes are read straight into the frame, behind its header.
		frame := wire.AppendU64(conn.open(opChunk), *sent)
		body := len(frame)
		frame = slices.Grow(frame, int(n))[:body+int(n)]
		if err := lg.ReadRaw(*sent, frame[body:]); err != nil {
			return fmt.Errorf("read log @%d: %w", *sent, err)
		}
		if err := conn.send(frame); err != nil {
			return err
		}
		*sent += n
	}
	return nil
}

// shipCommit ships everything commit token depends on — the log to its end,
// then the commit's artifacts — and finally announces it. A snapshot
// commit is skipped, unannounced (faster.ErrSnapshotCommit): the next fold-over
// commit subsumes it, and every byte shipped meanwhile lies above the installed
// end, since a capture starts at or above the previous commit's end.
func (s *Server) shipCommit(conn *shipConn, token string, sent *uint64, shipped map[string]bool) error {
	tShip0 := time.Now().UnixNano()
	info, err := s.store.CommitShipInfo(token)
	if errors.Is(err, faster.ErrSnapshotCommit) {
		s.Logger.Printf("not shipping %s: %v", token, err)
		return nil
	}
	if err != nil {
		return fmt.Errorf("ship info %s: %w", token, err)
	}
	// A completed commit's range is durable, so shipping everything durable
	// necessarily covers its end.
	if err := s.shipTail(conn, sent); err != nil {
		return err
	}
	if *sent < info.End {
		return fmt.Errorf("commit %s needs coverage to %d, durable stops at %d", token, info.End, *sent)
	}
	var artifactBytes uint64
	for _, name := range info.Artifacts {
		if shipped[name] {
			continue
		}
		n, err := s.shipArtifact(conn, name)
		if err != nil {
			return fmt.Errorf("artifact %s: %w", name, err)
		}
		shipped[name] = true
		artifactBytes += uint64(n)
	}
	tShipped := time.Now().UnixNano()
	// The ship and announce events are also a trace dump's global spans
	// (obs.ReplSpans): a slow request's durwait span and these share the commit
	// token, which is the cross-link fasterctl why uses.
	s.store.Flight().Emit(obs.FlightReplShip, -1, uint64(info.Version), token, "",
		artifactBytes, uint64(tShipped-tShip0))
	ann := wire.AppendString(conn.open(opCommit), []byte(token))
	ann = wire.AppendU32(ann, info.Version)
	ann = wire.AppendU64(ann, info.End)
	if err := conn.send(ann); err != nil {
		return err
	}
	s.announced.Inc()
	tAnn := time.Now().UnixNano()
	s.store.Flight().Emit(obs.FlightCommitAnnounced, -1, uint64(info.Version), token, "", 0, 0)
	s.replwaitNs.ObserveValue(uint64(tAnn - tShip0))
	return nil
}

// errResend refuses a retry of an artifact read that already put bytes on the
// wire: the retry would send them again.
var errResend = errors.New("the read failed after part of the artifact was sent")

// shipArtifact streams the named artifact's payload as opArtifact frames, each
// read straight into its frame, and ends it with the empty frame once the read
// has verified the envelope (a locally corrupted artifact therefore never
// completes on a replica). It returns the payload's length. On an error the
// connection fails, and the replica publishes nothing of the artifact.
func (s *Server) shipArtifact(conn *shipConn, name string) (int64, error) {
	var n int64
	onWire := false
	err := storage.ReadArtifactStream(s.store.Checkpoints(), name, func(r io.Reader, _ int64) error {
		if onWire {
			return errResend
		}
		for {
			frame := wire.AppendString(conn.open(opArtifact), []byte(name))
			body := len(frame)
			frame = slices.Grow(frame, chunkSize)
			k, err := io.ReadFull(r, frame[body:body+chunkSize])
			verified := err == io.EOF || err == io.ErrUnexpectedEOF // the reader's io.EOF: the trailer agreed
			if err != nil && !verified {
				return err
			}
			if k > 0 {
				onWire = true
				if err := conn.send(frame[:body+k]); err != nil {
					return err
				}
				n += int64(k)
			}
			if verified {
				onWire = true
				return conn.send(wire.AppendString(conn.open(opArtifact), []byte(name)))
			}
		}
	})
	return n, err
}

// sendTail sends the heartbeat/lag frame.
func (s *Server) sendTail(conn *shipConn) error {
	frame := wire.AppendU32(conn.open(opTail), s.store.LatestCommitVersion())
	return conn.send(wire.AppendU64(frame, s.store.Log().Durable()))
}
