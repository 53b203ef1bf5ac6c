package inlog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"

	"repro/internal/obs"
	"repro/internal/wire"
)

// IngestServer accepts TCP connections speaking the ingest wire protocol:
// the client sends one internal/wire frame per message — the frame's opcode
// is the message's op byte, so length prefix stripped a frame is the Message
// wire form (see EncodeMessage) — and for each one the server replies with
// the record's logical offset (a bare u64 LE) once the record is fsync-durable.
// The ack therefore IS the durability guarantee: a client that saw offset o
// acked will find that record applied after any crash. Appends and acks are
// pipelined per connection so one group commit covers its in-flight
// requests. How frames are cut into TCP writes is the sender's business (see
// IngestClient): the read loop takes them from a buffered reader.
type IngestServer struct {
	log    *Log
	flight *obs.FlightRecorder

	// open accepts and tracks the connections; its Close closes them.
	open *wire.Conns
}

// NewIngestServer returns a server appending into log. The server registers
// no metric of its own (the log counts its appends), so the registry argument
// is ignored; it stays for the callers that pass one.
func NewIngestServer(log *Log, _ *obs.Registry, flight *obs.FlightRecorder) *IngestServer {
	return &IngestServer{log: log, flight: flight, open: wire.NewConns(wire.CloseConn)}
}

// Serve accepts connections on ln until Close (or the listener fails). After
// Close it closes ln and returns net.ErrClosed.
func (s *IngestServer) Serve(ln net.Listener) error { return s.open.Serve(ln, s.serveConn) }

// Close stops accepting and closes the connections it accepted, so a
// client's further Sends and Acks fail. It waits for their read loops, not for
// the acks still owed, which may need a sync that never comes (FsyncManual).
func (s *IngestServer) Close() { s.open.Close() }

// ackQueue is how many appended-but-unacked offsets one connection may have
// in flight before its read loop stops reading: the bound on what a client
// can make the log buffer ahead of the device.
const ackQueue = 1024

// serveConn pipelines one connection: the read loop appends records and
// queues their offsets; the ack loop waits for durability in offset order.
// One group commit makes many queued offsets durable at once, and the ack
// loop writes all of them with one conn.Write. serveConn returns when the read
// loop ends; the ack loop owns the connection from then on and closes it once
// it has acked what was queued, or when the log closes or a write fails.
func (s *IngestServer) serveConn(conn net.Conn) {
	acks := make(chan uint64, ackQueue)
	defer close(acks)
	go func() {
		defer func() {
			conn.Close()     // ends the read loop, if it still runs
			for range acks { // which must never block on a full queue
			}
		}()
		out := make([]byte, 0, 8*ackQueue)
		flush := func() bool {
			if len(out) == 0 {
				return true
			}
			_, err := conn.Write(out)
			out = out[:0]
			return err == nil
		}
		var durable uint64 // the log's durable frontier when last read
		for off := range acks {
			if off >= durable {
				if durable = s.log.Durable(); off >= durable {
					// Never sit on acks while waiting for the next group.
					if !flush() || s.log.WaitDurable(off) != nil {
						return
					}
					durable = s.log.Durable()
				}
			}
			out = binary.LittleEndian.AppendUint64(out, off)
			if len(acks) == 0 || len(out) == cap(out) {
				if !flush() {
					return
				}
			}
		}
	}()

	br := bufio.NewReaderSize(conn, 64<<10)
	var frame []byte
	for {
		_, body, err := wire.Read(br, &frame)
		if err != nil {
			return
		}
		// wire.Read leaves the opcode in frame right before the payload, and on
		// this wire it is the message's op: the two together are the message.
		msg := frame[:1+len(body)]
		if _, err := DecodeMessage(msg); err != nil {
			return // malformed payloads are rejected before they reach the log
		}
		off, err := s.log.Append(msg)
		if err != nil {
			return
		}
		select {
		case acks <- off:
		case <-s.open.Done(): // the ack loop may wait for a sync that never comes
			return
		}
	}
}

// sendBound is how many bytes Send may queue ahead of the socket: the server's
// read buffer, so the client never holds more than one server read's worth.
const sendBound = 64 << 10

// IngestClient is the matching client: Send pipelines a message, Ack reads
// the next durable offset. Send does no I/O: it appends the frame to a pending
// run, and one writer goroutine keeps one conn.Write in flight — whatever Send
// accumulated during a write is the next write. A message never waits for
// another Send, an Ack or a timer. One goroutine may call Send while another
// calls Ack. It is a test/bench aid, not a production SDK.
type IngestClient struct {
	conn net.Conn
	br   *bufio.Reader // the server writes many acks per conn.Write
	wbuf []byte        // the frame Send is building

	mu      sync.Mutex
	cond    *sync.Cond    // pending gained or lost bytes, err or closing was set
	pending []byte        // sealed frames no write has taken yet
	err     error         // the first write error; every later Send returns it
	closing bool          // Close was called: the writer exits once pending is empty
	done    chan struct{} // closed when the writer has exited
}

// DialIngest connects to an IngestServer.
func DialIngest(addr string) (*IngestClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("inlog: dial %s: %w", addr, err)
	}
	return newIngestClient(conn), nil
}

func newIngestClient(conn net.Conn) *IngestClient {
	c := &IngestClient{conn: conn, br: bufio.NewReader(conn), done: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	go c.writeLoop()
	return c
}

// writeLoop swaps the pending run with its spare buffer, writes it, and
// repeats while anything is pending. A run is as long as the previous write
// took: a lone message leaves at once, a pipelined sender fills a run per
// syscall.
func (c *IngestClient) writeLoop() {
	defer close(c.done)
	var spare []byte
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.err == nil {
		for len(c.pending) == 0 && !c.closing {
			c.cond.Wait()
		}
		if len(c.pending) == 0 {
			return
		}
		run := c.pending
		c.pending = spare[:0]
		c.cond.Broadcast() // a Send waiting at sendBound has room
		c.mu.Unlock()
		_, err := c.conn.Write(run)
		c.mu.Lock()
		spare = run
		if err != nil {
			c.err = fmt.Errorf("inlog: ingest write: %w", err)
			c.cond.Broadcast()
		}
	}
}

// Send queues one message for the writer; the matching Ack arrives in order.
// It blocks only while sendBound bytes are already pending, and returns the
// first write error once there has been one.
func (c *IngestClient) Send(m Message) error {
	c.wbuf = appendMessageBody(wire.Open(c.wbuf, byte(m.Op)), m)
	frame := wire.Seal(c.wbuf)
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.pending) > 0 && len(c.pending)+len(frame) > sendBound && c.err == nil && !c.closing {
		c.cond.Wait()
	}
	if c.err != nil {
		return c.err
	}
	if c.closing {
		return ErrClosed
	}
	c.pending = append(c.pending, frame...)
	c.cond.Broadcast()
	return nil
}

// Ack blocks for the next ack and returns the acked record's offset.
func (c *IngestClient) Ack() (uint64, error) {
	b, err := c.br.Peek(8)
	if err != nil {
		return 0, err
	}
	off := binary.LittleEndian.Uint64(b)
	c.br.Discard(8) //nolint:errcheck // the 8 bytes were just peeked
	return off, nil
}

// Close hands everything Send accepted to the socket — so it waits for a peer
// that has stopped reading — then closes the connection.
func (c *IngestClient) Close() error {
	c.mu.Lock()
	c.closing = true
	c.cond.Broadcast()
	c.mu.Unlock()
	<-c.done
	return c.conn.Close()
}
