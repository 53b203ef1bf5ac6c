package inlog

import (
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// The ingest client's write discipline (see IngestClient): Send does no I/O,
// one conn.Write is in flight, and a message never waits for another Send, an
// Ack or a timer.

// stubConn is a connection whose writes the test decides: each Write reports
// its size on entered, then blocks for a token from release (nil: never blocks)
// and returns err; the bytes of a successful one go to got (nil: nowhere).
type stubConn struct {
	net.Conn // nil: the tests that use it neither read nor set deadlines
	entered  chan int
	release  chan struct{}
	err      error
	got      *bytes.Buffer // for the test once the client is closed
}

func (c *stubConn) Write(p []byte) (int, error) {
	if c.entered != nil {
		c.entered <- len(p)
	}
	if c.release != nil {
		<-c.release
	}
	if c.err != nil {
		return 0, c.err
	}
	if c.got != nil {
		c.got.Write(p)
	}
	return len(p), nil
}

func (c *stubConn) Close() error { return nil }

func benchMsg(i int) Message { return Message{Op: OpRMW, Key: counterKey(i), Value: one} }

// oneFrameWrites is what the peer of a client that writes every message by
// itself receives for messages 0..n-1.
func oneFrameWrites(n int) []byte {
	var out, frame []byte
	for i := 0; i < n; i++ {
		m := benchMsg(i)
		frame = appendMessageBody(wire.Open(frame, byte(m.Op)), m)
		out = append(out, wire.Seal(frame)...)
	}
	return out
}

// ingestPair starts a server over a RAM log and returns a client of it.
func ingestPair(t *testing.T) *IngestClient {
	t.Helper()
	l := mustOpen(t, Config{Segments: NewMemSegmentStore(), Fsync: FsyncBatch, BatchRecords: 64,
		BatchInterval: time.Millisecond})
	srv := NewIngestServer(l, nil, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // returns nil on Close
	c, err := DialIngest(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close() //nolint:errcheck // the connection is being abandoned
		srv.Close()
		l.Close() //nolint:errcheck // nothing is read from the log after this
	})
	return c
}

// TestIngestSendThenAck: one goroutine sends a window and only then reads its
// acks. Nothing but the writer can push the window out: a client that flushed
// from a later Send, from Ack or at a size would leave this caller waiting for
// acks of messages still in its buffer.
func TestIngestSendThenAck(t *testing.T) {
	for _, window := range []int{1, 512} {
		c := ingestPair(t)
		next := uint64(0)
		for round := 0; round < 4; round++ {
			for i := 0; i < window; i++ {
				if err := c.Send(benchMsg(i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < window; i++ {
				if off, err := c.Ack(); err != nil || off != next {
					t.Fatalf("window %d: ack = %d err=%v, want %d", window, off, err, next)
				}
				next++
			}
		}
	}
}

// TestIngestFullWindowAckElsewhere is the benchmark's shape: the sender blocks
// on its own in-flight window and another goroutine reads the acks that free it.
func TestIngestFullWindowAckElsewhere(t *testing.T) {
	const window, msgs = 512, 20_000
	c := ingestPair(t)
	inflight := make(chan struct{}, window) // the in-flight window
	acked := make(chan struct{})
	go func() {
		defer close(acked)
		want := uint64(0)
		for range inflight {
			if off, err := c.Ack(); err != nil || off != want {
				t.Errorf("ack = %d err=%v, want %d", off, err, want)
				for range inflight { // unblock the sender
				}
				return
			}
			want++
		}
	}()
	for i := 0; i < msgs; i++ {
		inflight <- struct{}{}
		if err := c.Send(benchMsg(i)); err != nil {
			t.Error(err)
			break
		}
	}
	close(inflight)
	<-acked
}

// TestIngestSendBound: against a peer that never reads, what Send accepted
// ahead of the socket stops at sendBound and Send blocks; no run handed to a
// write is longer than the bound either.
func TestIngestSendBound(t *testing.T) {
	const msgs = 10_000 // ~250 KiB of frames, four times the bound
	conn := &stubConn{entered: make(chan int, msgs), release: make(chan struct{}), got: new(bytes.Buffer)}
	c := newIngestClient(conn)
	var sent atomic.Int64
	sender := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			if err := c.Send(benchMsg(i)); err != nil {
				sender <- err
				return
			}
			sent.Add(1)
		}
		sender <- nil
	}()
	first := <-conn.entered // the one write in flight, never completing
	frame := len(oneFrameWrites(1))
	pending := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.pending)
	}
	for deadline := time.Now().Add(10 * time.Second); pending()+frame <= sendBound; {
		if time.Now().After(deadline) {
			t.Fatalf("pending stuck at %d bytes below the bound", pending())
		}
		time.Sleep(time.Millisecond)
	}
	// Full. Give a Send that ignored the bound time to show itself.
	time.Sleep(20 * time.Millisecond)
	if n := pending(); n > sendBound {
		t.Fatalf("%d bytes pending, bound is %d", n, sendBound)
	}
	if got, fit := int(sent.Load()), (first+pending())/frame; got > fit || fit >= msgs {
		t.Fatalf("sender got %d of %d messages accepted, %d fit in the write in flight plus the bound", got, msgs, fit)
	}
	close(conn.release) // the peer reads again
	if err := <-sender; err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	close(conn.entered)
	for n := range conn.entered {
		if n > sendBound {
			t.Fatalf("a write of %d bytes, bound is %d", n, sendBound)
		}
	}
	if !bytes.Equal(conn.got.Bytes(), oneFrameWrites(msgs)) {
		t.Fatal("the peer did not receive the frames sent, in order")
	}
}

// TestIngestWriteErrorSticks: Send cannot report the failure of a write it did
// not make, so the first one is returned by the next Send and every one after.
func TestIngestWriteErrorSticks(t *testing.T) {
	broken := errors.New("peer went away")
	c := newIngestClient(&stubConn{err: broken})
	defer c.Close()
	if err := c.Send(benchMsg(0)); err != nil {
		t.Fatalf("the first Send does no I/O, got %v", err)
	}
	<-c.done // the writer stops at the first error
	for i := 0; i < 3; i++ {
		if err := c.Send(benchMsg(i)); !errors.Is(err, broken) {
			t.Fatalf("Send %d after the failed write: %v, want %v", i, err, broken)
		}
	}
}

// TestIngestWriteCount: a lone Send is one write, at once; what Send
// accumulates while a write is in flight is the next write, so pipelined sends
// share writes; the bytes are those of one write per frame, and Close hands all
// of them to the socket before closing it. The stub makes a write last 16
// sends; over loopback the ratio is the benchmark's writes/msg.
func TestIngestWriteCount(t *testing.T) {
	const msgs, perWrite = 10_000, 16
	conn := &stubConn{entered: make(chan int, msgs), release: make(chan struct{}), got: new(bytes.Buffer)}
	c := newIngestClient(conn)
	want := oneFrameWrites(msgs)
	if err := c.Send(benchMsg(0)); err != nil {
		t.Fatal(err)
	}
	// It reaches the socket with no second Send, Ack or Close.
	if n := <-conn.entered; n != len(want)/msgs {
		t.Fatalf("a lone Send's write carried %d bytes, the frame has %d", n, len(want)/msgs)
	}
	conn.release <- struct{}{}
	for i := 1; i < msgs; i++ {
		if err := c.Send(benchMsg(i)); err != nil {
			t.Fatal(err)
		}
		if i%perWrite == 0 {
			conn.release <- struct{}{}
		}
	}
	close(conn.release)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(benchMsg(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close: %v, want ErrClosed", err)
	}
	if !bytes.Equal(conn.got.Bytes(), want) {
		t.Fatalf("peer got %d bytes, want the %d of one write per frame", conn.got.Len(), len(want))
	}
	// One write per perWrite sends, the lone one, and the two that Close drains.
	if n := 1 + len(conn.entered); n > msgs/perWrite+3 {
		t.Fatalf("%d sends took %d writes, want at most %d", msgs, n, msgs/perWrite+3)
	}
}

// TestIngestCloseEndsConnections: Close ends the connections the server
// accepted, and does not wait for an ack that needs a sync (under FsyncManual
// none may ever come): a client connected before it gets nothing more acked,
// even once the log syncs.
func TestIngestCloseEndsConnections(t *testing.T) {
	l := mustOpen(t, Config{Segments: NewMemSegmentStore(), Fsync: FsyncManual})
	defer l.Close() //nolint:errcheck // nothing is read from the log after this
	srv := NewIngestServer(l, nil, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // returns nil on Close
	c, err := DialIngest(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck // the server has closed the connection
	if err := c.Send(benchMsg(0)); err != nil {
		t.Fatal(err)
	}
	for l.Tail() == 0 { // appended: the connection is being served
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close waits for an ack that needs a sync")
	}
	if err := c.Send(benchMsg(1)); err == nil {
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if off, err := c.Ack(); err == nil {
			t.Fatalf("offset %d acked after Close", off)
		}
	}
}
