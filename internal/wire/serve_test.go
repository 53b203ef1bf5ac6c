package wire

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// handoffListener is a listener whose Accept takes connections from a channel
// and whose Close hands one last connection to the pending Accept: the
// connection a real listener can accept while the server is closing.
type handoffListener struct {
	conns  chan net.Conn
	late   net.Conn
	once   sync.Once
	closed chan struct{}
}

func newHandoffListener(late net.Conn) *handoffListener {
	return &handoffListener{conns: make(chan net.Conn), late: late, closed: make(chan struct{})}
}

func (l *handoffListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *handoffListener) Close() error {
	l.once.Do(func() {
		l.conns <- l.late // taken by the Accept Serve has pending
		close(l.closed)
	})
	return nil
}

func (l *handoffListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// TestConnsRefusesConnectionAcceptedDuringClose: a connection Accept returns
// after Close began is closed and never handed to the handler, and Close
// returns only after every handler and every Go it started has returned.
func TestConnsRefusesConnectionAcceptedDuringClose(t *testing.T) {
	lateServer, lateClient := net.Pipe()
	ln := newHandoffListener(lateServer)
	s := NewConns(CloseConn)

	var handled sync.Map
	var returned atomic.Int32
	handle := func(c net.Conn) {
		handled.Store(c, true)
		io.Copy(io.Discard, c) //nolint:errcheck // ends when Close closes c
		time.Sleep(20 * time.Millisecond)
		returned.Add(1)
		c.Close()
	}
	s.Go(func() {
		<-s.Done()
		time.Sleep(20 * time.Millisecond)
		returned.Add(1)
	})
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln, handle) }()

	var clients []net.Conn
	for range 2 {
		srv, cli := net.Pipe()
		ln.conns <- srv
		clients = append(clients, cli)
	}
	for s.Len() < 2 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		lateClient.Close() // a handler serving it holds Close up
	}
	if _, ok := handled.Load(lateServer); ok {
		t.Fatal("the connection accepted during Close reached the handler")
	}
	<-closed
	if n := returned.Load(); n != 3 {
		t.Fatalf("Close returned with %d of 2 handlers and a Go returned", n)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after Close: %v, want nil", err)
	}
	lateClient.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := lateClient.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("the connection accepted during Close is open: read %v, want EOF", err)
	}
	for _, c := range clients {
		c.Close()
	}
}

// TestConnsServeAfterClose: Serve on a closed skeleton closes the listener and
// returns at once, and Go starts nothing.
func TestConnsServeAfterClose(t *testing.T) {
	s := NewConns(ExpireRead)
	s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(ln, func(c net.Conn) { c.Close() }); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve after Close: %v, want net.ErrClosed", err)
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("listener still open after Serve refused it: %v", err)
	}
	ran := make(chan struct{})
	s.Go(func() { close(ran) })
	select {
	case <-ran:
		t.Fatal("Go after Close started its function")
	case <-time.After(20 * time.Millisecond):
	}
}
