package wire

import (
	"net"
	"sync"
	"time"
)

// Conns is the connection-serving skeleton every TCP server in this tree runs
// on: one accept loop, one set of open connections, one closed signal and one
// Close. A server keeps only its handler and the way Close wakes a connection's
// handler (ExpireRead or CloseConn).
type Conns struct {
	wake func(net.Conn)

	done chan struct{} // closed by Close

	mu   sync.Mutex
	ln   net.Listener
	open map[net.Conn]struct{}
	wg   sync.WaitGroup // one count per handler Serve started and per Go
}

// NewConns returns a skeleton whose Close wakes each open connection's handler
// with wake.
func NewConns(wake func(net.Conn)) *Conns {
	return &Conns{wake: wake, done: make(chan struct{}), open: make(map[net.Conn]struct{})}
}

// ExpireRead wakes a handler blocked reading by expiring the read deadline.
// The handler itself notices Closed at its next frame boundary and hangs up, so
// a reply it is writing is never torn.
func ExpireRead(c net.Conn) { c.SetReadDeadline(time.Now()) } //nolint:errcheck

// CloseConn wakes a handler by closing its connection under it.
func CloseConn(c net.Conn) { c.Close() } //nolint:errcheck

// Serve accepts connections on ln until Close and runs handle on each in its
// own goroutine. handle owns the connection and closes it when it is done.
// The listener is recorded before the first Accept, so Addr is set as soon as
// the port is bound. Serve returns nil once Close has stopped it, and
// net.ErrClosed, having closed ln, when Close came first.
func (s *Conns) Serve(ln net.Listener, handle func(net.Conn)) error {
	s.mu.Lock()
	if s.Closed() {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.Closed() {
				return nil
			}
			return err
		}
		// A connection accepted while Close runs is refused here, under the
		// lock Close closes done under: it is in the set Close wakes, or it
		// is never served, and no handler starts after Close's Wait.
		s.mu.Lock()
		if s.Closed() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.open[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			handle(conn)
			s.mu.Lock()
			delete(s.open, conn)
			s.mu.Unlock()
		}()
	}
}

// Go runs f in its own goroutine, which Close waits for, unless Close has
// begun; f returns once Done is closed.
func (s *Conns) Go(f func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.Closed() {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			f()
		}()
	}
}

// Addr returns the listen address, or nil before Serve.
func (s *Conns) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Done returns a channel that Close closes.
func (s *Conns) Done() <-chan struct{} { return s.done }

// Closed reports whether Close has been called.
func (s *Conns) Closed() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Len returns the number of connections being served.
func (s *Conns) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.open)
}

// Each calls f on every connection being served, under the skeleton's lock.
func (s *Conns) Each(f func(net.Conn)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.open {
		f(c)
	}
}

// Close stops the listener, wakes every open connection and waits for every
// handler Serve started, and every f Go started, to return. Later calls only
// wait.
func (s *Conns) Close() {
	s.mu.Lock()
	if !s.Closed() {
		close(s.done)
		if s.ln != nil {
			s.ln.Close()
		}
		for c := range s.open {
			s.wake(c)
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}
