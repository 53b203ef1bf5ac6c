package kvserver

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// lateServer is a hand-rolled peer that answers batched GETs (a Client's Get
// among them) with "v-"+key, and holds the reply to the very first request until the test
// releases it — after the client's Timeout has passed.
type lateServer struct {
	ln      net.Listener
	release chan struct{} // closed by the test: the held reply may go out
	sent    chan struct{} // closed by the server: the held reply is in the socket
	errs    chan error
}

func startLateServer(t *testing.T) *lateServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &lateServer{ln: ln, release: make(chan struct{}), sent: make(chan struct{}), errs: make(chan error, 4)}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for first := true; ; first = false {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed: the test is over
			}
			go func(hold bool) {
				defer conn.Close()
				if err := s.serve(conn, hold); err != nil {
					s.errs <- err
				}
			}(first)
		}
	}()
	return s
}

func (s *lateServer) serve(conn net.Conn, hold bool) error {
	op, _, _, err := readFrameTr(conn)
	if err != nil || op != OpHello {
		return fmt.Errorf("hello: op=%d err=%v", op, err)
	}
	hello := append(wire.AppendString(wire.AppendU64([]byte{StatusOK}, 0), []byte("late-sess")), ProtoV4)
	if err := writeFrame(conn, OpHello, hello); err != nil {
		return err
	}
	for {
		op, _, payload, err := readFrameTr(conn)
		if err != nil {
			return nil // client closed or reconnected
		}
		if op != OpBatch {
			return fmt.Errorf("late server got opcode %d", op)
		}
		r, err := newBatchReader(payload)
		if err != nil {
			return err
		}
		reply := openBatchReply(nil)
		for i := 0; i < r.count; i++ {
			_, seq, key, _, err := r.next()
			if err != nil {
				return err
			}
			reply = appendBatchValueResult(reply, seq, StatusOK, append([]byte("v-"), key...))
		}
		sealBatchReply(reply, r.count)
		if hold {
			<-s.release
		}
		if _, err := conn.Write(reply); err != nil {
			return err
		}
		if hold {
			close(s.sent)
			hold = false
		}
	}
}

// TestFailedCallSticksUntilReconnect: after a call times out, its late reply
// is still on its way; the next call must not take it for its own. A Get of
// another key (and a Flush) must fail until Reconnect — never return the
// previous key's value as success — whether the call that timed out was a Get
// (a flush of the client's own pipeline) or a Pipeline's Flush.
func TestFailedCallSticksUntilReconnect(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		srv := startLateServer(t)
		c, err := Dial(srv.ln.Addr().String(), "")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Timeout = 50 * time.Millisecond
		p := c.Pipeline()

		if pipelined {
			p.Get([]byte("k1"))
			_, err = p.Flush()
		} else {
			_, _, err = c.Get([]byte("k1"))
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("pipelined=%v: held reply: err=%v, want a timeout", pipelined, err)
		}
		close(srv.release)
		<-srv.sent // the stale reply to k1 now sits in the client's socket

		if v, found, err := c.Get([]byte("k2")); err == nil {
			t.Fatalf("pipelined=%v: Get(k2) after a timed-out call returned %q found=%v: the stale reply was taken for this call's", pipelined, v, found)
		} else if !strings.Contains(err.Error(), "Reconnect") {
			t.Fatalf("pipelined=%v: Get(k2) after a timed-out call: %v, want the sticky error", pipelined, err)
		}
		p.Get([]byte("k2"))
		if res, err := p.Flush(); err == nil {
			t.Fatalf("pipelined=%v: Flush after a timed-out call returned %+v", pipelined, res)
		}

		if err := c.Reconnect(""); err != nil {
			t.Fatal(err)
		}
		if v, found, err := c.Get([]byte("k2")); err != nil || !found || string(v) != "v-k2" {
			t.Fatalf("pipelined=%v: Get(k2) after Reconnect: %q found=%v err=%v", pipelined, v, found, err)
		}
		select {
		case err := <-srv.errs:
			t.Fatal(err)
		default:
		}
	}
}

// TestBatchValuesOutliveSplitReply: every Value of a 512-GET flush whose reply
// arrived in many frames is correct once Flush returns, stays correct through
// later Get and Set calls, and is overwritten only by that pipeline's next Flush.
func TestBatchValuesOutliveSplitReply(t *testing.T) {
	_, addr, _ := startServerTuned(t, smallCfg(), func(s *Server) {
		s.replyBytes = 256 // a dozen reply entries per frame
	})
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 512
	want := func(i, round int) []byte { return []byte(fmt.Sprintf("value-%04d-round-%d", i, round)) }
	p := c.Pipeline()
	load := func(round int) {
		t.Helper()
		for i := 0; i < n; i++ {
			p.Set(u64(uint64(i)), want(i, round))
		}
		if _, err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	readAll := func() []BatchResult {
		t.Helper()
		for i := 0; i < n; i++ {
			p.Get(u64(uint64(i)))
		}
		res, err := p.Flush()
		if err != nil || len(res) != n {
			t.Fatalf("flush: %d results, err=%v", len(res), err)
		}
		return res
	}
	check := func(res []BatchResult, round int, when string) {
		t.Helper()
		for i, r := range res {
			if r.Status != StatusOK || !bytes.Equal(r.Value, want(i, round)) {
				t.Fatalf("%s: result %d = status %d %q, want %q", when, i, r.Status, r.Value, want(i, round))
			}
		}
	}

	load(1)
	readAll() // grows the arena to size: from here on a Flush refills it in place
	res := readAll()
	check(res, 1, "after the split reply arrived")
	// The frame buffer only ever grows to the largest frame read.
	if total := n * (9 + 4 + len(want(0, 1))); cap(c.rbuf) > total/8 {
		t.Fatalf("a %d-byte reply was read through a %d-byte frame buffer: not split", total, cap(c.rbuf))
	}

	// Get and Set flush the client's own pipeline, not this one's arena.
	for i := 0; i < 8; i++ {
		if _, err := c.Set([]byte("other"), bytes.Repeat([]byte{0xEE}, 64)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get([]byte("other")); err != nil {
			t.Fatal(err)
		}
	}
	check(res, 1, "after later Get and Set calls")

	// The next Flush refills the arena: the old results now hold round 2.
	old := append([]BatchResult(nil), res...)
	load(2)
	check(readAll(), 2, "second flush")
	check(old, 2, "first flush's values after the second (documented lifetime: until the next Flush)")
}

// TestGetValueValidUntilNextCall: Client.Get's value is the client's buffer —
// intact until that client's next call, reused by it.
func TestGetValueValidUntilNextCall(t *testing.T) {
	_, addr, _ := startServer(t, smallCfg())
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, kv := range [][2]string{{"ga", "value-a"}, {"gb", "value-b"}} {
		if _, err := c.Set([]byte(kv[0]), []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	va, found, err := c.Get([]byte("ga"))
	if err != nil || !found || string(va) != "value-a" {
		t.Fatalf("Get(ga): %q found=%v err=%v", va, found, err)
	}
	// Queueing on a pipeline is not a call: nothing touches the wire.
	p := c.Pipeline()
	p.Get([]byte("gb"))
	p.Reset()
	if string(va) != "value-a" {
		t.Fatalf("value changed before the next call: %q", va)
	}
	vb, _, err := c.Get([]byte("gb"))
	if err != nil || string(vb) != "value-b" {
		t.Fatalf("Get(gb): %q err=%v", vb, err)
	}
	if string(va) != "value-b" {
		t.Fatalf("the next Get did not reuse the client's buffer: first value reads %q", va)
	}
}
