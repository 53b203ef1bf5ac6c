package kvserver

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// golden spells a run of wire bytes: an int is one byte, a string its bytes.
func golden(parts ...any) []byte {
	var out []byte
	for _, p := range parts {
		switch v := p.(type) {
		case int:
			out = append(out, byte(v))
		case string:
			out = append(out, v...)
		}
	}
	return out
}

// anyTrace stands for the 24-byte trace field (trace ID, parent span, issue
// time) of a frame a Client sent: its content differs run to run, its place
// and size do not.
var anyTrace = string(make([]byte, traceFieldLen))

// expectBytes reads len(want) bytes and compares them with want; a run of
// zero bytes as long as the trace field matches anything.
func expectBytes(t *testing.T, r io.Reader, what string, want []byte) {
	t.Helper()
	got := make([]byte, len(want))
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatalf("%s: %v (read % x)", what, err, got)
	}
	if i := bytes.Index(want, []byte(anyTrace)); i >= 0 {
		copy(got[i:], anyTrace)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got % x\nwant % x", what, got, want)
	}
}

// The conversation both golden tests speak, byte by byte. All integers are
// little-endian; a frame is u32 length | u8 opcode | payload, a reply's first
// payload byte is its status.
var (
	// HELLO: client ID "golden", version byte 3 -> status OK, CPR point 0, the
	// session ID, the version byte.
	goldHello   = golden(10, 0, 0, 0, 1, 6, 0, "golden", 3)
	goldHelloOK = golden(19, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 0, "golden", 3)
	// GET "k", a plain frame -> NotFound with an empty value.
	goldGet      = golden(4, 0, 0, 0, 2, 1, 0, "k")
	goldGetNone  = golden(6, 0, 0, 0, 2, 1, 0, 0, 0, 0)
	goldGetFound = golden(8, 0, 0, 0, 2, 0, 2, 0, 0, 0, "v1")
	// SET "k"="v1" with the trace flag on the opcode and the 24-byte trace
	// field before the payload -> OK, the op's serial (the GET was serial 1).
	goldSetTraced = golden(34, 0, 0, 0, 3|0x80,
		0x11, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0x22, 0, 0, 0, 0, 0, 0, 0,
		1, 0, "k", 2, 0, 0, 0, "v1")
	goldSetOK = golden(10, 0, 0, 0, 3, 0, 2, 0, 0, 0, 0, 0, 0, 0)
	// BATCH of three: SET "k2"="v2" (seq 1), GET "k" (seq 2), DELETE "k"
	// (seq 3). The reply comes in two frames at a 40-byte coalescing cap: two
	// entries (serial 4; the value), then one (serial 6).
	goldBatchOps = golden(3, 0, 0, 0,
		3, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, "k2", 2, 0, 0, 0, "v2",
		2, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, "k",
		5, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, "k")
	goldBatchReplyA = golden(38, 0, 0, 0, 11, 0, 2, 0, 0, 0,
		1, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0,
		2, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, "v1")
	goldBatchReplyB = golden(23, 0, 0, 0, 11, 0, 1, 0, 0, 0,
		3, 0, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0)
)

// TestGoldenServerBytes: a real server, spoken to in spelled-out bytes,
// answers in spelled-out bytes.
func TestGoldenServerBytes(t *testing.T) {
	_, addr, _ := startServerTuned(t, smallCfg(), func(s *Server) { s.replyBytes = 40 })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	say := func(what string, req []byte, replies ...[]byte) {
		t.Helper()
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		for _, want := range replies {
			expectBytes(t, conn, what, want)
		}
	}
	say("hello", goldHello, goldHelloOK)
	say("get of a missing key", goldGet, goldGetNone)
	say("traced set", goldSetTraced, goldSetOK)
	say("get", goldGet, goldGetFound)
	say("batch", append(golden(len(goldBatchOps)+1, 0, 0, 0, 11), goldBatchOps...), goldBatchReplyA, goldBatchReplyB)
}

// TestGoldenClientBytes: a Client, against a peer that compares what it sends
// with the same spelled-out bytes (every frame after HELLO traced) and answers
// with the spelled-out replies, returns what those replies say.
func TestGoldenClientBytes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	traced := func(frame []byte) []byte { // the same frame as a Client sends it
		out := golden(len(frame)-4+traceFieldLen, 0, 0, 0, int(frame[4])|0x80, anyTrace)
		return append(out, frame[5:]...)
	}
	peerDone := make(chan struct{})
	go func() {
		defer close(peerDone)
		conn, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		for _, ex := range []struct {
			what    string
			want    []byte
			replies [][]byte
		}{
			{"client hello", goldHello, [][]byte{goldHelloOK}},
			{"client get", traced(goldGet), [][]byte{goldGetFound}},
			{"client set", traced(golden(10, 0, 0, 0, 3, 1, 0, "k", 2, 0, 0, 0, "v1")), [][]byte{goldSetOK}},
			{"client batch", traced(append(golden(len(goldBatchOps)+1, 0, 0, 0, 11), goldBatchOps...)),
				[][]byte{goldBatchReplyA, goldBatchReplyB}},
		} {
			expectBytes(t, conn, ex.what, ex.want)
			for _, r := range ex.replies {
				conn.Write(r) //nolint:errcheck // the client's next read fails the test
			}
		}
	}()

	c, err := Dial(ln.Addr().String(), "golden")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.ID() != "golden" || c.CPRPoint() != 0 {
		t.Fatalf("hello: id %q point %d", c.ID(), c.CPRPoint())
	}
	if v, found, err := c.Get([]byte("k")); err != nil || !found || string(v) != "v1" {
		t.Fatalf("get: %q found=%v err=%v", v, found, err)
	}
	if serial, err := c.Set([]byte("k"), []byte("v1")); err != nil || serial != 2 {
		t.Fatalf("set: serial %d err=%v", serial, err)
	}
	p := c.Pipeline()
	p.Set([]byte("k2"), []byte("v2"))
	p.Get([]byte("k"))
	p.Delete([]byte("k"))
	res, err := p.Flush()
	if err != nil || len(res) != 3 {
		t.Fatalf("flush: %d results, err=%v", len(res), err)
	}
	if res[0].Serial != 4 || string(res[1].Value) != "v1" || res[2].Serial != 6 || res[2].Status != StatusOK {
		t.Fatalf("flush results: %+v", res)
	}
	<-peerDone
}
