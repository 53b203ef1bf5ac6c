package kvserver

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// rawHello dials addr and sends a Hello whose payload is the empty client ID
// followed by tail — ProtoV3 for a well-formed one.
func rawHello(t *testing.T, addr string, tail ...byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	if err := writeFrame(conn, OpHello, append(wire.AppendString(nil, nil), tail...)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestOldHelloRefused: one version is spoken. A Hello without the version
// byte (what a v1 client sent), or offering 1, 2 or 4, gets an error frame
// that says why and a closed connection, and never a session — from a primary
// and from a replica alike.
func TestOldHelloRefused(t *testing.T) {
	_, addr, store := startServer(t, smallCfg())
	replica := NewReplicaServer(&fakeReplica{store: store})
	go replica.Serve("127.0.0.1:0") //nolint:errcheck // returns nil on Close
	defer replica.Close()
	for replica.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	for _, addr := range []string{addr, replica.Addr().String()} {
		for _, tail := range [][]byte{nil, {1}, {2}, {4}, {ProtoV3, 0}} {
			before := store.SessionCount()
			conn := rawHello(t, addr, tail...)
			op, resp, err := readFrame(conn)
			if err != nil || op != OpHello || len(resp) < 1 || resp[0] != StatusError {
				t.Fatalf("hello ending in % x: op=%d resp=% x err=%v, want an error frame", tail, op, resp, err)
			}
			if reason, _, err := wire.TakeString(resp[1:]); err != nil || !strings.Contains(string(reason), "v3") {
				t.Fatalf("hello ending in % x: reason %q err=%v, want one naming the version spoken", tail, reason, err)
			}
			if _, _, err := readFrame(conn); err == nil {
				t.Fatalf("hello ending in % x: the connection stayed open", tail)
			}
			if got := store.SessionCount(); got != before {
				t.Fatalf("hello ending in % x: %d sessions, %d before it", tail, got, before)
			}
		}
	}
}

// helloPeer accepts one connection, reads its Hello and answers with reply.
func helloPeer(t *testing.T, reply []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if op, _, err := readFrame(conn); err == nil && op == OpHello {
			writeFrame(conn, OpHello, reply) //nolint:errcheck // Dial's read fails the test
		}
	}()
	return ln.Addr().String()
}

// TestDialReportsRefusal: a Hello answered with an error status fails Dial
// with the server's reason (it used to read "handshake failed: <nil>").
func TestDialReportsRefusal(t *testing.T) {
	addr := helloPeer(t, wire.AppendString([]byte{StatusError}, []byte("no room at the inn")))
	_, err := Dial(addr, "")
	if err == nil || !strings.Contains(err.Error(), "no room at the inn") || errors.Is(err, ErrProtoVersion) {
		t.Fatalf("Dial against a refusing server: %v, want its reason", err)
	}
}

// TestDialRejectsOtherVersion: a reply that echoes no version byte (a v1
// server), or another one, is ErrProtoVersion.
func TestDialRejectsOtherVersion(t *testing.T) {
	ok := wire.AppendString(wire.AppendU64([]byte{StatusOK}, 0), []byte("sess"))
	for _, tail := range [][]byte{nil, {2}, {4}} {
		_, err := Dial(helloPeer(t, append(ok[:len(ok):len(ok)], tail...)), "")
		if !errors.Is(err, ErrProtoVersion) {
			t.Fatalf("hello reply ending in % x: Dial returned %v, want ErrProtoVersion", tail, err)
		}
	}
}

// TestOversizedFrameRejected: a live server hangs up on a frame claiming more
// than wire.MaxFrame bytes instead of allocating for it.
func TestOversizedFrameRejected(t *testing.T) {
	_, addr, _ := startServer(t, smallCfg())
	conn := rawHello(t, addr, ProtoV3)
	if _, _, err := readFrame(conn); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(lenPrefix(wire.MaxFrame+1), OpGet)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil {
		if _, err = conn.Read(buf); err == nil {
			t.Fatal("server kept talking after oversized frame")
		}
	}
}

// TestUnknownOpcodeClosesConnection: an unrecognized opcode after a valid
// handshake terminates the connection instead of wedging the session.
func TestUnknownOpcodeClosesConnection(t *testing.T) {
	_, addr, _ := startServer(t, smallCfg())
	conn := rawHello(t, addr, ProtoV3)
	if _, _, err := readFrame(conn); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, 0x6E, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFrame(conn); err == nil {
		t.Fatal("server answered an unknown opcode")
	}
}

// TestTraceFlaggedFrameTooShort: a frame whose opcode carries the trace flag
// but whose body is shorter than the 24-byte trace field must be rejected.
func TestTraceFlaggedFrameTooShort(t *testing.T) {
	for n := 0; n < traceFieldLen; n++ {
		raw := append([]byte{OpGet | frameFlagTrace}, bytes.Repeat([]byte{7}, n)...)
		if _, _, _, err := readFrameTr(bytes.NewReader(append(lenPrefix(uint32(len(raw))), raw...))); err == nil {
			t.Fatalf("trace-flagged frame with %d-byte body accepted", n)
		}
	}
}

// FuzzTraceAndBatch covers what this package layers on internal/wire's frame
// (whose own layout, length checks and builder are fuzzed there, as FuzzFrame):
// the optional trace field must survive a round trip without leaking into the
// payload, a traced and a plain frame built in place in one dirty buffer must
// match the reference layout byte for byte and read back through one reused
// buffer, and an arbitrary payload taken as a BATCH body must decode within
// its bounds or fail cleanly.
func FuzzTraceAndBatch(f *testing.F) {
	f.Add(byte(OpSet), []byte("hello"))
	f.Add(byte(0), []byte{})
	f.Add(byte(255), bytes.Repeat([]byte{0xAA}, 1024))
	// Batch codec seeds: a well-formed two-op batch, a count overclaiming its
	// body, and a batch whose op list is truncated mid-entry.
	wellFormed := wire.AppendU32(nil, 2)
	wellFormed = appendBatchOp(wellFormed, OpSet, 1, []byte("bk"), []byte("bv"))
	wellFormed = appendBatchOp(wellFormed, OpGet, 2, []byte("bk"), nil)
	f.Add(byte(OpBatch), wellFormed)
	f.Add(byte(OpBatch), wire.AppendU32(nil, 1000))
	f.Add(byte(OpBatch), wellFormed[:len(wellFormed)-3])
	f.Fuzz(func(t *testing.T, opcode byte, payload []byte) {
		if len(payload) >= wire.MaxFrame-traceFieldLen-1 {
			t.Skip()
		}
		// Opcodes live below 0x80 — the high bit is the trace flag.
		plain := opcode &^ frameFlagTrace
		want := obs.TraceContext{
			TraceID:         1 + uint64(opcode), // never zero, or the field is omitted
			ParentSpan:      uint64(len(payload)),
			IssuedUnixNanos: int64(opcode) * 1e9,
		}
		ref := func(tc obs.TraceContext) []byte {
			b := []byte{plain}
			if tc.TraceID != 0 {
				b[0] |= frameFlagTrace
				for _, v := range []uint64{tc.TraceID, tc.ParentSpan, uint64(tc.IssuedUnixNanos)} {
					b = binary.LittleEndian.AppendUint64(b, v)
				}
			}
			return append(append(lenPrefix(uint32(len(b)+len(payload))), b...), payload...)
		}
		wbuf := bytes.Repeat([]byte{0x5A}, 7)
		var stream []byte
		for _, tc := range []obs.TraceContext{want, {}} {
			wbuf = wire.Seal(append(openFrame(wbuf, plain, tc), payload...))
			if !bytes.Equal(wbuf, ref(tc)) {
				t.Fatalf("in-place frame (traced=%v) differs from the reference layout", tc.TraceID != 0)
			}
			stream = append(stream, wbuf...)
		}
		rd, rbuf := bytes.NewReader(stream), bytes.Repeat([]byte{0xA5}, 9)
		for _, tc := range []obs.TraceContext{want, {}} {
			op, got, body, err := readFrameBuf(rd, &rbuf)
			if err != nil || op != plain || got != tc || !bytes.Equal(body, payload) {
				t.Fatalf("in-place round-trip (traced=%v): op %d/%d tc %+v err %v", tc.TraceID != 0, op, plain, got, err)
			}
		}

		// The same payload interpreted as a batch body must never panic, never
		// yield more ops than announced, and keep every decoded key/value
		// inside the payload's bounds (arena-style decode invariant).
		if br, err := newBatchReader(payload); err == nil {
			decoded := 0
			for i := 0; i < br.count; i++ {
				op, _, key, val, err := br.next()
				if err != nil {
					break
				}
				decoded++
				if op != OpGet && op != OpSet && op != OpRMW && op != OpDelete {
					t.Fatalf("batch decode yielded non-batchable opcode %d", op)
				}
				for _, b := range [][]byte{key, val} {
					if len(b) > len(payload) {
						t.Fatalf("batch decode returned a %d-byte slice from a %d-byte payload", len(b), len(payload))
					}
				}
			}
			if decoded > br.count {
				t.Fatalf("batch decode yielded %d ops from a count of %d", decoded, br.count)
			}
			// A well-formed decode must re-encode to the identical bytes.
			if decoded == br.count {
				re := wire.AppendU32(nil, uint32(br.count))
				rr, _ := newBatchReader(payload)
				for i := 0; i < rr.count; i++ {
					op, seq, key, val, _ := rr.next()
					re = appendBatchOp(re, op, seq, key, val)
				}
				if len(rr.body) == 0 && !bytes.Equal(re, payload) {
					t.Fatalf("batch re-encode mismatch: %d/%d bytes", len(re), len(payload))
				}
			}
		}
	})
}

func lenPrefix(n uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], n)
	return b[:]
}

// Test-side frame helpers: a hand-rolled peer sends and reads one frame at a
// time on throw-away buffers, through the same builder and reader the
// connections use.
func writeFrameTr(w io.Writer, opcode byte, tc obs.TraceContext, payload []byte) error {
	_, err := w.Write(wire.Seal(append(openFrame(nil, opcode, tc), payload...)))
	return err
}

func readFrameTr(r io.Reader) (byte, obs.TraceContext, []byte, error) {
	var buf []byte
	return readFrameBuf(r, &buf)
}

func readFrame(r io.Reader) (byte, []byte, error) {
	op, _, payload, err := readFrameTr(r)
	return op, payload, err
}
