package kvserver

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestOversizedFrameRejected: a frame claiming more than maxFrame bytes is
// rejected before any allocation, both by readFrame directly and by a live
// server (which closes the connection).
func TestOversizedFrameRejected(t *testing.T) {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], maxFrame+1)
	hdr[4] = OpGet
	if _, _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("oversized frame accepted")
	}

	_, addr, _ := startServer(t, smallCfg())
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Valid hello first, then the bomb.
	if err := writeFrame(conn, OpHello, appendString(nil, nil)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFrame(conn); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
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
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, OpHello, appendString(nil, nil)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFrame(conn); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, 0x6E, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, _, err := readFrame(conn); err == nil {
		t.Fatal("server answered an unknown opcode")
	}
}

// TestTruncatedFrameMidPayload: a frame header promising more bytes than the
// peer ever sends must error out, not hang past the read deadline or return
// a short frame.
func TestTruncatedFrameMidPayload(t *testing.T) {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], 100)
	hdr[4] = OpGet
	r := io.MultiReader(bytes.NewReader(hdr[:]), bytes.NewReader([]byte("only ten b")))
	if _, _, err := readFrame(r); err == nil {
		t.Fatal("truncated payload accepted")
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

// FuzzFrame round-trips arbitrary opcode/payload pairs through the codec —
// both plain v1 frames and v2 frames carrying the optional trace field — and
// feeds arbitrary raw bytes to readFrame, which must never panic and must
// never return a frame larger than maxFrame.
func FuzzFrame(f *testing.F) {
	f.Add(byte(OpSet), []byte("hello"))
	f.Add(byte(0), []byte{})
	f.Add(byte(255), bytes.Repeat([]byte{0xAA}, 1024))
	// Batch codec seeds: a well-formed two-op batch, a count overclaiming its
	// body, and a batch whose op list is truncated mid-entry.
	wellFormed := appendU32(nil, 2)
	wellFormed = appendBatchOp(wellFormed, OpSet, 1, []byte("bk"), []byte("bv"))
	wellFormed = appendBatchOp(wellFormed, OpGet, 2, []byte("bk"), nil)
	f.Add(byte(OpBatch), wellFormed)
	f.Add(byte(OpBatch), appendU32(nil, 1000))
	f.Add(byte(OpBatch), wellFormed[:len(wellFormed)-3])
	f.Fuzz(func(t *testing.T, opcode byte, payload []byte) {
		if len(payload) >= maxFrame-traceFieldLen-1 {
			t.Skip()
		}
		// Opcodes live below 0x80 — the high bit is the trace flag.
		plain := opcode &^ frameFlagTrace
		var buf bytes.Buffer
		if err := writeFrame(&buf, plain, payload); err != nil {
			t.Fatal(err)
		}
		op, tc, got, err := readFrameTr(&buf)
		if err != nil {
			t.Fatalf("round-trip: %v", err)
		}
		if op != plain || !bytes.Equal(got, payload) {
			t.Fatalf("round-trip mismatch: op %d/%d, %d/%d bytes", op, plain, len(got), len(payload))
		}
		if tc != (obs.TraceContext{}) {
			t.Fatalf("plain frame decoded a trace context %+v", tc)
		}

		// Traced round-trip: the trace field must survive unchanged and must
		// not leak into the payload.
		want := obs.TraceContext{
			TraceID:         1 + uint64(opcode), // never zero, or the field is omitted
			ParentSpan:      uint64(len(payload)),
			IssuedUnixNanos: int64(opcode) * 1e9,
		}
		buf.Reset()
		if err := writeFrameTr(&buf, plain, want, payload); err != nil {
			t.Fatal(err)
		}
		op, tc, got, err = readFrameTr(&buf)
		if err != nil {
			t.Fatalf("traced round-trip: %v", err)
		}
		if op != plain || tc != want || !bytes.Equal(got, payload) {
			t.Fatalf("traced round-trip mismatch: op %d/%d tc %+v/%+v", op, plain, tc, want)
		}

		// The in-place builder on a dirty, reused buffer: a traced and a plain
		// frame must come out byte for byte as the reference layout (u32 len |
		// opcode[|0x80] [| 24-byte trace field] | payload), and read back to
		// back through one reused frame buffer, neither may leak into the other.
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
			wbuf = sealFrame(append(openFrame(wbuf, plain, tc), payload...))
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

		// The same bytes interpreted as a raw stream (header included) must
		// decode identically; arbitrary prefixes must fail cleanly.
		raw := append([]byte{plain}, payload...)
		if op2, got2, err := readFrame(bytes.NewReader(append(lenPrefix(uint32(len(raw))), raw...))); err != nil || op2 != plain || !bytes.Equal(got2, payload) {
			t.Fatalf("re-decode: op=%d err=%v", op2, err)
		}
		if _, _, err := readFrame(bytes.NewReader(payload)); err == nil && len(payload) > 0 {
			n := binary.LittleEndian.Uint32(payload)
			if int(n) > len(payload)-4 {
				t.Fatalf("readFrame fabricated a frame from %d stray bytes", len(payload))
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
				re := appendU32(nil, uint32(br.count))
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
	_, err := w.Write(sealFrame(append(openFrame(nil, opcode, tc), payload...)))
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
