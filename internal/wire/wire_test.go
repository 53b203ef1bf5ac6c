package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// ref is the frame layout written out longhand, for the builder and the
// reader to be compared against: u32 LE length | opcode | payload.
func ref(opcode byte, payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(1+len(payload)))
	return append(append(out, opcode), payload...)
}

func TestFrameRoundTrip(t *testing.T) {
	payload := AppendValue(AppendString(AppendU64(AppendU32(nil, 7), 1<<40), []byte("key")), []byte("value"))
	frame := Seal(append(Open(nil, 3), payload...))
	if !bytes.Equal(frame, ref(3, payload)) {
		t.Fatalf("built % x, reference % x", frame, ref(3, payload))
	}
	var buf []byte
	op, got, err := Read(bytes.NewReader(frame), &buf)
	if err != nil || op != 3 || !bytes.Equal(got, payload) {
		t.Fatalf("read back op=%d payload % x err=%v", op, got, err)
	}
	if &buf[1] != &got[0] {
		t.Fatal("payload does not alias the caller's buffer")
	}
	u32, rest, err := TakeU32(got)
	if err != nil || u32 != 7 {
		t.Fatalf("u32=%d err=%v", u32, err)
	}
	u64, rest, err := TakeU64(rest)
	if err != nil || u64 != 1<<40 {
		t.Fatalf("u64=%d err=%v", u64, err)
	}
	k, rest, err := TakeString(rest)
	if err != nil || string(k) != "key" {
		t.Fatalf("key=%q err=%v", k, err)
	}
	v, rest, err := TakeValue(rest)
	if err != nil || string(v) != "value" || len(rest) != 0 {
		t.Fatalf("val=%q rest=%d err=%v", v, len(rest), err)
	}
}

// TestReadErrorsTyped: an oversized announcement fails before anything is
// allocated for it, a zero length is malformed, and a body cut short is the
// reader's error — each distinguishable with errors.Is.
func TestReadErrorsTyped(t *testing.T) {
	var buf []byte
	over := append(binary.LittleEndian.AppendUint32(nil, MaxFrame+1), 2)
	if _, _, err := Read(bytes.NewReader(over), &buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: err=%v, want ErrFrameTooLarge", err)
	}
	if cap(buf) > 64 {
		t.Fatalf("an oversized announcement grew the buffer to %d bytes", cap(buf))
	}
	if _, _, err := Read(bytes.NewReader([]byte{0, 0, 0, 0}), &buf); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("zero-length frame: err=%v, want ErrBadFrame", err)
	}
	short := io.MultiReader(bytes.NewReader([]byte{100, 0, 0, 0, 2}), bytes.NewReader([]byte("only ten b")))
	if _, _, err := Read(short, &buf); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated body: err=%v, want io.ErrUnexpectedEOF", err)
	}
	if _, _, err := Read(bytes.NewReader([]byte{1, 0}), &buf); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated length: err=%v, want io.ErrUnexpectedEOF", err)
	}
	if _, _, err := Read(bytes.NewReader(nil), &buf); err != io.EOF {
		t.Fatalf("clean end of stream: err=%v, want io.EOF", err)
	}
}

func TestScalarTruncation(t *testing.T) {
	for name, err := range map[string]error{
		"u32":          errOf(TakeU32([]byte{1, 2, 3})),
		"u64":          errOf(TakeU64([]byte{1})),
		"string len":   errOf(TakeString([]byte{5})),
		"string body":  errOf(TakeString([]byte{5, 0, 'a'})),
		"value len":    errOf(TakeValue([]byte{1, 2})),
		"value body":   errOf(TakeValue([]byte{9, 0, 0, 0, 'a'})),
		"value 4 GiB":  errOf(TakeValue([]byte{0xff, 0xff, 0xff, 0xff})),
		"string 64KiB": errOf(TakeString([]byte{0xff, 0xff, 1, 2, 3})),
	} {
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("truncated %s: err=%v, want ErrBadFrame", name, err)
		}
	}
}

func errOf[A, B any](_ A, _ B, err error) error { return err }

// FuzzFrame: for any opcode and payload the in-place builder, on a dirty
// reused buffer, produces the reference layout byte for byte; two frames read
// back to back through one dirty reused buffer come out whole and do not leak
// into each other; every strict prefix of a frame fails cleanly; and arbitrary
// bytes taken as a stream never panic, never yield a frame longer than what
// was supplied or than MaxFrame, and never a zero-length one.
func FuzzFrame(f *testing.F) {
	f.Add(byte(3), []byte("hello"))
	f.Add(byte(0), []byte{})
	f.Add(byte(255), bytes.Repeat([]byte{0xAA}, 1024))
	// Frames as the three protocols build them. repl: an opChunk (u32 shard |
	// u64 offset | log bytes), an opCommit (token | version | kind | shards |
	// end | floor) and an opError; inlog: a message, whose first byte is both
	// the message's op and the frame's opcode (uvarint key length | key | value).
	f.Add(byte(3), AppendU64(AppendU32(nil, 1), 64)[:12])
	f.Add(byte(3), append(AppendU64(AppendU32(nil, 0), 1<<20), bytes.Repeat([]byte{0x11}, 300)...))
	f.Add(byte(5), AppendU64(AppendU64(AppendU32(append(AppendU32(AppendString(nil, []byte("ckpt-000001")), 2), 0), 1), 4096), 4096))
	f.Add(byte(7), AppendString(nil, []byte("shard count mismatch: replica 1, primary 2")))
	f.Add(byte(2), append([]byte{2, 'k', '1'}, "val"...))
	f.Add(byte(1), []byte{8, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0})
	// Raw-stream seeds: an oversize announcement, a zero length, a body short
	// of its announcement.
	f.Add(byte(2), binary.LittleEndian.AppendUint32(nil, MaxFrame+1))
	f.Add(byte(2), []byte{0, 0, 0, 0, 9})
	f.Add(byte(2), []byte{100, 0, 0, 0, 2, 'x'})
	f.Fuzz(func(t *testing.T, opcode byte, payload []byte) {
		if len(payload) >= MaxFrame {
			t.Skip()
		}
		want := ref(opcode, payload)
		wbuf := bytes.Repeat([]byte{0x5A}, 7)
		wbuf = Seal(append(Open(wbuf, opcode), payload...))
		if !bytes.Equal(wbuf, want) {
			t.Fatalf("in-place frame differs from the reference layout")
		}
		other := Seal(append(Open(nil, ^opcode), "second frame"...))
		rd, rbuf := bytes.NewReader(append(append([]byte(nil), wbuf...), other...)), bytes.Repeat([]byte{0xA5}, 9)
		if op, got, err := Read(rd, &rbuf); err != nil || op != opcode || !bytes.Equal(got, payload) {
			t.Fatalf("round trip: op %d/%d, %d/%d bytes, err %v", op, opcode, len(got), len(payload), err)
		}
		if op, got, err := Read(rd, &rbuf); err != nil || op != ^opcode || string(got) != "second frame" {
			t.Fatalf("second frame through the reused buffer: op %d %q err %v", op, got, err)
		}
		if _, _, err := Read(rd, &rbuf); err != io.EOF {
			t.Fatalf("end of stream: err %v", err)
		}
		for _, cut := range []int{1, 3, 4, len(want) - 1} {
			if cut < len(want) {
				if _, _, err := Read(bytes.NewReader(want[:cut]), &rbuf); err == nil {
					t.Fatalf("a frame cut to %d of %d bytes was accepted", cut, len(want))
				}
			}
		}

		// The payload itself as a raw stream.
		op, got, err := Read(bytes.NewReader(payload), &rbuf)
		switch {
		case err == nil:
			n := binary.LittleEndian.Uint32(payload)
			if n == 0 || n > MaxFrame || int(n) > len(payload)-4 || len(got) != int(n)-1 || op != payload[4] {
				t.Fatalf("fabricated a %d-byte frame from %d stray bytes", len(got)+1, len(payload))
			}
		case len(payload) >= 4 && binary.LittleEndian.Uint32(payload) > MaxFrame:
			if !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("oversize announcement: err %v", err)
			}
		case len(payload) >= 4 && binary.LittleEndian.Uint32(payload) == 0:
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("zero length: err %v", err)
			}
		}
	})
}
