package inlog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzGroupFrame hammers the group framing from both directions: any set of
// payloads must round-trip through sealFrame/parseFrame, and arbitrary byte
// soup fed to the parser must either yield exactly a frame that a legitimate
// writer could have produced or fail as torn — never panic, never mis-frame.
func FuzzGroupFrame(f *testing.F) {
	f.Add(uint64(0), []byte{}, uint8(1), []byte{})
	f.Add(uint64(1), []byte("hello"), uint8(3), []byte("garbage"))
	f.Add(uint64(1<<40), bytes.Repeat([]byte{0xAB}, 300), uint8(2), []byte(frameMagic))
	f.Add(uint64(7), []byte("x"), uint8(64), buildFrame(7, []byte("seed-payload"), nil, []byte("z")))
	f.Add(uint64(7), []byte("x"), uint8(1), oldRecord(7, []byte("old-format")))
	// The ingest wire form the log carries in practice.
	msg := EncodeMessage(nil, Message{Op: OpRMW, Key: []byte("k1234567"), Value: []byte{1, 0, 0, 0, 0, 0, 0, 0}})
	f.Add(uint64(3), msg, uint8(5), buildFrame(3, msg, msg))

	f.Fuzz(func(t *testing.T, base uint64, payload []byte, count uint8, raw []byte) {
		// A group of 1 + count%8 records: the payload, then ever shorter
		// prefixes of it (so empty records occur too).
		var payloads [][]byte
		for i := 0; i <= int(count%8); i++ {
			payloads = append(payloads, payload[:len(payload)/(i+1)])
		}
		frame := buildFrame(base, payloads...)

		// Round-trip: a frame written at `base` parses back exactly when the
		// reader expects that offset...
		g, n, err := parseFrame(frame, base)
		if err != nil {
			t.Fatalf("round-trip parse failed: %v", err)
		}
		if n != len(frame) || g.Offset() != base || g.end != base+uint64(len(payloads)) {
			t.Fatalf("round-trip mismatch: n=%d len=%d group [%d, %d)", n, len(frame), g.Offset(), g.end)
		}
		for i, want := range payloads {
			got, ok := g.Next()
			if !ok || !bytes.Equal(got, want) {
				t.Fatalf("record %d = (%q, %v), want %q", i, got, ok, want)
			}
		}
		if _, ok := g.Next(); ok {
			t.Fatal("group yielded more records than were written")
		}
		// ... and under any other expected offset it reads as torn, which is
		// what keeps stale bytes past a logical truncation unparseable.
		if _, _, err := parseFrame(frame, base+1); err != errTorn {
			t.Fatalf("offset-mismatched frame parsed: %v", err)
		}

		// Every strict prefix of a frame is a torn group, not garbage data.
		for _, cut := range []int{0, 1, frameHeader - 1, frameHeader, len(frame) / 2, len(frame) - 1} {
			if _, _, err := parseFrame(frame[:cut], base); err != errTorn {
				t.Fatalf("prefix of %d bytes parsed as whole group: %v", cut, err)
			}
		}
		// Any single bit flip is caught (CRC-32C detects every 1-bit error).
		flipped := append([]byte(nil), frame...)
		bit := (int(count) * 2654435761) % (len(frame) * 8)
		flipped[bit/8] ^= 1 << (bit % 8)
		if _, _, err := parseFrame(flipped, base); err != errTorn {
			t.Fatalf("frame with bit %d flipped parsed: %v", bit, err)
		}

		// Arbitrary bytes: must not panic; on success the reported length
		// must stay in bounds, the frame must re-verify bit-for-bit and its
		// records must tile the body.
		g, n, err = parseFrame(raw, base)
		if err == nil {
			if n < frameHeader || n > len(raw) {
				t.Fatalf("parse of raw bytes reported length %d of %d", n, len(raw))
			}
			if crc32.Update(0, castagnoli, raw[8:n]) != binary.LittleEndian.Uint32(raw[4:8]) {
				t.Fatalf("accepted frame fails CRC re-verification")
			}
			var body int
			for p, ok := g.Next(); ok; p, ok = g.Next() {
				body += len(binary.AppendUvarint(nil, uint64(len(p)))) + len(p)
			}
			if frameHeader+body != n {
				t.Fatalf("accepted frame of %d bytes yields records covering %d", n, frameHeader+body)
			}
		}
		// scanFrames over the same soup: never panics, never reports more
		// valid bytes than it was given.
		if _, end, valid, _ := scanFrames(raw, base); valid > int64(len(raw)) || end < base {
			t.Fatalf("scanFrames(%d bytes) = end %d valid %d", len(raw), end, valid)
		}
	})
}

// TestFrameRejectsEveryPrefixAndBitFlip is the exhaustive, deterministic form
// of the fuzzer's core properties on one frame: every strict prefix is torn,
// every single-bit flip fails, and a valid frame is rejected at any base
// offset but its own.
func TestFrameRejectsEveryPrefixAndBitFlip(t *testing.T) {
	frame := buildFrame(41, []byte("alpha"), nil, bytes.Repeat([]byte{7}, 200), []byte("omega"))
	if g, n, err := parseFrame(frame, 41); err != nil || n != len(frame) || g.end != 45 {
		t.Fatalf("valid frame: group end %d, n %d, err %v", g.end, n, err)
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := parseFrame(frame[:cut], 41); err != errTorn {
			t.Fatalf("prefix of %d bytes: %v, want errTorn", cut, err)
		}
	}
	for bit := 0; bit < len(frame)*8; bit++ {
		frame[bit/8] ^= 1 << (bit % 8)
		if _, _, err := parseFrame(frame, 41); err != errTorn {
			t.Fatalf("bit %d flipped: %v, want errTorn", bit, err)
		}
		frame[bit/8] ^= 1 << (bit % 8)
	}
	for _, want := range []uint64{0, 40, 42, 45} {
		if _, _, err := parseFrame(frame, want); err != errTorn {
			t.Fatalf("frame for base 41 accepted at base %d", want)
		}
	}
	// Trailing bytes after a whole frame are not its business.
	if _, n, err := parseFrame(append(frame, "stale"...), 41); err != nil || n != len(frame) {
		t.Fatalf("frame followed by stale bytes: n %d, err %v", n, err)
	}
}

// TestTornPrefixTruncation: a log whose final group is cut at EVERY possible
// byte boundary reopens cleanly at the last whole group — a torn tail is
// truncation, not corruption — and loses every record of the torn group, not
// just the ones past the cut.
func TestTornPrefixTruncation(t *testing.T) {
	whole := append(buildFrame(0, []byte("aa"), []byte("bb")), buildFrame(2, []byte("cc"))...)
	last := buildFrame(3, []byte("final-group"), []byte("of-two"))

	for cut := 0; cut < len(last); cut++ {
		segs := NewMemSegmentStore()
		dev, err := segs.Open(0)
		if err != nil {
			t.Fatal(err)
		}
		torn := append(append([]byte{}, whole...), last[:cut]...)
		if _, err := dev.WriteAt(torn, 0); err != nil {
			t.Fatal(err)
		}
		dev.Close()

		l, err := Open(Config{Segments: segs, Fsync: FsyncManual})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if l.Tail() != 3 {
			t.Fatalf("cut %d: tail = %d, want 3", cut, l.Tail())
		}
		// The truncated slot is reusable: a fresh append lands at offset 3
		// and survives reopen even though stale bytes sat past the tail.
		if off, err := l.Append([]byte("replacement")); err != nil || off != 3 {
			t.Fatalf("cut %d: append after truncation: off=%d err=%v", cut, off, err)
		}
		l.Close()

		re, err := Open(Config{Segments: segs, Fsync: FsyncManual})
		if err != nil {
			t.Fatalf("cut %d: second reopen: %v", cut, err)
		}
		if re.Tail() != 4 {
			t.Fatalf("cut %d: tail after replacement = %d, want 4", cut, re.Tail())
		}
		if got, err := re.Read(3); err != nil || string(got) != "replacement" {
			t.Fatalf("cut %d: read(3) = %q, %v", cut, got, err)
		}
		re.Close()
	}
}
