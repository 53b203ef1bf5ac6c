package storage

import (
	"bytes"
	"errors"
	"testing"
)

func TestArtifactEnvelopeRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{
		nil,
		{},
		[]byte("x"),
		[]byte("hello, checkpoint"),
		bytes.Repeat([]byte{0xAB}, 4096),
	} {
		enc := EncodeArtifact(payload)
		got, err := DecodeArtifact(enc)
		if err != nil {
			t.Fatalf("decode %d-byte payload: %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round-trip mismatch for %d-byte payload", len(payload))
		}
	}
}

func TestArtifactEnvelopeRejectsMutation(t *testing.T) {
	payload := []byte("the quick brown fox jumps over the lazy dog")
	enc := EncodeArtifact(payload)
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x40
		if _, err := DecodeArtifact(mut); err == nil {
			t.Fatalf("byte %d: mutation not detected", i)
		} else if !errors.Is(err, ErrCorruptArtifact) {
			t.Fatalf("byte %d: error %v does not wrap ErrCorruptArtifact", i, err)
		}
	}
}

func TestArtifactEnvelopeRejectsTruncation(t *testing.T) {
	enc := EncodeArtifact([]byte("some payload worth protecting"))
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeArtifact(enc[:n]); !errors.Is(err, ErrCorruptArtifact) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrCorruptArtifact", n, err)
		}
	}
	// Trailing garbage is corruption too: the length field is exact.
	if _, err := DecodeArtifact(append(append([]byte(nil), enc...), 0)); !errors.Is(err, ErrCorruptArtifact) {
		t.Fatalf("trailing byte: got %v, want ErrCorruptArtifact", err)
	}
}

func TestWriteReadArtifactChecked(t *testing.T) {
	cs := NewMemCheckpointStore()
	payload := []byte("framed artifact")
	if err := WriteArtifactChecked(cs, "a", payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifactChecked(cs, "a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q, want %q", got, payload)
	}

	// The stored bytes are the envelope, not the raw payload.
	raw, err := ReadArtifact(cs, "a")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(raw, payload) {
		t.Fatal("artifact stored unframed")
	}

	// Corrupting the stored bytes must surface ErrCorruptArtifact, and the
	// read must NOT be retried into success (corruption is not transient).
	raw[len(raw)-1] ^= 1
	if err := WriteArtifact(cs, "a", raw); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifactChecked(cs, "a"); !errors.Is(err, ErrCorruptArtifact) {
		t.Fatalf("got %v, want ErrCorruptArtifact", err)
	}

	if _, err := ReadArtifactChecked(cs, "missing"); !IsNotFound(err) {
		t.Fatalf("missing artifact: got %v, want not-found", err)
	}
}

func FuzzArtifactEnvelope(f *testing.F) {
	f.Add([]byte(nil), uint16(0))
	f.Add([]byte("payload"), uint16(3))
	f.Add(bytes.Repeat([]byte{7}, 100), uint16(99))
	f.Fuzz(func(t *testing.T, payload []byte, mutPos uint16) {
		enc := EncodeArtifact(payload)
		got, err := DecodeArtifact(enc)
		if err != nil {
			t.Fatalf("decode of freshly encoded payload failed: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("round-trip mismatch")
		}
		// Any single-bit flip anywhere in the envelope must be rejected.
		mut := append([]byte(nil), enc...)
		i := int(mutPos) % len(mut)
		mut[i] ^= 1 << (mutPos % 8)
		if _, err := DecodeArtifact(mut); err == nil {
			t.Fatalf("bit flip at byte %d undetected", i)
		}
		// Decoding arbitrary bytes must never panic (error is fine).
		DecodeArtifact(payload) //nolint:errcheck
	})
}
