package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
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

// putRaw stores data under name as it is, with no envelope around it.
func putRaw(cs CheckpointStore, name string, data []byte) error {
	w, err := cs.Create(name)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		abandon(w, err)
		return err
	}
	return w.Close()
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
	if err := putRaw(cs, "a", raw); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifactChecked(cs, "a"); !errors.Is(err, ErrCorruptArtifact) {
		t.Fatalf("got %v, want ErrCorruptArtifact", err)
	}

	if _, err := ReadArtifactChecked(cs, "missing"); !IsNotFound(err) {
		t.Fatalf("missing artifact: got %v, want not-found", err)
	}
}

// streamed reads an artifact held as data through the stream reader, the way
// recovery reads a blob: the consumer (if the envelope's head lets it start)
// reads to the end and reports what its own reader said, and
// ReadArtifactStream what it says of the envelope.
func streamed(data []byte) (got []byte, consumerErr, err error) {
	cs := NewMemCheckpointStore()
	if err := putRaw(cs, "a", data); err != nil {
		return nil, nil, err
	}
	consumerErr = errors.New("never started")
	err = ReadArtifactStream(cs, "a", func(r io.Reader, n int64) error {
		got, consumerErr = io.ReadAll(r)
		if consumerErr == nil && int64(len(got)) != n {
			consumerErr = fmt.Errorf("read %d payload bytes, told %d", len(got), n)
		}
		return consumerErr
	})
	return got, consumerErr, err
}

// cpr1 is payload in the envelope this one replaced: magic "CPR1", then the
// checksum and the length, then the payload.
func cpr1(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32([]byte("CPR1"), crc32.Checksum(payload, castagnoli))
	return append(binary.LittleEndian.AppendUint64(out, uint64(len(payload))), payload...)
}

// FuzzArtifactEnvelope: whole and streamed, an encoded payload round-trips;
// a flipped bit, a truncation and a torn tail (the end of the artifact never
// written: zeros) fail both decoders as ErrCorruptArtifact — the streamed
// consumer sees the failure in place of io.EOF, so it never acts on bytes that
// did not verify — and the parent's CPR1 envelope is refused by name. Neither
// decoder panics on arbitrary bytes.
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
		if got, _, err := streamed(enc); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("streamed read of a fresh artifact: %d bytes, %v", len(got), err)
		}
		i := int(mutPos) % len(enc)
		flipped := bytes.Clone(enc)
		flipped[i] ^= 1 << (mutPos % 8)
		torn := append(bytes.Clone(enc[:i]), make([]byte, len(enc)-i)...)
		for name, bad := range map[string][]byte{"bit flip": flipped, "truncation": enc[:i], "torn tail": torn} {
			if bytes.Equal(bad, enc) {
				continue // the tail was zero already
			}
			if _, err := DecodeArtifact(bad); !errors.Is(err, ErrCorruptArtifact) {
				t.Fatalf("%s at byte %d: DecodeArtifact says %v", name, i, err)
			}
			_, consumerErr, err := streamed(bad)
			if !errors.Is(err, ErrCorruptArtifact) || consumerErr == nil {
				t.Fatalf("%s at byte %d: streamed read says %v, its consumer %v", name, i, err, consumerErr)
			}
		}
		if _, _, err := streamed(cpr1(payload)); err == nil || !strings.Contains(err.Error(), "CPR1") {
			t.Fatalf("a CPR1 artifact: %v, want a refusal naming it", err)
		}
		if _, err := DecodeArtifact(cpr1(payload)); err == nil || !strings.Contains(err.Error(), "CPR1") {
			t.Fatalf("a CPR1 artifact: %v, want a refusal naming it", err)
		}
		DecodeArtifact(payload) //nolint:errcheck // must not panic
		streamed(payload)       //nolint:errcheck
	})
}

// TestFailedWriteKeepsPreviousArtifact: a write whose producer fails publishes
// nothing, in every store here, so the name keeps the artifact it had rather
// than a torn one (the in-memory store used to publish what had been written).
func TestFailedWriteKeepsPreviousArtifact(t *testing.T) {
	dir, err := NewDirCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, cs := range map[string]CheckpointStore{
		"mem":   NewMemCheckpointStore(),
		"dir":   dir,
		"fault": NewFaultCheckpointStore(NewMemCheckpointStore(), NewInjector(FaultConfig{Seed: 1})),
	} {
		t.Run(name, func(t *testing.T) {
			good := []byte("the good artifact")
			if err := WriteArtifactChecked(cs, "a", good); err != nil {
				t.Fatal(err)
			}
			failed := errors.New("the producer failed")
			_, err := WriteArtifactStream(cs, "a", func(w io.Writer) error {
				w.Write([]byte("tor")) //nolint:errcheck // the failure below is the point
				return failed
			}, nil, 0)
			if !errors.Is(err, failed) {
				t.Fatalf("failed write returned %v", err)
			}
			if got, err := ReadArtifactChecked(cs, "a"); err != nil || !bytes.Equal(got, good) {
				t.Fatalf("after a failed write the artifact reads %q (err=%v), want %q", got, err, good)
			}
			if _, err := WriteArtifactStream(cs, "b", func(io.Writer) error { return failed }, nil, 0); !errors.Is(err, failed) {
				t.Fatalf("failed write returned %v", err)
			}
			if names, _ := cs.List(); len(names) != 1 || names[0] != "a" {
				t.Fatalf("a failed first write left artifacts %v", names)
			}
		})
	}
}

// TestArtifactNameStaysInDirectory: a directory store refuses a name that
// would leave its directory, for Create, Open and Remove alike; a name with
// '/' still maps to a subdirectory.
func TestArtifactNameStaysInDirectory(t *testing.T) {
	root := t.TempDir()
	cs, err := NewDirCheckpointStore(filepath.Join(root, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "outside"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"../escaped", "a/../../escaped", "/tmp/escaped", "", ".."} {
		if err := WriteArtifactChecked(cs, name, []byte("payload")); err == nil {
			t.Errorf("Create(%q) succeeded", name)
		}
	}
	if _, err := os.Stat(filepath.Join(root, "escaped")); !os.IsNotExist(err) {
		t.Fatalf("an artifact was written outside the directory (stat: %v)", err)
	}
	if r, err := cs.Open("../outside"); err == nil {
		r.Close()
		t.Error(`Open("../outside") succeeded`)
	}
	if err := cs.Remove("../outside"); err == nil {
		t.Error(`Remove("../outside") succeeded`)
	}
	if _, err := os.Stat(filepath.Join(root, "outside")); err != nil {
		t.Fatalf("the file beside the directory is gone: %v", err)
	}
	if err := WriteArtifactChecked(cs, "sub/a", []byte("payload")); err != nil {
		t.Fatalf("a name with a subdirectory: %v", err)
	}
	if got, err := ReadArtifactChecked(cs, "sub/a"); err != nil || string(got) != "payload" {
		t.Fatalf("sub/a reads %q (err=%v)", got, err)
	}
}
