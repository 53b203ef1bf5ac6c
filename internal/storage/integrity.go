package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
)

// Checkpoint artifacts are framed in a checksum envelope so that recovery can
// distinguish a fully-written artifact from a torn write or bit rot before
// deserializing a single byte of it:
//
//	offset  size  field
//	0       4     magic "CPR1"
//	4       4     CRC32-C (Castagnoli) of payload, little-endian
//	8       8     payload length, little-endian
//	16      n     payload
//
// Decoding is strict: wrong magic, a length that disagrees with the actual
// artifact size (truncation / trailing garbage), or a checksum mismatch all
// yield ErrCorruptArtifact. The envelope is what WriteArtifactChecked /
// ReadArtifactChecked speak; faster and txdb persist every commit artifact —
// manifests included — through them.

// envelopeMagic marks a checksum-framed artifact.
var envelopeMagic = [4]byte{'C', 'P', 'R', '1'}

// envelopeHeaderSize is the framing overhead per artifact.
const envelopeHeaderSize = 16

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptArtifact reports that an artifact failed its integrity check:
// torn (truncated) write, bit corruption, or not a framed artifact at all.
// Test with errors.Is.
var ErrCorruptArtifact = errors.New("storage: corrupt checkpoint artifact")

// ErrNotFound reports that a named artifact does not exist. MemCheckpointStore
// wraps it; DirCheckpointStore surfaces fs.ErrNotExist. Use IsNotFound to
// cover both.
var ErrNotFound = errors.New("storage: artifact not found")

// IsNotFound reports whether err means "no such artifact" (as opposed to an
// I/O failure or corruption), for any CheckpointStore implementation.
func IsNotFound(err error) bool {
	return errors.Is(err, ErrNotFound) || errors.Is(err, fs.ErrNotExist)
}

// EncodeArtifact frames payload in the checksum envelope.
func EncodeArtifact(payload []byte) []byte {
	return buildArtifact(len(payload), func(dst []byte) []byte { return append(dst, payload...) })
}

// buildArtifact frames the payload build appends to dst, which arrives with
// the header reserved and room for payloadCap more bytes: a producer that
// knows its size is framed and checksummed in the one allocation.
func buildArtifact(payloadCap int, build func(dst []byte) []byte) []byte {
	out := build(make([]byte, envelopeHeaderSize, envelopeHeaderSize+payloadCap))
	payload := out[envelopeHeaderSize:]
	copy(out[0:4], envelopeMagic[:])
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint64(out[8:16], uint64(len(payload)))
	return out
}

// DecodeArtifact strips and verifies the checksum envelope, returning the
// payload. The returned slice aliases data. Any framing or checksum violation
// returns an error wrapping ErrCorruptArtifact.
func DecodeArtifact(data []byte) ([]byte, error) {
	if len(data) < envelopeHeaderSize {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the %d-byte envelope header",
			ErrCorruptArtifact, len(data), envelopeHeaderSize)
	}
	if [4]byte(data[0:4]) != envelopeMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptArtifact, string(data[0:4]))
	}
	wantCRC := binary.LittleEndian.Uint32(data[4:8])
	wantLen := binary.LittleEndian.Uint64(data[8:16])
	payload := data[envelopeHeaderSize:]
	if uint64(len(payload)) != wantLen {
		return nil, fmt.Errorf("%w: payload is %d bytes, header says %d (torn write?)",
			ErrCorruptArtifact, len(payload), wantLen)
	}
	if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
		return nil, fmt.Errorf("%w: CRC32C mismatch (stored %08x, computed %08x)",
			ErrCorruptArtifact, wantCRC, got)
	}
	return payload, nil
}

// WriteArtifactChecked persists payload under name inside the checksum
// envelope, retrying transient store errors with DefaultRetry. A torn write
// that does manage to persist a prefix is repaired by the retry (the artifact
// is rewritten whole); an exhausted or permanent error is returned so the
// caller can abort its commit cleanly.
func WriteArtifactChecked(cs CheckpointStore, name string, payload []byte) error {
	return WriteArtifactCheckedObserved(cs, name, payload, nil)
}

// WriteArtifactCheckedObserved is WriteArtifactChecked with a retry hook:
// onRetry(attempt, err) fires after each transient failure that will be
// retried (attempt counts failed tries from 1). The flight recorder uses it
// to log artifact-retry events.
func WriteArtifactCheckedObserved(cs CheckpointStore, name string, payload []byte, onRetry func(attempt int, err error)) error {
	_, err := WriteArtifactBuilt(cs, name, len(payload),
		func(dst []byte) []byte { return append(dst, payload...) }, onRetry)
	return err
}

// WriteArtifactBuilt is WriteArtifactCheckedObserved for a payload the caller
// produces by appending (see buildArtifact; payloadCap is a capacity hint). It
// returns the payload's length.
func WriteArtifactBuilt(cs CheckpointStore, name string, payloadCap int, build func(dst []byte) []byte, onRetry func(attempt int, err error)) (int, error) {
	framed := buildArtifact(payloadCap, build)
	attempt := 0
	return len(framed) - envelopeHeaderSize, DefaultRetry.Do(func() error {
		attempt++
		err := WriteArtifact(cs, name, framed)
		if err != nil && onRetry != nil && IsTransient(err) && attempt < DefaultRetry.Attempts {
			onRetry(attempt, err)
		}
		return err
	})
}

// ReadArtifactChecked reads the named artifact, verifies its envelope, and
// returns the payload. Transient read errors are retried with DefaultRetry;
// corruption is not retried at this level (the bytes at rest are wrong — the
// caller decides whether a fallback commit exists). Not-found errors satisfy
// IsNotFound.
func ReadArtifactChecked(cs CheckpointStore, name string) ([]byte, error) {
	var payload []byte
	err := DefaultRetry.Do(func() error {
		data, err := ReadArtifact(cs, name)
		if err != nil {
			return err
		}
		payload, err = DecodeArtifact(data)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("storage: artifact %q: %w", name, err)
	}
	return payload, nil
}
