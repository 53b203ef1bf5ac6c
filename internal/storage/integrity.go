package storage

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"

	"repro/internal/obs"
)

// Checkpoint artifacts are framed in a checksum envelope, written and read as a
// stream so that neither side holds a blob whole:
//
//	offset  size  field
//	0       4     magic "CPR2"
//	4       n     payload
//	4+n     4     CRC32-C (Castagnoli) of the payload, little-endian
//	8+n     8     payload length n, little-endian
//
// The checksum and length trail the payload: a streamed writer knows them last.
// A reader takes n from the artifact's size and reports io.EOF only once the
// trailer agrees, so nothing acts on a payload that did not verify. Wrong magic,
// a disagreeing trailer (truncation, trailing garbage) or a checksum mismatch is
// ErrCorruptArtifact; "CPR1", the envelope this one replaced, is refused by name.

var envelopeMagic = [4]byte{'C', 'P', 'R', '2'}

const envelopeOverhead = 4 + 12 // the magic, the trailer

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
	out := append(append(make([]byte, 0, len(payload)+envelopeOverhead), envelopeMagic[:]...), payload...)
	return appendTrailer(out, crc32.Checksum(payload, castagnoli), int64(len(payload)))
}

// DecodeArtifact strips and verifies the checksum envelope, returning the
// payload. The returned slice aliases data. Any framing or checksum violation
// returns an error wrapping ErrCorruptArtifact.
func DecodeArtifact(data []byte) ([]byte, error) {
	if err := checkHead(data, int64(len(data))); err != nil {
		return nil, err
	}
	payload, trailer := data[4:len(data)-12], data[len(data)-12:]
	return payload, checkTrailer(trailer, crc32.Checksum(payload, castagnoli), int64(len(payload)))
}

// checkHead checks the first bytes of an artifact of size bytes.
func checkHead(head []byte, size int64) error {
	switch {
	case len(head) >= 4 && string(head[:4]) == "CPR1":
		return errors.New("storage: a CPR1 envelope, from before the streamed one; this version cannot read it")
	case size < envelopeOverhead:
		return fmt.Errorf("%w: %d bytes, shorter than the %d-byte envelope", ErrCorruptArtifact, size, envelopeOverhead)
	case [4]byte(head) != envelopeMagic:
		return fmt.Errorf("%w: bad magic %q", ErrCorruptArtifact, head[:4])
	}
	return nil
}

func appendTrailer(dst []byte, crc uint32, n int64) []byte {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(dst, crc), uint64(n))
}

// checkTrailer checks trailer t against the n payload bytes of checksum crc.
func checkTrailer(t []byte, crc uint32, n int64) error {
	if got := binary.LittleEndian.Uint64(t[4:]); got != uint64(n) {
		return fmt.Errorf("%w: payload is %d bytes, trailer says %d (torn write?)", ErrCorruptArtifact, n, got)
	}
	if want := binary.LittleEndian.Uint32(t); want != crc {
		return fmt.Errorf("%w: CRC32C mismatch (stored %08x, computed %08x)", ErrCorruptArtifact, want, crc)
	}
	return nil
}

// WriteArtifactChecked persists payload under name inside the checksum
// envelope: WriteArtifactStream without flight events.
func WriteArtifactChecked(cs CheckpointStore, name string, payload []byte) error {
	_, err := WriteArtifactStream(cs, name, Payload(payload), nil, -1, 0)
	return err
}

// Payload is WriteArtifactStream's produce for a payload at hand.
func Payload(p []byte) func(w io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(p)
		return err
	}
}

// WriteArtifactStream persists under name, in the checksum envelope, what
// produce writes: each write goes to the store as it comes (so produce writes
// large pieces), and the payload is never whole in memory. Transient store
// errors rewrite the artifact whole, produce included; others are returned, for
// the caller to abort its commit. fr gets an artifact-retry event per retried
// failure and an artifact-write on success, named by the artifact (so a
// commit's token matches its artifacts). It returns the payload's length.
func WriteArtifactStream(cs CheckpointStore, name string, produce func(w io.Writer) error, fr *obs.FlightRecorder, shard int, version uint64) (int64, error) {
	a := &artifactWriter{}
	attempt := 0
	err := DefaultRetry.Do(func() error {
		attempt++
		f, err := cs.Create(name)
		if err != nil {
			return err
		}
		*a = artifactWriter{w: f}
		if _, err = f.Write(envelopeMagic[:]); err == nil {
			err = produce(a)
		}
		if err == nil {
			_, err = f.Write(appendTrailer(nil, a.crc, a.n))
		}
		if err = cmp.Or(err, f.Close()); IsTransient(err) && attempt < DefaultRetry.Attempts {
			fr.Emit(obs.FlightArtifactRetry, shard, version, name, "", uint64(attempt), 0)
		}
		return err
	})
	if err == nil {
		fr.Emit(obs.FlightArtifactWrite, shard, version, name, "", uint64(a.n), 0)
	}
	return a.n, err
}

// artifactWriter checksums and counts the payload on its way to the store.
type artifactWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (a *artifactWriter) Write(p []byte) (int, error) {
	n, err := a.w.Write(p)
	a.crc = crc32.Update(a.crc, castagnoli, p[:n])
	a.n += int64(n)
	return n, err
}

// ReadArtifactChecked reads the named artifact, verifies its envelope, and
// returns the payload (see ReadArtifactStream).
func ReadArtifactChecked(cs CheckpointStore, name string) (payload []byte, err error) {
	err = ReadArtifactStream(cs, name, func(r io.Reader, n int64) error {
		payload = make([]byte, n)
		_, err := io.ReadFull(r, payload)
		return err
	})
	return payload, err
}

// ReadArtifactStream hands read the named artifact's payload as a stream, with
// its length, and verifies the envelope (a nil read only verifies). Keep what
// read builds only if it returns nil: a failed envelope is its error, whatever
// read made of the bytes. Transient errors retry the whole read; corruption
// does not (the caller decides whether a fallback commit exists). Not-found
// errors satisfy IsNotFound.
func ReadArtifactStream(cs CheckpointStore, name string, read func(r io.Reader, n int64) error) error {
	err := DefaultRetry.Do(func() error {
		f, err := cs.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
		var head [4]byte
		size, err := artifactSize(f)
		if err == nil {
			_, err = io.ReadFull(f, head[:min(size, 4)])
		}
		if err = cmp.Or(err, checkHead(head[:], size)); err != nil {
			return err
		}
		a := &artifactReader{r: f, n: size - envelopeOverhead, left: size - envelopeOverhead}
		if read != nil {
			err = read(a, a.n)
		}
		_, cerr := io.Copy(io.Discard, a) // the rest, and the trailer
		return cmp.Or(cerr, err)
	})
	if err != nil {
		return fmt.Errorf("storage: artifact %q: %w", name, err)
	}
	return nil
}

// artifactSize is the length of the artifact f reads (where its payload ends):
// every store here opens a file or an in-memory reader, and both know it.
func artifactSize(f io.Reader) (int64, error) {
	if f, ok := f.(interface{ Size() int64 }); ok {
		return f.Size(), nil
	}
	if f, ok := f.(interface{ Stat() (fs.FileInfo, error) }); ok {
		fi, err := f.Stat()
		if err != nil {
			return 0, err
		}
		return fi.Size(), nil
	}
	return 0, fmt.Errorf("storage: a %T does not tell the artifact's size", f)
}

// artifactReader hands out the n payload bytes of an artifact as it reads them
// and checks the trailer behind them: io.EOF means the envelope verified.
type artifactReader struct {
	r       io.Reader
	n, left int64
	crc     uint32
	err     error // sticky
}

func (a *artifactReader) Read(p []byte) (n int, err error) {
	if a.err != nil {
		return 0, a.err
	}
	if a.left > 0 {
		n, err = a.r.Read(p[:min(int64(len(p)), a.left)])
		a.crc = crc32.Update(a.crc, castagnoli, p[:n])
		if a.left -= int64(n); err == io.EOF && n > 0 {
			err = nil
		}
	} else {
		var t [12]byte
		if _, err = io.ReadFull(a.r, t[:]); err == nil {
			err = cmp.Or(checkTrailer(t[:], a.crc, a.n), errVerified)
		}
	}
	switch err {
	case io.EOF, io.ErrUnexpectedEOF: // before the trailer's end
		a.err = fmt.Errorf("%w: the artifact ends early (torn write?)", ErrCorruptArtifact)
	case errVerified:
		a.err = io.EOF
	default:
		a.err = err
	}
	return n, a.err
}

var errVerified = errors.New("verified")
