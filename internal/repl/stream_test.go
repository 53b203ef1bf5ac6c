package repl

import (
	"bytes"
	"io"
	"log"
	"net"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/wire"
)

// pipeConn is an in-memory connection: what is written to it is read back from
// it, in order, on the caller's goroutine.
type pipeConn struct{ bytes.Buffer }

func (*pipeConn) Close() error                     { return nil }
func (*pipeConn) LocalAddr() net.Addr              { return nil }
func (*pipeConn) RemoteAddr() net.Addr             { return nil }
func (*pipeConn) SetDeadline(time.Time) error      { return nil }
func (*pipeConn) SetReadDeadline(time.Time) error  { return nil }
func (*pipeConn) SetWriteDeadline(time.Time) error { return nil }

// idleReplica opens a one-shard replica whose upstream refuses connections and
// whose next dial is an hour away: its apply methods are the test's to drive.
// Also returns the device its log chunks are staged on.
func idleReplica(t *testing.T) (*Replica, *storage.MemDevice) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	refused := make(chan struct{}, 1)
	cfg, dev := testConfig(1), storage.NewMemDevice()
	cfg.DeviceFactory = func(int) (storage.Device, error) { return dev, nil }
	rep, err := NewReplica(Config{Upstream: ln.Addr().String(), StoreConfig: cfg, ReconnectEvery: time.Hour,
		Logger: log.New(writerFunc(func(p []byte) (int, error) { refused <- struct{}{}; return len(p), nil }), "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close(); rep.Store().Close() })
	<-refused // the pull loop has logged its failed dial and sleeps
	return rep, dev
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestInterleavedArtifactsSurviveBufferReuse: every frame of a connection is
// read into one buffer, so a handler that kept a view of its payload would see
// it overwritten by the next frame. Two artifacts whose pieces alternate on
// the stream, a log chunk between them, must each be stored as shipped.
func TestInterleavedArtifactsSurviveBufferReuse(t *testing.T) {
	rep, dev := idleReplica(t)
	a := bytes.Repeat([]byte("artifact-A/"), 40)
	b := bytes.Repeat([]byte("B-tcafitra."), 40)
	piece := func(name string, data []byte, from, to int) []byte {
		frame := wire.AppendString(wire.Open(nil, opArtifact), []byte(name))
		frame = wire.AppendU32(wire.AppendU32(frame, uint32(len(data))), uint32(from))
		return wire.Seal(append(frame, data[from:to]...))
	}
	chunk := wire.AppendU64(wire.AppendU32(wire.Open(nil, opChunk), 0), 64)
	chunk = wire.Seal(append(chunk, bytes.Repeat([]byte{0xC4}, 512)...))
	conn := &pipeConn{}
	for _, frame := range [][]byte{
		piece("meta-a", a, 0, 200), piece("meta-b", b, 0, 300), chunk,
		piece("meta-a", a, 200, len(a)), piece("meta-b", b, 300, len(b)),
	} {
		conn.Write(frame)
	}
	var rbuf []byte
	staging := make(map[string]*artifactBuf)
	for i := 0; i < 5; i++ {
		if err := rep.applyNext(conn, &rbuf, staging); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if err := rep.applyNext(conn, &rbuf, staging); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	for name, want := range map[string][]byte{"meta-a": a, "meta-b": b} {
		got, err := storage.ReadArtifact(rep.Store().Checkpoints(), name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: stored %q (err=%v), shipped %q", name, got, err, want)
		}
	}
	staged := make([]byte, 512)
	if _, err := dev.ReadAt(staged, 64); err != nil || !bytes.Equal(staged, bytes.Repeat([]byte{0xC4}, 512)) {
		t.Fatalf("the chunk between them was staged as % x... (err=%v)", staged[:8], err)
	}
}
