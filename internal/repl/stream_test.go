package repl

import (
	"bytes"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
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

// idleReplica opens a replica over the checkpoint store cs whose
// upstream refuses connections and whose next dial is an hour away: its apply
// methods are the test's to drive.
func idleReplica(t *testing.T, cs storage.CheckpointStore) *Replica {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	refused := make(chan struct{}, 1)
	cfg := testConfig()
	cfg.Checkpoints = cs
	rep, err := NewReplica(Config{Upstream: ln.Addr().String(), StoreConfig: cfg, ReconnectEvery: time.Hour,
		Logger: log.New(writerFunc(func(p []byte) (int, error) { refused <- struct{}{}; return len(p), nil }), "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close(); rep.Store().Close() })
	<-refused // the pull loop has logged its failed dial and sleeps
	return rep
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// artifactFrames spells name's payload as the primary ships it: pieces of the
// given sizes, then the empty frame that ends it.
func artifactFrames(name string, data []byte, pieces ...int) [][]byte {
	var frames [][]byte
	for _, n := range pieces {
		frames = append(frames, wire.Seal(append(wire.AppendString(wire.Open(nil, opArtifact), []byte(name)), data[:n]...)))
		data = data[n:]
	}
	return append(frames, wire.Seal(wire.AppendString(wire.Open(nil, opArtifact), []byte(name))))
}

// TestInterleavedArtifactsSurviveBufferReuse: every frame of a connection is
// read into one buffer, and an artifact is written through as its frames
// arrive, so it must be stored as shipped though each frame overwrites the
// last. Artifacts no longer interleave: an artifact interrupted by another
// artifact's frame, by a log chunk or by the end of the connection publishes
// nothing, and the name keeps the copy it had.
func TestInterleavedArtifactsSurviveBufferReuse(t *testing.T) {
	a := bytes.Repeat([]byte("artifact-A/"), 40)
	b := bytes.Repeat([]byte("B-tcafitra."), 40)
	chunk := wire.AppendU64(wire.AppendU32(wire.Open(nil, opChunk), 0), 64)
	chunk = wire.Seal(append(chunk, bytes.Repeat([]byte{0xC4}, 512)...))
	whole := artifactFrames("meta-a", a, 200, len(a)-200)
	for _, c := range []struct {
		name   string
		frames [][]byte
	}{
		{"complete", whole},
		{"another artifact's frame", append(whole[:1:1], artifactFrames("meta-b", b, 300)...)},
		{"a log chunk", append(whole[:1:1], chunk)},
		{"the end of the connection", whole[:2]},
	} {
		t.Run(c.name, func(t *testing.T) {
			rep := idleReplica(t, storage.NewMemCheckpointStore())
			cs := rep.Store().Checkpoints()
			old := []byte("the previous copy")
			if err := storage.WriteArtifactChecked(cs, "meta-a", old); err != nil {
				t.Fatal(err)
			}
			conn := &pipeConn{}
			for _, frame := range c.frames {
				conn.Write(frame)
			}
			var rbuf []byte
			err := rep.applyNext(conn, &rbuf)
			want := old
			if c.name == "complete" {
				want = a
				if err != nil {
					t.Fatal(err)
				}
				if err := rep.applyNext(conn, &rbuf); err != io.EOF {
					t.Fatalf("after the last frame: %v, want io.EOF", err)
				}
			} else if err == nil {
				t.Fatal("an interrupted artifact was applied")
			}
			if got, err := storage.ReadArtifactChecked(cs, "meta-a"); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("meta-a holds %q (err=%v), want %q", got, err, want)
			}
			if names, _ := cs.List(); len(names) != 1 {
				t.Fatalf("the store holds %v, want meta-a alone", names)
			}
		})
	}
}

// TestReplicaRefusesEscapingName: a replica writes every artifact name its
// primary sends into its own checkpoint directory, so a name that would leave
// it fails the connection and writes nothing.
func TestReplicaRefusesEscapingName(t *testing.T) {
	root := t.TempDir()
	cs, err := storage.NewDirCheckpointStore(filepath.Join(root, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	rep := idleReplica(t, cs)
	conn := &pipeConn{}
	// Read as the previous layout read it, the first frame would be a whole
	// five-byte artifact: u32 total, u32 offset, the bytes.
	first := wire.AppendU32(wire.AppendU32(wire.AppendString(wire.Open(nil, opArtifact), []byte("../escaped")), 5), 0)
	conn.Write(wire.Seal(append(first, "hello"...)))
	conn.Write(wire.Seal(wire.AppendString(wire.Open(nil, opArtifact), []byte("../escaped"))))
	var rbuf []byte
	if err := rep.applyNext(conn, &rbuf); err == nil {
		t.Error("an artifact named ../escaped was applied")
	}
	if _, err := os.Stat(filepath.Join(root, "escaped")); !os.IsNotExist(err) {
		t.Fatalf("the replica wrote outside its checkpoint directory (stat: %v)", err)
	}
}
