package repl

import (
	"bytes"
	"encoding/binary"
	"io"
	"log"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/storage"
)

// golden spells a run of wire bytes: an int is one byte, a string or a byte
// slice its bytes, a uint32 or uint64 its little-endian encoding.
func golden(parts ...any) []byte {
	var out []byte
	for _, p := range parts {
		switch v := p.(type) {
		case int:
			out = append(out, byte(v))
		case string:
			out = append(out, v...)
		case []byte:
			out = append(out, v...)
		case uint32:
			out = binary.LittleEndian.AppendUint32(out, v)
		case uint64:
			out = binary.LittleEndian.AppendUint64(out, v)
		}
	}
	return out
}

func expectBytes(t *testing.T, r io.Reader, what string, want []byte) {
	t.Helper()
	got := make([]byte, len(want))
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatalf("%s: %v (read % x)", what, err, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got % x\nwant % x", what, got, want)
	}
}

// goldReplicaHello is what a fresh replica opens with: applied version 0,
// device coverage up to the log's first address.
var goldReplicaHello = golden(13, 0, 0, 0, 1, 0, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0, 0)

// TestGoldenPrimaryBytes: a primary holding one commit answers a spelled-out
// hello with welcome, one chunk, the commit's artifacts and the announcement,
// every frame u32 length | u8 opcode | payload, little-endian, in that order.
func TestGoldenPrimaryBytes(t *testing.T) {
	primary, err := faster.Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	sess := primary.StartSession()
	if st := sess.Upsert(key(1), u64(7)); st != faster.Ok {
		t.Fatal(st)
	}
	res := commitWait(t, primary, sess)
	sess.StopSession()
	srv := NewServer(primary)
	srv.ClientAddr = "c:1"
	addr := startServer(t, srv)
	defer srv.Close()

	info, err := primary.CommitShipInfo(res.Token)
	if err != nil {
		t.Fatal(err)
	}
	lg := primary.Log()
	durable := lg.Durable()
	raw := make([]byte, durable-64)
	if err := lg.ReadRaw(64, raw); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	if _, err := conn.Write(goldReplicaHello); err != nil {
		t.Fatal(err)
	}
	// opWelcome: client address, latest version, then begin | start | durable.
	expectBytes(t, conn, "welcome", golden(34, 0, 0, 0, 2, 3, 0, "c:1", info.Version,
		uint64(64), uint64(64), durable))
	// opChunk: offset, the log's bytes.
	expectBytes(t, conn, "chunk", golden(uint32(1+8+len(raw)), 3, uint64(64), raw))
	// opArtifact: name, then the payload's bytes (one piece each here, they
	// are small), then name alone: the end, sent once the envelope verified.
	for _, name := range info.Artifacts {
		data, err := storage.ReadArtifactChecked(primary.Checkpoints(), name)
		if err != nil {
			t.Fatal(err)
		}
		expectBytes(t, conn, "artifact "+name, golden(uint32(1+2+len(name)+len(data)), 4, len(name), 0, name, data))
		expectBytes(t, conn, "end of "+name, golden(uint32(1+2+len(name)), 4, len(name), 0, name))
	}
	// opCommit: token, version, end.
	expectBytes(t, conn, "commit", golden(uint32(1+2+len(res.Token)+4+8), 5,
		len(res.Token), 0, res.Token, info.Version, info.End))
}

// TestGoldenReplicaBytes: a fresh replica sends the spelled-out hello, and
// reads a spelled-out opError frame for what it says. On its next connection
// it takes a spelled-out welcome, stores an artifact shipped in two pieces and
// an end, and reads the end a commit announces.
func TestGoldenReplicaBytes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	logged := make(logLines, 1)
	rep, err := NewReplica(Config{Upstream: ln.Addr().String(), StoreConfig: testConfig(),
		ReconnectEvery: time.Millisecond, Logger: log.New(logged, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Store().Close()
	defer rep.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	expectBytes(t, conn, "replica hello", goldReplicaHello)
	if _, err := conn.Write(golden(10, 0, 0, 0, 7, 7, 0, "refused")); err != nil {
		t.Fatal(err)
	}
	expectLogged(t, logged, "primary rejected: refused")
	conn.Close()

	conn, err = ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	expectBytes(t, conn, "replica hello", goldReplicaHello)
	for _, frame := range [][]byte{
		// opWelcome: client address c:1, version 0, begin 64, start 64,
		// durable 64.
		golden(34, 0, 0, 0, 2, 3, 0, "c:1", uint32(0), uint64(64), uint64(64), uint64(64)),
		golden(10, 0, 0, 0, 4, 1, 0, "x", "hello,"),
		golden(10, 0, 0, 0, 4, 1, 0, "x", " world"),
		golden(4, 0, 0, 0, 4, 1, 0, "x"),
		// opCommit: token t1, version 1, ending at 65: a byte past what the
		// replica has staged.
		golden(17, 0, 0, 0, 5, 2, 0, "t1", uint32(1), uint64(65)),
	} {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	expectLogged(t, logged, "commit t1 needs bytes to 65, staged 64")
	if got, err := storage.ReadArtifactChecked(rep.Store().Checkpoints(), "x"); err != nil || string(got) != "hello, world" {
		t.Fatalf("artifact x holds %q (err=%v)", got, err)
	}
}

// expectLogged waits for the replica's next log line and checks it says want.
func expectLogged(t *testing.T, logged logLines, want string) {
	t.Helper()
	select {
	case line := <-logged:
		if !strings.Contains(line, want) {
			t.Fatalf("replica logged %q, want %q", line, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("the replica never logged %q", want)
	}
}

// logLines is a log.Logger's output as a channel of lines.
type logLines chan string

func (l logLines) Write(p []byte) (int, error) {
	l <- string(p)
	return len(p), nil
}
