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

// goldReplicaHello is what a fresh one-shard replica opens with: applied
// version 0, one shard, device coverage up to the log's first address.
var goldReplicaHello = golden(17, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0, 0)

// TestGoldenPrimaryBytes: a primary holding one commit answers a spelled-out
// hello with welcome, one chunk, the commit's artifacts and the announcement,
// every frame u32 length | u8 opcode | payload, little-endian, in that order.
func TestGoldenPrimaryBytes(t *testing.T) {
	primary, err := faster.Open(testConfig(1))
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
	lg := primary.ShardLog(0)
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
	// opWelcome: client address, latest version, shards, then begin | start |
	// durable per shard.
	expectBytes(t, conn, "welcome", golden(38, 0, 0, 0, 2, 3, 0, "c:1", info.Version, 1, 0, 0, 0,
		uint64(64), uint64(64), durable))
	// opChunk: shard, offset, the log's bytes.
	expectBytes(t, conn, "chunk", golden(uint32(1+4+8+len(raw)), 3, 0, 0, 0, 0, uint64(64), raw))
	// opArtifact: name, total size, offset of this piece, the piece.
	for _, name := range info.Artifacts {
		data, err := storage.ReadArtifact(primary.Checkpoints(), name)
		if err != nil {
			t.Fatal(err)
		}
		expectBytes(t, conn, "artifact "+name, golden(uint32(1+2+len(name)+4+4+len(data)), 4,
			len(name), 0, name, uint32(len(data)), uint32(0), data))
	}
	// opCommit: token, version, kind, shards, then end | floor per shard.
	expectBytes(t, conn, "commit", golden(uint32(1+2+len(res.Token)+4+1+4+16), 5,
		len(res.Token), 0, res.Token, info.Version, int(info.Kind), 1, 0, 0, 0,
		info.ShardEnds[0], info.ShardFloors[0]))
}

// TestGoldenReplicaBytes: a fresh replica sends the spelled-out hello, and
// reads a spelled-out opError frame for what it says.
func TestGoldenReplicaBytes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	logged := make(logLines, 1)
	rep, err := NewReplica(Config{Upstream: ln.Addr().String(), StoreConfig: testConfig(1),
		ReconnectEvery: time.Hour, Logger: log.New(logged, "", 0)})
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
	select {
	case line := <-logged:
		if !strings.Contains(line, "primary rejected: refused") {
			t.Fatalf("replica logged %q, want the primary's reason", line)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the replica never reported the refusal")
	}
}

// logLines is a log.Logger's output as a channel of lines.
type logLines chan string

func (l logLines) Write(p []byte) (int, error) {
	l <- string(p)
	return len(p), nil
}
