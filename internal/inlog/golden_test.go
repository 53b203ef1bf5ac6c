package inlog

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// The ingest conversation, byte by byte: a message travels as u32 LE length |
// op | uvarint key length | key | value, and each ack is the record's offset
// as a bare u64 LE.
var (
	goldUpsert = []byte{7, 0, 0, 0, byte(OpUpsert), 2, 'k', '1', 'v', 'a', 'l'}
	goldDelete = []byte{4, 0, 0, 0, byte(OpDelete), 2, 'k', '1'}
	goldAcks   = []byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}
)

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

// TestGoldenIngestServerBytes: the server takes two spelled-out messages and
// acks them in spelled-out bytes; what it appended is the message, length
// prefix stripped.
func TestGoldenIngestServerBytes(t *testing.T) {
	l := mustOpen(t, Config{Segments: NewMemSegmentStore(), Fsync: FsyncBatch, BatchRecords: 2,
		BatchInterval: time.Millisecond})
	defer l.Close()
	srv := NewIngestServer(l, nil, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // returns nil on Close
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	if _, err := conn.Write(append(append([]byte(nil), goldUpsert...), goldDelete...)); err != nil {
		t.Fatal(err)
	}
	expectBytes(t, conn, "acks", goldAcks)
	for i, want := range [][]byte{goldUpsert[4:], goldDelete[4:]} {
		if payload, err := l.Read(uint64(i)); err != nil || !bytes.Equal(payload, want) {
			t.Fatalf("record %d: payload % x err=%v, want % x", i, payload, err, want)
		}
	}
}

// TestGoldenIngestClientBytes: IngestClient.Send puts the same bytes on the
// wire and Ack reads the same acks.
func TestGoldenIngestClientBytes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := DialIngest(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	if err := c.Send(Message{Op: OpUpsert, Key: []byte("k1"), Value: []byte("val")}); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(Message{Op: OpDelete, Key: []byte("k1")}); err != nil {
		t.Fatal(err)
	}
	expectBytes(t, conn, "upsert", goldUpsert)
	expectBytes(t, conn, "delete", goldDelete)
	if _, err := conn.Write(goldAcks); err != nil {
		t.Fatal(err)
	}
	for want := uint64(0); want < 2; want++ {
		if off, err := c.Ack(); err != nil || off != want {
			t.Fatalf("ack = %d err=%v, want %d", off, err, want)
		}
	}
}
