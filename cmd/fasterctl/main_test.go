package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/health"
	"repro/internal/kvserver"
	"repro/internal/obs"
)

// TestGetColdRecord: a key whose record was evicted to the device reads back
// through the read callback; a second Read after CompletePending would go
// Pending again and report "(not found)".
func TestGetColdRecord(t *testing.T) {
	dir := t.TempDir()
	// 400 000 records of 48 bytes outgrow the default 16 MiB of log memory,
	// so the first keys lie on the device once the store is recovered.
	if err := storeCmd(dir, []string{"bulkload", "400000"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{
		"key-00000001": "val-00000001\n",
		"key-00399999": "val-00399999\n",
		"k1":           "(not found)\n",
	} {
		var out bytes.Buffer
		if err := storeCmd(dir, []string{"get", key}, &out); err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if out.String() != want {
			t.Errorf("get %s printed %q, want %q", key, out.String(), want)
		}
	}
}

// whyServer serves a store with a flight recorder and a request tracer after
// one commit, and a health engine when withHealth is set.
func whyServer(t *testing.T, withHealth bool) string {
	t.Helper()
	store, err := faster.Open(faster.Config{IndexBuckets: 1 << 10, PageBits: 14, MemPages: 16,
		Flight: obs.NewFlightRecorder(1024), ReqTrace: obs.NewRequestTracer(16)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv := kvserver.NewServer(store)
	if withHealth {
		eng := health.New(health.Config{Registry: store.Metrics()})
		eng.Tick()
		srv.Health = eng.Verdict
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	go srv.Serve(addr) //nolint:errcheck
	t.Cleanup(srv.Close)
	for deadline := time.Now().Add(5 * time.Second); srv.Addr() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("server did not start")
		}
	}
	c, err := kvserver.Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, k := range []string{"a", "b", "c"} {
		if _, err := c.Set([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Commit(false); err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestWhy: one `why` prints every section in its order and exits 0 on a
// healthy server, 2 on a server without a health engine and on one that is
// not there; -json is the STATS, FLIGHT and TRACE documents as one.
func TestWhy(t *testing.T) {
	addr := whyServer(t, true)
	var out bytes.Buffer
	if code := whyCmd([]string{"-addr", addr}, &out); code != 0 {
		t.Fatalf("why on a healthy server exited %d:\n%s", code, out.String())
	}
	text, at := out.String(), 0
	for _, section := range []string{"health:   healthy", "commit:", "wait-flush", "durability lag:",
		"log offsets: begin", "replication: standalone", "slowest traces:"} {
		i := strings.Index(text[at:], section)
		if i < 0 {
			t.Fatalf("section %q missing or out of order:\n%s", section, text)
		}
		at += i
	}

	out.Reset()
	if code := whyCmd([]string{"-addr", addr, "-json"}, &out); code != 0 {
		t.Fatalf("why -json exited %d", code)
	}
	var doc struct {
		Stats  kvserver.StatsSnapshot
		Flight *obs.FlightDump
		Trace  *obs.TraceDump
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Stats.Health == nil || doc.Stats.Log.Tail == 0 || doc.Flight == nil || len(doc.Flight.Events) == 0 || doc.Trace == nil {
		t.Fatalf("why -json: health %v, log %+v, flight %v, trace %v", doc.Stats.Health, doc.Stats.Log, doc.Flight, doc.Trace)
	}

	if code := whyCmd([]string{"-addr", whyServer(t, false)}, io.Discard); code != 2 {
		t.Fatalf("why on a server without a health engine exited %d, want 2", code)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gone := ln.Addr().String()
	ln.Close()
	if code := whyCmd([]string{"-addr", gone}, io.Discard); code != 2 {
		t.Fatalf("why on no server exited %d, want 2", code)
	}
}
