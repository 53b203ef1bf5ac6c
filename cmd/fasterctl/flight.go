package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/kvserver"
	"repro/internal/obs"
	"repro/internal/storage"
)

// flightCmd implements `fasterctl flight`: reassemble one commit's causal
// timeline (or the whole recorded window) from a live server's flight
// recorder or from a crash-dump artifact.
//
//	fasterctl flight -addr localhost:7070 [token]
//	fasterctl flight -dump <crash-dump-file> [token]
//
// The output is the merged, time-ordered event stream across every shard:
// epoch bumps, per-shard phase transitions, session demarcations, flushes,
// artifact writes, fault injections, replication and recovery events — each
// line stamped with its offset from the recorder's start and its shard.
func flightCmd(args []string) {
	fs := flag.NewFlagSet("flight", flag.ExitOnError)
	addr := fs.String("addr", "", "live server address (kvserver protocol)")
	dumpFile := fs.String("dump", "", "decode a crash-dump artifact file instead of dialing a server")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fasterctl flight -addr <server-addr> [token]")
		fmt.Fprintln(os.Stderr, "       fasterctl flight -dump <file> [token]")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck
	token := fs.Arg(0)

	var dump obs.FlightDump
	switch {
	case *dumpFile != "":
		raw, err := os.ReadFile(*dumpFile)
		if err != nil {
			log.Fatal(err)
		}
		// Crash dumps are written through the storage artifact envelope;
		// accept both framed files and a bare dump payload.
		payload, derr := storage.DecodeArtifact(raw)
		if derr != nil {
			payload = raw
		}
		if err := json.Unmarshal(payload, &dump); err != nil {
			log.Fatalf("not a flight dump: %v", err)
		}
		dump.Events = obs.FilterFlightEvents(dump.Events, token)
	case *addr != "":
		client, err := kvserver.Dial(*addr, "")
		if err != nil {
			log.Fatal(err)
		}
		defer client.Close()
		dump, err = client.Flight(token)
		if err != nil {
			log.Fatal(err)
		}
	default:
		fs.Usage()
		os.Exit(2)
	}

	printFlight(dump, token)
}

// printFlight renders a dump as a merged per-shard timeline. Events arrive
// sorted by capture offset; each line shows the offset from the recorder's
// start, the shard lane, and the event description.
func printFlight(dump obs.FlightDump, token string) {
	scope := "all events"
	if token != "" {
		scope = fmt.Sprintf("events matching %q", token)
	}
	start := time.Unix(0, dump.WallStartNanos)
	fmt.Printf("flight recorder: %d %s (recorder started %s", len(dump.Events), scope,
		start.Format(time.RFC3339Nano))
	if dump.Dropped > 0 {
		fmt.Printf("; %d older events dropped by ring wraparound", dump.Dropped)
	}
	fmt.Println(")")
	for _, e := range dump.Events {
		lane := "store  "
		if e.Shard >= 0 {
			lane = fmt.Sprintf("shard %d", e.Shard)
		}
		fmt.Printf("%14s  %s  %s\n", time.Duration(e.AtNanos), lane, e.Describe())
	}
}
