package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/storage"
)

// The offline decoders: a crash dump of the flight recorder and an incident
// bundle of the health engine, both artifacts in the storage envelope.

// readArtifactFile reads an artifact file written through the storage
// envelope, or a bare JSON payload.
func readArtifactFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if payload, err := storage.DecodeArtifact(raw); err == nil {
		return payload, nil
	}
	return raw, nil
}

// printEvents prints flight events one per line — offset from the
// recorder's start, lane, description — the last max of them (0 = all).
func printEvents(evs []obs.FlightEvent, max int) {
	if max > 0 && len(evs) > max {
		fmt.Printf("  ... %d earlier events elided (-events 0 for all)\n", len(evs)-max)
		evs = evs[len(evs)-max:]
	}
	for _, e := range evs {
		lane := "store"
		if e.Shard >= 0 {
			lane = "log  "
		}
		fmt.Printf("%14s  %s  %s\n", time.Duration(e.AtNanos), lane, e.Describe())
	}
}

// flightCmd implements `fasterctl flight -dump <file> [token]`: reassemble one
// commit's causal timeline (or the whole recorded window) from a crash-dump
// artifact — epoch bumps, phase transitions, session demarcations, flushes,
// artifact writes, faults, replication and recovery events in time order.
func flightCmd(args []string) int {
	fs := flag.NewFlagSet("flight", flag.ExitOnError)
	dumpFile := fs.String("dump", "", "crash-dump artifact file to decode")
	fs.Parse(args) //nolint:errcheck
	if *dumpFile == "" {
		fmt.Fprintln(os.Stderr, "usage: fasterctl flight -dump <file> [token]   (a live server: fasterctl why)")
		return 2
	}
	payload, err := readArtifactFile(*dumpFile)
	var dump obs.FlightDump
	if err == nil {
		err = json.Unmarshal(payload, &dump)
	}
	if err != nil {
		log.Printf("not a flight dump: %v", err)
		return 2
	}
	token := fs.Arg(0)
	dump.Events = obs.FilterFlightEvents(dump.Events, token)
	scope := "all events"
	if token != "" {
		scope = fmt.Sprintf("events matching %q", token)
	}
	fmt.Printf("flight recorder: %d %s (recorder started %s", len(dump.Events), scope,
		time.Unix(0, dump.WallStartNanos).Format(time.RFC3339Nano))
	if dump.Dropped > 0 {
		fmt.Printf("; %d older events dropped by ring wraparound", dump.Dropped)
	}
	fmt.Println(")")
	printEvents(dump.Events, 0)
	return 0
}

// incidentCmd implements `fasterctl incident`: decode an incident bundle the
// health engine captured when a detector fired.
//
//	fasterctl incident -dump <incident-artifact-file> [-json] [-events N]
//	fasterctl incident -dir <checkpoint-dir>            # list bundles
//	fasterctl incident -dir <checkpoint-dir> <name>     # decode one
//
// A bundle holds the evidence frozen at the moment of the stall: the full
// metrics snapshot, the flight-recorder timeline, the slowest traces, and
// goroutine + heap profiles.
func incidentCmd(args []string) int {
	fs := flag.NewFlagSet("incident", flag.ExitOnError)
	dumpFile := fs.String("dump", "", "incident artifact file to decode")
	dir := fs.String("dir", "", "checkpoint directory to list/read bundles from")
	asJSON := fs.Bool("json", false, "print the raw bundle JSON")
	events := fs.Int("events", 20, "flight events to print (0 = all)")
	fs.Parse(args) //nolint:errcheck

	var payload []byte
	var err error
	switch {
	case *dumpFile != "":
		payload, err = readArtifactFile(*dumpFile)
	case *dir != "" && fs.Arg(0) != "":
		var cs storage.CheckpointStore
		if cs, err = storage.NewDirCheckpointStore(*dir); err == nil {
			payload, err = storage.ReadArtifactChecked(cs, fs.Arg(0))
		}
	case *dir != "":
		return listIncidents(*dir)
	default:
		fmt.Fprintln(os.Stderr, "usage: fasterctl incident -dump <file> [-json] [-events N]")
		fmt.Fprintln(os.Stderr, "       fasterctl incident -dir <checkpoint-dir> [name]")
		return 2
	}
	var b *health.Bundle
	if err == nil {
		b, err = health.DecodeBundle(payload)
	}
	if err != nil {
		log.Print(err)
		return 2
	}
	if *asJSON {
		return printJSON(b)
	}
	printBundle(b, *events)
	return 0
}

// listIncidents prints the incident bundles in a checkpoint directory.
func listIncidents(dir string) int {
	cs, err := storage.NewDirCheckpointStore(dir)
	var names []string
	if err == nil {
		names, err = cs.List()
	}
	if err != nil {
		log.Print(err)
		return 2
	}
	count := 0
	for _, n := range names {
		if strings.HasPrefix(n, "incident-") {
			fmt.Println(n)
			count++
		}
	}
	if count == 0 {
		fmt.Println("(no incident bundles)")
	}
	return 0
}

// printBundle renders a bundle's sections for humans.
func printBundle(b *health.Bundle, maxEvents int) {
	fmt.Printf("incident: %s (seq %d)\n", b.Detector, b.Seq)
	fmt.Printf("captured: %s\n", time.Unix(0, b.CapturedUnixNanos).Format(time.RFC3339Nano))
	if b.Detail != "" {
		fmt.Printf("detail:   %s\n", b.Detail)
	}
	fmt.Printf("verdict:  %s\n", b.Verdict.State)
	for _, d := range b.Verdict.Detectors {
		if d.Firing {
			fmt.Printf("  firing: %s — %s\n", d.Name, d.Detail)
		}
	}

	fmt.Printf("\nmetrics snapshot: %d counters, %d gauges, %d histograms\n",
		len(b.Metrics.Counters), len(b.Metrics.Gauges), len(b.Metrics.Histograms))
	names := make([]string, 0, len(b.Metrics.Gauges))
	for n := range b.Metrics.Gauges {
		if strings.HasPrefix(n, "faster_health_") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %d\n", n, b.Metrics.Gauges[n])
	}

	if b.Flight != nil {
		fmt.Printf("\nflight events: %d recorded", len(b.Flight.Events))
		if b.Flight.Dropped > 0 {
			fmt.Printf(" (%d older dropped)", b.Flight.Dropped)
		}
		fmt.Println()
		printEvents(b.Flight.Events, maxEvents)
	} else {
		fmt.Println("\nflight events: none (no flight recorder wired)")
	}

	if b.Traces != nil {
		fmt.Printf("\ntraces: %d slowest retained (threshold %v, %d finished)\n",
			len(b.Traces.Traces), time.Duration(b.Traces.ThresholdNanos), b.Traces.Finished)
	} else {
		fmt.Println("\ntraces: none (no request tracer wired)")
	}

	for _, p := range []struct{ label, text string }{
		{"goroutine profile", b.GoroutineProfile}, {"heap profile", b.HeapProfile}} {
		first, _, _ := strings.Cut(p.text, "\n")
		if p.text == "" {
			fmt.Printf("\n%s: missing\n", p.label)
		} else {
			fmt.Printf("\n%s: %d bytes — %s\n", p.label, len(p.text), first)
		}
	}
}

// printJSON prints v as indented JSON and returns the exit code.
func printJSON(v any) int {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Print(err)
		return 2
	}
	return 0
}
