// Command fasterctl operates a CPR-enabled FASTER store persisted on real
// files, demonstrating durability across process restarts, and reads a live
// cprserver and the artifacts one leaves behind:
//
//	fasterctl -dir /tmp/db set mykey myvalue
//	fasterctl -dir /tmp/db get mykey
//	fasterctl -dir /tmp/db del mykey
//	fasterctl -dir /tmp/db rmw counter 5
//	fasterctl -dir /tmp/db bulkload 100000
//	fasterctl -dir /tmp/db stats
//	fasterctl -dir /tmp/db metrics [hist]
//	fasterctl -dir /tmp/db verify
//	fasterctl why -addr localhost:7070 [-json]
//	fasterctl pipeload -addr localhost:7070 -n 100000 -depth 64
//	fasterctl flight -dump /tmp/db/checkpoints/flight-panic [token]
//	fasterctl incident -dir /tmp/db/checkpoints [name]
//	fasterctl inlog -dir /tmp/db
//
// Every mutating invocation recovers the store from -dir (if a commit
// exists), applies the operation, and takes a fresh CPR commit before
// exiting. why is the one live view: health, the commit in flight, durability
// lag, log offsets, replication and the slowest requests of a running
// server, over one connection.
package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	cpr "repro"
	"repro/internal/faster"
	"repro/internal/kvserver"
	"repro/internal/obs"
)

func main() {
	dir := flag.String("dir", "", "database directory (required)")
	shards := flag.Int("shards", 1, "store partitions; must match the directory's existing layout")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{""}
	}
	switch args[0] {
	case "why":
		os.Exit(whyCmd(args[1:], os.Stdout))
	case "pipeload":
		pipeloadCmd(args[1:])
		return
	case "flight":
		os.Exit(flightCmd(args[1:]))
	case "incident":
		os.Exit(incidentCmd(args[1:]))
	case "inlog":
		os.Exit(inlogCmd(args[1:]))
	case "verify":
		// Offline integrity walk — never opens the store, so it is safe to
		// run against a directory another process is serving from.
		if len(args) >= 2 {
			os.Exit(verifyCheckpoints(args[1]))
		} else if *dir != "" {
			os.Exit(verifyCheckpoints(filepath.Join(*dir, "checkpoints")))
		}
	}
	if *dir == "" || args[0] == "" || args[0] == "verify" {
		fmt.Fprintln(os.Stderr, "usage: fasterctl -dir <dir> [-shards n] <set|get|del|rmw|bulkload|stats|metrics [hist]|verify> [args]")
		fmt.Fprintln(os.Stderr, "       fasterctl verify <checkpoint-dir>")
		fmt.Fprintln(os.Stderr, "       fasterctl why -addr <server-addr> [-json]")
		fmt.Fprintln(os.Stderr, "       fasterctl pipeload -addr <server-addr> [-n ops] [-depth d]")
		fmt.Fprintln(os.Stderr, "       fasterctl flight -dump <file> [token]")
		fmt.Fprintln(os.Stderr, "       fasterctl incident [-dump <file> | -dir <checkpoint-dir> [name]]")
		fmt.Fprintln(os.Stderr, "       fasterctl inlog [-dir <db-dir>] [-segments <seg-dir>] [-checkpoints <ck-dir>]")
		os.Exit(2)
	}
	if err := storeCmd(*dir, *shards, args, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// storeCmd runs one store command against the file-backed store in dir:
// recover (or open fresh), apply, and commit what it changed.
func storeCmd(dir string, shards int, args []string, w io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	checkpoints, err := cpr.NewDirCheckpointStore(filepath.Join(dir, "checkpoints"))
	if err != nil {
		return err
	}
	// The recorder is what `metrics` reads its phase timeline from.
	cfg := cpr.StoreConfig{Shards: shards, Checkpoints: checkpoints,
		Flight: cpr.NewFlightRecorder(obs.DefaultFlightCapacity)}
	if shards > 1 {
		cfg.DeviceFactory = func(i int) (cpr.Device, error) {
			return cpr.OpenFileDevice(filepath.Join(dir, fmt.Sprintf("hybridlog-shard%d.dat", i)))
		}
	} else if cfg.Device, err = cpr.OpenFileDevice(filepath.Join(dir, "hybridlog.dat")); err != nil {
		return err
	}

	store, err := cpr.RecoverStore(cfg)
	if errors.Is(err, cpr.ErrNoCheckpoint) {
		store, err = cpr.OpenStore(cfg) // no commit yet: fresh store
	}
	if err != nil {
		// Shard-count mismatch, corrupt artifact, ...: starting fresh would
		// shadow the existing data.
		return err
	}
	defer store.Close()
	sess := store.StartSession()
	defer sess.StopSession()

	if len(args) < map[string]int{"set": 3, "get": 2, "del": 2, "rmw": 3, "bulkload": 2}[args[0]] {
		return fmt.Errorf("%s: too few arguments", args[0])
	}
	switch args[0] {
	case "set":
		err = write(sess, sess.Upsert([]byte(args[1]), []byte(args[2])))
	case "get":
		// A cold record goes Pending: its value arrives through the callback
		// during CompletePending (a second Read would only go Pending again).
		var val []byte
		st := cpr.Pending
		v, rst := sess.Read([]byte(args[1]), func(v []byte, s cpr.Status) { val, st = append(val, v...), s })
		if rst == cpr.Pending {
			sess.CompletePending(true)
		} else {
			val, st = v, rst
		}
		switch st {
		case cpr.Ok:
			fmt.Fprintf(w, "%s\n", val)
		case cpr.NotFound:
			fmt.Fprintln(w, "(not found)")
		default:
			return fmt.Errorf("get: %v", st)
		}
		return nil
	case "del":
		err = write(sess, sess.Delete([]byte(args[1])))
	case "rmw":
		n, perr := strconv.ParseUint(args[2], 10, 64)
		if perr != nil {
			return fmt.Errorf("rmw delta: %w", perr)
		}
		err = write(sess, sess.RMW([]byte(args[1]), binary.LittleEndian.AppendUint64(nil, n)))
	case "bulkload":
		n, perr := strconv.Atoi(args[1])
		if perr != nil {
			return fmt.Errorf("bulkload count: %w", perr)
		}
		failed := 0
		for i := 0; i < n; i++ {
			if write(sess, sess.Upsert([]byte(fmt.Sprintf("key-%08d", i)), []byte(fmt.Sprintf("val-%08d", i)))) != nil {
				failed++
			}
		}
		if failed > 0 {
			err = fmt.Errorf("bulkload: %d of %d upserts failed", failed, n)
		} else {
			fmt.Fprintf(w, "loaded %d keys\n", n)
		}
	case "stats":
		fmt.Fprintf(w, "version:       %d\n", store.Version())
		fmt.Fprintf(w, "phase:         %v\n", store.Phase())
		fmt.Fprintf(w, "shards:        %d\n", store.NumShards())
		for i := 0; i < store.NumShards(); i++ {
			lg := store.ShardLog(i)
			fmt.Fprintf(w, "shard %d: tail %d durable %d in-memory [%d, %d)\n",
				i, lg.Tail(), lg.Durable(), lg.Head(), lg.Tail())
		}
		return nil
	case "metrics":
		// Drive one log-only commit so the output includes a live phase
		// timeline for this store, then dump the registry and the timeline.
		if _, err := commit(store, sess, cpr.CommitOptions{}); err != nil {
			return err
		}
		snap := store.Metrics().Snapshot()
		if len(args) >= 2 && args[1] == "hist" {
			printHistTable(w, snap)
			return nil
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Metrics  cpr.MetricsSnapshot `json:"metrics"`
			Timeline cpr.PhaseTimeline   `json:"timeline"`
		}{snap, store.Tracer().Timeline()})
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
	if err != nil {
		return fmt.Errorf("%s: %w; nothing committed", args[0], err)
	}
	res, err := commit(store, sess, cpr.CommitOptions{WithIndex: true})
	if err == nil {
		fmt.Fprintf(w, "committed (%s), session CPR point %d\n", res.Token, res.Serials[sess.ID()])
	}
	return err
}

// write drives one write to its end — one that went Pending completes in
// CompletePending, which counts it if it failed — and reports a failure.
func write(sess *cpr.Session, st cpr.Status) error {
	if st == cpr.Pending && sess.CompletePending(true) == 0 {
		st = cpr.Ok
	}
	if st != cpr.Ok && st != cpr.NotFound {
		return errors.New("write failed")
	}
	return nil
}

// commit runs one commit to its result, refreshing sess while it runs.
func commit(store *cpr.Store, sess *cpr.Session, opts cpr.CommitOptions) (cpr.CommitResult, error) {
	token, err := store.Commit(opts)
	if err != nil {
		return cpr.CommitResult{}, err
	}
	for {
		if res, ok := store.TryResult(token); ok {
			return res, res.Err
		}
		sess.Refresh()
	}
}

// printHistTable renders `fasterctl metrics hist`: every histogram in the
// registry as one row with tail-percentile columns.
func printHistTable(w io.Writer, snap obs.Snapshot) {
	if len(snap.Histograms) == 0 {
		fmt.Fprintln(w, "(no histograms)")
		return
	}
	names := make([]string, 0, len(snap.Histograms))
	width := len("histogram")
	for name := range snap.Histograms {
		names = append(names, name)
		width = max(width, len(name))
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-*s %10s %9s %9s %9s %9s %9s %9s\n",
		width, "histogram", "count", "mean", "p50", "p90", "p99", "p999", "max")
	for _, name := range names {
		h := snap.Histograms[name]
		// Histograms named *_ns hold durations; anything else (e.g. *_ops)
		// holds raw counts.
		cell := func(v int64) string { return fmt.Sprintf("%d", v) }
		if strings.HasSuffix(name, "_ns") {
			cell = ns
		}
		fmt.Fprintf(w, "%-*s %10d %9s %9s %9s %9s %9s %9s\n",
			width, name, h.Count, cell(int64(h.MeanNanos)), cell(int64(h.P50Nanos)),
			cell(int64(h.P90Nanos)), cell(int64(h.P99Nanos)), cell(int64(h.P999Nanos)),
			cell(int64(h.MaxNanos)))
	}
}

// pipeloadCmd drives a pipelined write load at a running cprserver (BATCH
// frames) and reports the achieved throughput plus the server's pipelining
// metrics, so the effect of a chosen -depth is visible end to end.
func pipeloadCmd(args []string) {
	fs := flag.NewFlagSet("pipeload", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "server address")
	n := fs.Int("n", 100_000, "total blind writes to send")
	depth := fs.Int("depth", 64, "pipeline depth (ops per BATCH frame; 1 = synchronous)")
	fs.Parse(args) //nolint:errcheck
	if *depth < 1 {
		*depth = 1
	}
	c, err := kvserver.Dial(*addr, "")
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	p := c.Pipeline()
	var kb, vb [8]byte
	rng := uint64(1)
	start := time.Now()
	for sent := 0; sent < *n; {
		batch := *depth
		if rem := *n - sent; batch > rem {
			batch = rem
		}
		for i := 0; i < batch; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			binary.LittleEndian.PutUint64(kb[:], rng)
			binary.LittleEndian.PutUint64(vb[:], ^rng)
			if *depth == 1 {
				if _, err := c.Set(kb[:], vb[:]); err != nil {
					log.Fatal(err)
				}
			} else {
				p.Set(kb[:], vb[:])
			}
		}
		if *depth > 1 {
			if _, err := p.Flush(); err != nil {
				log.Fatal(err)
			}
		}
		sent += batch
	}
	elapsed := time.Since(start)
	fmt.Printf("pipelined %d sets at depth %d in %v (%.0f ops/sec)\n",
		*n, *depth, elapsed.Round(time.Millisecond), float64(*n)/elapsed.Seconds())
	snap, err := c.Stats()
	if err != nil {
		log.Fatal(err)
	}
	if h, ok := snap.Metrics.Histograms["faster_batch_depth"]; ok && h.Count > 0 {
		fmt.Printf("server batch depth: p50 %d p99 %d ops over %d batches\n",
			h.P50Nanos, h.P99Nanos, snap.Metrics.Counters["faster_net_batches_total"])
	}
	if fl := snap.Metrics.Counters["faster_net_coalesced_flushes_total"]; fl > 0 {
		fmt.Printf("server write coalescing: %d replies over %d flushes (%.1f replies/syscall)\n",
			snap.Metrics.Counters["faster_net_coalesced_replies_total"], fl,
			float64(snap.Metrics.Counters["faster_net_coalesced_replies_total"])/float64(fl))
	}
}

// verifyCheckpoints prints faster.VerifyCommits' verdict on a checkpoint
// directory, commit by commit. Returns the process exit code: 0 when every
// commit verifies, 1 when a commit's record is corrupt or it references a
// missing or corrupt artifact.
func verifyCheckpoints(dir string) int {
	cs, err := cpr.NewDirCheckpointStore(dir)
	if err != nil {
		log.Print(err)
		return 1
	}
	commits, orphans, err := faster.VerifyCommits(cs)
	if err != nil {
		log.Print(err)
		return 1
	}
	if len(commits)+len(orphans) == 0 {
		fmt.Printf("%s: no artifacts\n", dir)
		return 0
	}
	corrupt := 0
	for _, c := range commits {
		if len(c.Problems) == 0 {
			fmt.Printf("%-22s OK\n", "commit "+c.Token)
			continue
		}
		corrupt++
		fmt.Printf("%-22s CORRUPT\n", "commit "+c.Token)
		for _, line := range c.Problems {
			fmt.Printf("    %s\n", line)
		}
	}
	if len(orphans) > 0 {
		// Blobs of a commit that never completed, flight and incident dumps.
		fmt.Printf("other artifacts (named by no commit): %s\n", strings.Join(orphans, " "))
	}
	fmt.Printf("%d commit(s) checked, %d corrupt\n", len(commits), corrupt)
	if corrupt > 0 {
		return 1
	}
	return 0
}
