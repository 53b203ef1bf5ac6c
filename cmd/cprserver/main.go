// Command cprserver serves a CPR-enabled FASTER store over TCP with
// periodic automatic commits:
//
//	cprserver -addr :7070 -dir /var/lib/cprdb -autocommit 500ms
//
// Clients (see internal/kvserver.Dial) hold one session per connection; a
// client reconnecting with its session ID learns its recovered CPR point.
// Without -dir the store is memory-backed (durable only within the process).
//
// With -inlog-addr the server also runs a durable ingestion log (segments
// under <dir>/inlog): clients stream operations to that address, every ack
// means the record is fsynced, and an apply pump drains the log into the
// store with an offset watermark persisted per CPR commit — acked traffic
// is replayed exactly once after a crash, and committed-out segments are
// trimmed:
//
//	cprserver -addr :7070 -inlog-addr :7090 -dir /var/lib/cprdb -inlog-fsync batch
//
// With -repl the primary also ships commits and the durable log tail to
// replicas; a replica runs with -replica-of and serves prefix-consistent
// reads (writes are redirected to the primary). SIGHUP promotes a replica to
// primary at its last installed commit:
//
//	cprserver -addr :7070 -repl :7071 -dir /var/lib/cprdb
//	cprserver -addr :7080 -replica-of primary-host:7071
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	cpr "repro"
	"repro/internal/faster"
	"repro/internal/health"
	"repro/internal/kvserver"
	"repro/internal/obs"
	"repro/internal/repl"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7070", "listen address")
		dir        = flag.String("dir", "", "database directory (empty = in-memory)")
		shards     = flag.Int("shards", 1, "store partitions, each an independent CPR domain (commits stay coordinated)")
		autocommit = flag.Duration("autocommit", 500*time.Millisecond, "automatic log-only commit cadence (0 = off)")
		idleTO     = flag.Duration("idle-timeout", 0, "reap connections idle past this long, releasing their FASTER sessions (0 = off)")
		debugAddr  = flag.String("debug", "", "debug HTTP listen address serving /metrics.prom and /debug/pprof (empty = off; everything else is on the wire: fasterctl why)")
		replAddr   = flag.String("repl", "", "replication listen address; replicas connect here (empty = off)")
		replicaOf  = flag.String("replica-of", "", "run as a read replica of this primary replication address")

		faultRate    = flag.Float64("fault-rate", 0, "injected transient I/O fault probability per op, in [0,1] (testing)")
		faultTorn    = flag.Float64("fault-torn-rate", 0, "injected torn-write probability per artifact write, in [0,1] (testing)")
		faultSeed    = flag.Uint64("fault-seed", 1, "seed for the deterministic fault schedule")
		faultLatency = flag.Duration("fault-latency", 0, "injected latency spike duration; applied at -fault-rate (testing)")

		flightCap = flag.Int("flightrec", obs.DefaultFlightCapacity, "flight-recorder event ring capacity (one ring; events; 0 = off)")
		traceCap  = flag.Int("reqtrace", 64, "slow-request trace retention (span trees; 0 = off)")

		healthIvl = flag.Duration("health-interval", time.Second, "health engine sampling interval; detectors fire after ~3 bad samples (0 = off)")
		sloDurLag = flag.Duration("slo-durlag", 0, "durability-lag SLO objective: windowed p99 session lag above this burns the SLO and degrades health (0 = off)")

		inlogAddr     = flag.String("inlog-addr", "", "ingestion-log listen address; enables the durable ingest pipeline (empty = off)")
		inlogFsync    = flag.String("inlog-fsync", "batch", "ingest fsync policy: always | batch | manual")
		inlogSegBytes = flag.Int64("inlog-segment-bytes", 1<<20, "ingest log segment roll threshold in bytes")
		inlogBatchN   = flag.Int("inlog-batch-records", 64, "ingest batch fsync: commit a group once this many appends are pending")
		inlogBatchIvl = flag.Duration("inlog-batch-interval", 2*time.Millisecond, "ingest batch fsync: commit whatever is pending this often (0 = default, negative = off)")
	)
	flag.Parse()

	// With -fault-rate/-fault-torn-rate the storage layer is wrapped in a
	// seeded fault injector: transient read/write errors, torn artifact
	// writes and optional latency spikes exercise the retry and
	// verified-recovery paths under an otherwise normal workload.
	metrics := obs.NewRegistry()
	obs.RegisterBuildInfo(metrics, map[string]string{"shards": strconv.Itoa(*shards)})
	obs.RegisterRuntimeMetrics(metrics)
	var flight *obs.FlightRecorder
	if *flightCap > 0 {
		flight = obs.NewFlightRecorder(*flightCap)
	}
	var injector *cpr.FaultInjector
	if *faultRate > 0 || *faultTorn > 0 {
		fc := cpr.FaultConfig{
			Seed:           *faultSeed,
			ReadErrorRate:  *faultRate,
			WriteErrorRate: *faultRate,
			TornWriteRate:  *faultTorn,
			Metrics:        metrics,
			Flight:         flight,
		}
		if *faultLatency > 0 {
			fc.LatencyRate = *faultRate
			fc.Latency = *faultLatency
		}
		injector = cpr.NewFaultInjector(fc)
		log.Printf("fault injection on: rate=%g torn=%g seed=%d latency=%v",
			*faultRate, *faultTorn, *faultSeed, *faultLatency)
	}
	wrapDevice := func(d cpr.Device) cpr.Device {
		if injector == nil {
			return d
		}
		return cpr.NewFaultDevice(d, injector)
	}

	cfg := faster.Config{Shards: *shards, Metrics: metrics, Flight: flight}
	if *traceCap > 0 {
		cfg.ReqTrace = obs.NewRequestTracer(*traceCap)
	}
	if *dir != "" {
		if *shards > 1 {
			// One log file per shard; checkpoints share the directory store
			// (a blob's name carries its shard).
			base := *dir
			cfg.DeviceFactory = func(i int) (cpr.Device, error) {
				d, err := cpr.OpenFileDevice(filepath.Join(base, fmt.Sprintf("hybridlog-shard%d.dat", i)))
				if err != nil {
					return nil, err
				}
				return wrapDevice(d), nil
			}
		} else {
			device, err := cpr.OpenFileDevice(filepath.Join(*dir, "hybridlog.dat"))
			if err != nil {
				log.Fatal(err)
			}
			cfg.Device = wrapDevice(device)
		}
		checkpoints, err := cpr.NewDirCheckpointStore(filepath.Join(*dir, "checkpoints"))
		if err != nil {
			log.Fatal(err)
		}
		cfg.Checkpoints = checkpoints
		if injector != nil {
			cfg.Checkpoints = cpr.NewFaultCheckpointStore(checkpoints, injector)
		}
	} else if injector != nil {
		// In-memory mode still exercises the fault paths.
		cfg.Device = wrapDevice(cpr.NewMemDevice())
		cfg.Checkpoints = cpr.NewFaultCheckpointStore(cpr.NewMemCheckpointStore(), injector)
	}

	if *replicaOf != "" {
		runReplica(cfg, *replicaOf, *addr, *replAddr, *autocommit, *debugAddr,
			*healthIvl, *sloDurLag)
		return
	}

	t0 := time.Now()
	store, report, err := faster.RecoverWithReport(cfg)
	if err != nil {
		if !errors.Is(err, faster.ErrNoCheckpoint) {
			// Shard-count mismatch, corrupt artifact, ...: starting fresh
			// would shadow the existing data.
			log.Fatal(err)
		}
		log.Printf("no previous commit (%v); starting fresh", err)
		store, err = faster.Open(cfg)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		for _, sk := range report.Skipped {
			log.Printf("recovery skipped unverifiable commit %s: %v", sk.Token, sk.Reason)
		}
		log.Printf("recovered store at version %d (commit %s): full replay, time-to-serving %v",
			store.Version(), report.Token, time.Since(t0))
	}
	defer store.Close()

	if *inlogAddr != "" {
		stop, err := startInlog(store, *dir, inlogOptions{
			addr:          *inlogAddr,
			fsync:         *inlogFsync,
			segmentBytes:  *inlogSegBytes,
			batchRecords:  *inlogBatchN,
			batchInterval: *inlogBatchIvl,
		}, metrics, flight, wrapDevice)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
	}

	eng := startHealth(store, *healthIvl, *sloDurLag)
	if eng != nil {
		defer eng.Stop()
	}

	serveDebug(*debugAddr, store.Metrics())

	srv := kvserver.NewServer(store)
	if eng != nil {
		srv.Health = eng.Verdict
	}
	srv.AutoCommit = *autocommit
	srv.IdleTimeout = *idleTO
	if *replAddr != "" {
		rsrv := repl.NewServer(store)
		rsrv.ClientAddr = *addr
		srv.ReplStats = rsrv.ReplStats
		go func() {
			log.Printf("shipping to replicas on %s", *replAddr)
			if err := rsrv.Serve(*replAddr); err != nil {
				log.Printf("replication listener: %v", err)
			}
		}()
	}
	log.Printf("serving on %s (autocommit %v)", *addr, *autocommit)
	defer dumpFlightOnPanic(store)
	if err := srv.Serve(*addr); err != nil {
		log.Fatal(err)
	}
}

// serveDebug serves what the kvserver wire does not carry — the Prometheus
// exposition of reg and pprof — on addr ("" = none).
func serveDebug(addr string, reg *obs.Registry) {
	if addr == "" {
		return
	}
	mux := obs.NewDebugMux(reg)
	go func() {
		log.Printf("debug endpoints on http://%s/{metrics.prom,debug/pprof}", addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Printf("debug listener: %v", err)
		}
	}()
}

// startHealth builds and starts the health engine over a store's
// observability surfaces: it samples the metrics registry every interval,
// runs the stall/SLO detector suite, and captures incident bundles through
// the store's checkpoint store when a detector fires. Returns nil when
// disabled (interval 0).
func startHealth(store *faster.Store, interval, sloDurLag time.Duration) *health.Engine {
	if interval <= 0 {
		return nil
	}
	eng := health.New(health.Config{
		Registry:  store.Metrics(),
		Interval:  interval,
		SLODurLag: sloDurLag,
		Bundles:   store.Checkpoints(),
		Flight:    store.Flight(),
		Traces:    store.RequestTracer(),
		OnIncident: func(b *health.Bundle) {
			log.Printf("health: %s fired (%s); incident bundle incident-%s-%d captured (fasterctl incident)",
				b.Detector, b.Detail, b.Detector, b.Seq)
		},
	})
	eng.Start()
	log.Printf("health engine sampling every %v (slo-durlag %v)", interval, sloDurLag)
	return eng
}

// dumpFlightOnPanic persists the flight recorder's rings as a crash-dump
// artifact ("flight-panic" in the checkpoint store) before letting the panic
// continue, so the last moments before the crash survive for
// `fasterctl flight -dump`.
func dumpFlightOnPanic(store *faster.Store) {
	r := recover()
	if r == nil {
		return
	}
	if err := store.DumpFlight("panic"); err != nil {
		log.Printf("flight dump: %v", err)
	} else {
		log.Printf("flight recorder dumped to checkpoint artifact flight-panic")
	}
	panic(r)
}

// runReplica serves prefix-consistent reads from a replica of upstream,
// promoting to primary on SIGHUP.
func runReplica(cfg faster.Config, upstream, addr, replAddr string, autocommit time.Duration, debugAddr string, healthIvl, sloDurLag time.Duration) {
	rep, err := repl.NewReplica(repl.Config{Upstream: upstream, StoreConfig: cfg})
	if err != nil {
		log.Fatal(err)
	}
	defer rep.Store().Close()

	eng := startHealth(rep.Store(), healthIvl, sloDurLag)
	if eng != nil {
		defer eng.Stop()
	}

	serveDebug(debugAddr, rep.Store().Metrics())

	srv := kvserver.NewReplicaServer(rep)
	if eng != nil {
		srv.Health = eng.Verdict
	}
	srv.AutoCommit = autocommit // takes effect after promotion

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGHUP)
	go func() {
		<-sig
		store, err := rep.Promote()
		if err != nil {
			log.Printf("promote: %v", err)
			return
		}
		log.Printf("promoted to primary at version %d", store.Version())
		if replAddr != "" {
			rsrv := repl.NewServer(store)
			rsrv.ClientAddr = addr
			go func() {
				log.Printf("shipping to replicas on %s", replAddr)
				if err := rsrv.Serve(replAddr); err != nil {
					log.Printf("replication listener: %v", err)
				}
			}()
		}
		srv.Promote(store)
	}()

	log.Printf("replica of %s serving reads on %s (SIGHUP promotes)", upstream, addr)
	defer dumpFlightOnPanic(rep.Store())
	if err := srv.Serve(addr); err != nil {
		log.Fatal(err)
	}
}
