package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/faster"
	"repro/internal/obs"
	"repro/internal/storage"
)

// storeSpec is how a workload wants its FASTER store built.
type storeSpec struct {
	shards   int
	file     bool // FileDevice + DirCheckpointStore under the run's temp dir; else RAM-backed
	keys     int  // loaded keys; sizes the hash index at keys/2 buckets (the paper's default)
	pageBits uint
	memPages int
	reqTrace bool // request tracer at retention 64, as cprserver ships it
	instant  bool // recover with InstantRestore, then WaitRestored

	// The obs cost probe switches one instrument off at a time.
	nopMetrics, noFlight bool
}

// storeEnv is one open store together with the counting wrappers under it.
// Instruments are on as cprserver ships them: metrics registry, flight
// recorder at obs.DefaultFlightCapacity.
type storeEnv struct {
	spec  storeSpec
	dir   string // file-backed: holds hybridlog-<shard>.dat and checkpoints/
	mems  []*ramDevice
	memCk *storage.MemCheckpointStore

	devs []*countDevice
	dev  *ioStats
	ckpt *countCkpt
	reg  *obs.Registry

	store *faster.Store
}

func indexBuckets(keys int) int {
	b := 1 << 10
	for b < keys/2 {
		b <<= 1
	}
	return b
}

// newStoreEnv prepares devices and checkpoint store (fresh, or those of a
// crash image) but does not open the store.
func newStoreEnv(spec storeSpec, dir string, img *crashImage, bg *ring) (*storeEnv, error) {
	e := &storeEnv{spec: spec, dir: dir, reg: obs.NewRegistry()}
	e.dev = newIOStats(spDevRead, spDevWrite, spDevSync, bg)
	var cs storage.CheckpointStore
	if spec.file {
		if img != nil {
			e.dir = img.dir
		}
		for i := 0; i < spec.shards; i++ {
			d, err := storage.OpenFileDevice(filepath.Join(e.dir, fmt.Sprintf("hybridlog-%d.dat", i)))
			if err != nil {
				return nil, err
			}
			e.devs = append(e.devs, &countDevice{inner: d, st: e.dev})
		}
		dcs, err := storage.NewDirCheckpointStore(filepath.Join(e.dir, "checkpoints"))
		if err != nil {
			return nil, err
		}
		cs = dcs
	} else {
		if img != nil {
			e.mems, e.memCk = img.mems, img.memCk
		} else {
			for i := 0; i < spec.shards; i++ {
				e.mems = append(e.mems, &ramDevice{})
			}
			e.memCk = storage.NewMemCheckpointStore()
		}
		for _, m := range e.mems {
			e.devs = append(e.devs, &countDevice{inner: m, st: e.dev})
		}
		cs = e.memCk
	}
	e.ckpt = newCountCkpt(cs, bg)
	return e, nil
}

func (e *storeEnv) config() faster.Config {
	cfg := faster.Config{
		Shards:       e.spec.shards,
		IndexBuckets: indexBuckets(e.spec.keys),
		PageBits:     e.spec.pageBits,
		MemPages:     e.spec.memPages,
		Checkpoints:  e.ckpt,
		Metrics:      e.reg,
		Flight:       obs.NewFlightRecorder(obs.DefaultFlightCapacity),
	}
	if e.spec.shards == 1 {
		cfg.Device = e.devs[0]
	} else {
		cfg.DeviceFactory = func(i int) (storage.Device, error) { return e.devs[i], nil }
	}
	if e.spec.reqTrace {
		cfg.ReqTrace = obs.NewRequestTracer(64)
	}
	if e.spec.nopMetrics {
		cfg.Metrics = obs.NewNop()
	}
	if e.spec.noFlight {
		cfg.Flight = nil
	}
	return cfg
}

func openStoreEnv(spec storeSpec, dir string, bg *ring) (*storeEnv, error) {
	e, err := newStoreEnv(spec, dir, nil, bg)
	if err != nil {
		return nil, err
	}
	e.store, err = faster.Open(e.config())
	return e, err
}

// recoverStoreEnv runs faster.Recover over a crash image, which it takes
// ownership of (recovery writes to the device).
func recoverStoreEnv(spec storeSpec, img *crashImage, bg *ring) (*storeEnv, error) {
	e, err := newStoreEnv(spec, "", img, bg)
	if err != nil {
		return nil, err
	}
	cfg := e.config()
	cfg.InstantRestore = spec.instant
	e.store, err = faster.Recover(cfg)
	return e, err
}

func (e *storeEnv) close() {
	if e.store != nil {
		e.store.Close()
	}
	for _, d := range e.devs {
		d.Close() //nolint:errcheck // nothing is read from the device after this
	}
}

// deviceBytes is the total extent of the HybridLog devices.
func (e *storeEnv) deviceBytes() int64 {
	var n int64
	for _, d := range e.devs {
		n += d.Size()
	}
	return n
}

// crashImage is the state a killed process leaves behind (crash model:
// process kill — everything the program handed to a device or the checkpoint
// store survives, everything only in its memory is lost). It is taken while
// the store is open and idle.
type crashImage struct {
	mems  []*ramDevice
	memCk *storage.MemCheckpointStore
	dir   string // file-backed: a copy of the store directory (and the inlog's)
}

func (e *storeEnv) image(tmp string) (*crashImage, error) {
	if e.spec.file {
		return (&crashImage{dir: e.dir}).fork(tmp)
	}
	img := &crashImage{memCk: e.memCk.Clone()}
	for _, m := range e.mems {
		img.mems = append(img.mems, m.clone())
	}
	return img, nil
}

// fork returns a private copy of the image for one recovery to consume.
func (img *crashImage) fork(tmp string) (*crashImage, error) {
	if img.dir == "" {
		out := &crashImage{memCk: img.memCk.Clone()}
		for _, m := range img.mems {
			out.mems = append(out.mems, m.clone())
		}
		return out, nil
	}
	dst, err := os.MkdirTemp(tmp, "image-")
	if err != nil {
		return nil, err
	}
	return &crashImage{dir: dst}, copyDir(img.dir, dst)
}

func copyDir(src, dst string) error {
	return filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// commitLog collects what the commit driver saw.
type commitLog struct {
	mu      sync.Mutex
	spans   [][2]int64      // Commit call -> WaitForCommit return
	callNs  []int64         // Store.Commit call alone
	waitNs  []int64         // WaitForCommit alone
	tokens  map[string]bool // of the commits above, to find their phases in the CPR tracer
	failed  int
	lastErr error
}

// commitOnce issues one commit and waits for it. idle sessions are ones no
// goroutine is driving: the commit needs every session to acknowledge the
// version shift, so they are refreshed here while waiting.
func commitOnce(store *faster.Store, opts faster.CommitOptions, idle []*faster.Session, bg *ring, cl *commitLog) error {
	t0 := now()
	token, err := store.Commit(opts)
	t1 := now()
	if err != nil {
		return err
	}
	var res faster.CommitResult
	if len(idle) == 0 {
		res = store.WaitForCommit(token)
	} else {
		for {
			var ok bool
			if res, ok = store.TryResult(token); ok {
				break
			}
			for _, s := range idle {
				s.Refresh()
				s.CompletePending(false)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	t2 := now()
	bg.sharedLeaf(spCommit, t0, t1)
	bg.sharedLeaf(spWaitForCommit, t1, t2)
	if cl != nil {
		cl.mu.Lock()
		cl.spans = append(cl.spans, [2]int64{t0, t2})
		cl.callNs = append(cl.callNs, t1-t0)
		cl.waitNs = append(cl.waitNs, t2-t1)
		if cl.tokens == nil {
			cl.tokens = make(map[string]bool)
		}
		cl.tokens[token] = true
		cl.mu.Unlock()
	}
	return res.Err
}

// driveCommits issues a log-only fold-over commit each time it is kicked (see
// run.opsDone), until stop is closed; in between the goroutine is asleep.
// after, if not nil, is called when a commit has completed, with how many have.
func driveCommits(store *faster.Store, kick, stop <-chan struct{}, bg *ring, cl *commitLog, after func(done int)) {
	for {
		select {
		case <-stop:
			return
		case <-kick:
			if err := commitOnce(store, faster.CommitOptions{}, nil, bg, cl); err != nil {
				cl.mu.Lock()
				cl.failed++
				cl.lastErr = err
				cl.mu.Unlock()
			} else if after != nil {
				after(len(cl.spans))
			}
		}
	}
}
