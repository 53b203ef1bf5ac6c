package bench

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/obs"
	"repro/internal/ycsb"
)

// FasterParams configures one FASTER measurement (Sec. 7.3).
// Keys and values are 8 bytes.
type FasterParams struct {
	Threads int
	Keys    uint64
	// ReadFrac is the fraction of reads; the rest are blind updates, or
	// read-modify-writes when RMW is set (the paper's "0:100 RMW").
	ReadFrac float64
	RMW      bool
	// Zipf selects the zipfian (theta 0.99) distribution; false = uniform.
	Zipf bool

	Kind     faster.CommitKind
	Transfer faster.VersionTransfer

	Seconds float64
	// CommitAt issues commits at these absolute times (seconds).
	CommitAt  []float64
	WithIndex bool
}

// FasterSummary aggregates a run.
type FasterSummary struct {
	Mops         float64
	AvgLatencyUs float64
	Commits      []faster.CommitResult
	// Series is the run in 16 intervals.
	Series Series
	// Dip is the run read inside versus outside its commit spans.
	Dip Dip
}

// storeConfig sizes a store for keys records: an index of about two keys
// per bucket, and memory for about twice the loaded data in 256 KiB pages.
func storeConfig(keys uint64) faster.Config {
	buckets := 1
	for uint64(buckets) < keys/2 {
		buckets <<= 1
	}
	return faster.Config{IndexBuckets: buckets, PageBits: 18,
		MemPages: int(2*keys*uint64(hlog.RecordSize(8, 8))>>18) + 4}
}

// OpenLoadedStore opens a store sized for p and pre-loads all keys, as the
// paper does before each experiment ("Threads first load the key-value store
// with data").
func OpenLoadedStore(p FasterParams) (*faster.Store, error) {
	cfg := storeConfig(p.Keys)
	cfg.Kind, cfg.Transfer = p.Kind, p.Transfer
	// The ruler reads the commit spans from the flight recorder.
	cfg.Flight = obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	s, err := faster.Open(cfg)
	if err != nil {
		return nil, err
	}
	// Parallel load.
	loaders := max(1, p.Threads)
	var wg sync.WaitGroup
	per := p.Keys / uint64(loaders)
	for i := 0; i < loaders; i++ {
		lo, hi := uint64(i)*per, uint64(i+1)*per
		if i == loaders-1 {
			hi = p.Keys
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := s.StartSession()
			upsertKeys(sess, lo, hi, 0)
			sess.StopSession()
		}()
	}
	wg.Wait()
	return s, nil
}

// RunFaster drives the YCSB-style key-value workload over a store.
func RunFaster(p FasterParams) (FasterSummary, error) {
	s, err := OpenLoadedStore(p)
	if err != nil {
		return FasterSummary{}, err
	}
	defer s.Close()
	theta := 0.0
	if p.Zipf {
		theta = 0.99
	}
	var tokens []string
	r, err := drive(load{
		threads: p.Threads, seconds: p.Seconds, flight: s.Flight(), gauge: s.LogBytes,
		worker: func(i int) worker {
			sess := s.StartSession()
			gen := ycsb.NewGenerator(ycsb.TxnSpec{
				Keys: p.Keys, TxnSize: 1, ReadFraction: p.ReadFrac, Theta: theta,
			}, uint64(i)*1e9+17)
			var kb, vb [8]byte
			return worker{
				op: func(n int) bool {
					binary.LittleEndian.PutUint64(kb[:], gen.NextKey())
					switch {
					case !gen.IsWrite():
						sess.Read(kb[:], nil)
					case p.RMW:
						binary.LittleEndian.PutUint64(vb[:], 1+uint64(n%8))
						sess.RMW(kb[:], vb[:])
					default:
						binary.LittleEndian.PutUint64(vb[:], uint64(n))
						sess.Upsert(kb[:], vb[:])
					}
					if n%64 == 63 {
						sess.CompletePending(false)
					}
					return true
				},
				stop: func() { drainSession(s, sess) },
			}
		},
		tick: atMarks(p.CommitAt, func() error {
			tok, err := s.Commit(faster.CommitOptions{WithIndex: p.WithIndex})
			if err == nil {
				tokens = append(tokens, tok)
			} else if err != faster.ErrCommitInProgress {
				return fmt.Errorf("commit: %w", err)
			}
			return nil
		}),
	})
	if err != nil {
		return FasterSummary{}, err
	}
	// Every commit was issued before the workers stopped, and a stopped
	// session holds no commit up: wait for each one's record to be written.
	sum := FasterSummary{Mops: r.mops(), AvgLatencyUs: r.avgLatencyUs(), Series: r.series(16)}
	for _, tok := range tokens {
		sum.Commits = append(sum.Commits, s.WaitForCommit(tok))
	}
	sum.Dip = r.readDip(s.Tracer().Timeline())
	return sum, nil
}

// drainSession completes sess's pending ops, keeps it refreshing until no
// commit is running — the state machine needs every session — and stops it.
func drainSession(s *faster.Store, sess *faster.Session) {
	sess.CompletePending(true)
	for s.Phase() != faster.Rest {
		sess.Refresh()
		sess.CompletePending(false)
		runtime.Gosched() // the commit's own goroutines need the CPU more
	}
	sess.StopSession()
}

// upsertKeys writes keys lo..hi-1, each with value key+add, through sess.
func upsertKeys(sess *faster.Session, lo, hi, add uint64) {
	var kb, vb [8]byte
	for i := lo; i < hi; i++ {
		binary.LittleEndian.PutUint64(kb[:], i)
		binary.LittleEndian.PutUint64(vb[:], i+add)
		if st := sess.Upsert(kb[:], vb[:]); st == faster.Pending {
			sess.CompletePending(true)
		}
	}
	sess.CompletePending(true)
}

// commitWait takes one commit and waits for its result, refreshing sess, the
// caller's session, as the state machine needs every session to.
func commitWait(s *faster.Store, sess *faster.Session, opts faster.CommitOptions) (faster.CommitResult, error) {
	token, err := s.Commit(opts)
	if err != nil {
		return faster.CommitResult{}, err
	}
	for {
		if res, ok := s.TryResult(token); ok {
			return res, res.Err
		}
		sess.Refresh()
	}
}

// oneAtATime returns request, which starts a commit unless the last one it
// started is still running, and wait, which returns once no commit it started
// is running or in onDone. onDone gets each result and how long it took.
func oneAtATime(s *faster.Store, onDone func(faster.CommitResult, time.Duration)) (request, wait func()) {
	var active atomic.Bool
	var running sync.WaitGroup
	request = func() {
		if active.Swap(true) {
			return
		}
		running.Add(1)
		start := time.Now()
		_, err := s.Commit(faster.CommitOptions{OnDone: func(res faster.CommitResult) {
			onDone(res, time.Since(start))
			active.Store(false)
			running.Done()
		}})
		if err != nil {
			active.Store(false)
			running.Done()
		}
	}
	return request, running.Wait
}
