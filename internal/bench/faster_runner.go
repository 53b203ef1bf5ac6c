package bench

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/obs"
	"repro/internal/ycsb"
)

// FasterParams configures one FASTER measurement (Sec. 7.3).
type FasterParams struct {
	Threads   int
	Keys      uint64
	ValueSize int
	// Shards partitions the store (default 1 = the unpartitioned store).
	Shards int
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
	// SampleEvery sets the time-series sampling interval (default 100ms).
	SampleEvery time.Duration
}

// FasterSample is one time-series point.
type FasterSample struct {
	T         float64
	Mops      float64
	LatencyUs float64 // mean sampled operation latency in the interval
	LogBytes  int64   // HybridLog extent (tail - begin), Fig. 12d
}

// FasterSummary aggregates a run.
type FasterSummary struct {
	Mops         float64
	AvgLatencyUs float64
	Commits      []faster.CommitResult
	Series       []FasterSample
	// CommitIntervalSec is the mean spacing between issued commits (for
	// the end-to-end experiment, Fig. 15).
	CommitIntervalSec float64
	// Metrics is the store's registry delta over the run.
	Metrics obs.Snapshot
	// PhaseNanos sums, per CPR phase, the timeline's span durations for the
	// commits this run issued (where does checkpoint time go?).
	PhaseNanos map[string]int64
}

// OpenLoadedStore opens a store sized for p and pre-loads all keys, as the
// paper does before each experiment ("Threads first load the key-value store
// with data").
func OpenLoadedStore(p FasterParams) (*faster.Store, error) {
	const pageBits = 18 // 256 KiB pages
	// Size memory to ~2x the loaded data set.
	recBytes := uint64(hlog.RecordSize(8, p.ValueSize))
	memPages := int(2*p.Keys*recBytes>>pageBits) + 4
	buckets := 1
	for uint64(buckets) < p.Keys/2 {
		buckets <<= 1
	}
	shards := p.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > 1 {
		// MemPages is a store-wide budget split across shards; add the same
		// fixed headroom each shard would have had alone, keeping the data
		// budget comparable to the single-shard configuration.
		memPages += 4 * (shards - 1)
	}
	s, err := faster.Open(faster.Config{
		Shards:       shards,
		IndexBuckets: buckets,
		PageBits:     pageBits,
		MemPages:     memPages,
		Kind:         p.Kind,
		Transfer:     p.Transfer,
		// The phase timeline (PhaseNanos) is read from the flight recorder.
		Flight: obs.NewFlightRecorder(obs.DefaultFlightCapacity),
	})
	if err != nil {
		return nil, err
	}
	// Parallel load.
	loaders := p.Threads
	if loaders < 1 {
		loaders = 1
	}
	var wg sync.WaitGroup
	per := p.Keys / uint64(loaders)
	for i := 0; i < loaders; i++ {
		lo := uint64(i) * per
		hi := lo + per
		if i == loaders-1 {
			hi = p.Keys
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := s.StartSession()
			defer sess.StopSession()
			val := make([]byte, p.ValueSize)
			var kb [8]byte
			for k := lo; k < hi; k++ {
				binary.LittleEndian.PutUint64(kb[:], k)
				binary.LittleEndian.PutUint64(val, k)
				if st := sess.Upsert(kb[:], val); st == faster.Pending {
					sess.CompletePending(true)
				}
			}
			sess.CompletePending(true)
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

	var stop atomic.Bool
	var opsTotal atomic.Int64
	var latSumNs, latCount atomic.Int64
	var wg sync.WaitGroup
	metricsBefore := s.Metrics().Snapshot()

	for i := 0; i < p.Threads; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := s.StartSession()
			gen := ycsb.NewGenerator(ycsb.TxnSpec{
				Keys: p.Keys, TxnSize: 1, ReadFraction: p.ReadFrac, Theta: theta,
			}, uint64(i)*1e9+17)
			var kb, vb [8]byte
			val := make([]byte, p.ValueSize)
			local := int64(0)
			for n := 0; ; n++ {
				if n%64 == 0 {
					if stop.Load() {
						break
					}
					opsTotal.Add(local)
					local = 0
					sess.CompletePending(false)
				}
				k := gen.NextKey()
				binary.LittleEndian.PutUint64(kb[:], k)
				sample := n%256 == 0
				var t0 time.Time
				if sample {
					t0 = time.Now()
				}
				if gen.IsWrite() {
					if p.RMW {
						binary.LittleEndian.PutUint64(vb[:], 1+uint64(n%8))
						sess.RMW(kb[:], vb[:])
					} else {
						binary.LittleEndian.PutUint64(val, uint64(n))
						sess.Upsert(kb[:], val)
					}
				} else {
					sess.Read(kb[:], nil)
				}
				if sample {
					latSumNs.Add(time.Since(t0).Nanoseconds())
					latCount.Add(1)
				}
				local++
			}
			opsTotal.Add(local)
			sess.CompletePending(true)
			for s.Phase() != faster.Rest {
				sess.Refresh()
				sess.CompletePending(false)
			}
			sess.StopSession()
		}()
	}

	start := time.Now()
	tick := p.SampleEvery
	if tick == 0 {
		tick = 100 * time.Millisecond
	}
	var series []FasterSample
	var commits []faster.CommitResult
	var commitTimes []float64
	var commitMu sync.Mutex
	nextMark := 0
	issued := 0
	lastOps, lastLat, lastLatN := int64(0), int64(0), int64(0)
	lastT := 0.0
	for {
		time.Sleep(tick)
		now := time.Since(start).Seconds()
		cur := opsTotal.Load()
		ls, ln := latSumNs.Load(), latCount.Load()
		sm := FasterSample{
			T:        now,
			Mops:     float64(cur-lastOps) / (now - lastT) / 1e6,
			LogBytes: s.LogBytes(),
		}
		if ln > lastLatN {
			sm.LatencyUs = float64(ls-lastLat) / float64(ln-lastLatN) / 1e3
		}
		series = append(series, sm)
		lastOps, lastT, lastLat, lastLatN = cur, now, ls, ln
		for nextMark < len(p.CommitAt) && now >= p.CommitAt[nextMark] {
			tok, err := s.Commit(faster.CommitOptions{
				WithIndex: p.WithIndex,
				OnDone: func(res faster.CommitResult) {
					commitMu.Lock()
					commits = append(commits, res)
					commitTimes = append(commitTimes, time.Since(start).Seconds())
					commitMu.Unlock()
				},
			})
			_ = tok
			if err == nil {
				issued++
			} else if err != faster.ErrCommitInProgress {
				return FasterSummary{}, fmt.Errorf("commit at %.1fs: %w", now, err)
			}
			nextMark++
		}
		if now >= p.Seconds {
			stop.Store(true)
			break
		}
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	// OnDone fires just after the store returns to rest; give stragglers a
	// moment so the summary counts every issued commit.
	for deadline := time.Now().Add(2 * time.Second); ; {
		commitMu.Lock()
		n := len(commits)
		commitMu.Unlock()
		if n >= issued || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	commitMu.Lock()
	sum := FasterSummary{
		Mops:    float64(opsTotal.Load()) / elapsed / 1e6,
		Series:  series,
		Commits: append([]faster.CommitResult(nil), commits...),
	}
	if len(commitTimes) > 1 {
		sum.CommitIntervalSec = (commitTimes[len(commitTimes)-1] - commitTimes[0]) /
			float64(len(commitTimes)-1)
	}
	commitMu.Unlock()
	if n := latCount.Load(); n > 0 {
		sum.AvgLatencyUs = float64(latSumNs.Load()) / float64(n) / 1e3
	}
	sum.Metrics = s.Metrics().Snapshot().Sub(metricsBefore)
	sum.PhaseNanos = phaseNanos(s.Tracer(), sum.Commits)
	return sum, nil
}

// phaseNanos sums the timeline's closed phase spans, per phase, for the given
// commits' tokens.
func phaseNanos(tr *obs.Tracer, commits []faster.CommitResult) map[string]int64 {
	if len(commits) == 0 {
		return nil
	}
	tokens := make(map[string]bool, len(commits))
	for _, c := range commits {
		tokens[c.Token] = true
	}
	out := make(map[string]int64)
	for _, sp := range tr.Timeline().Spans {
		if !sp.Open && tokens[sp.Token] {
			out[sp.Phase] += sp.DurationNanos
		}
	}
	return out
}
