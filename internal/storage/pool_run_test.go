package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// scriptDevice fails reads at chosen offsets: a negative count fails them for
// good (a permanent error), a positive one that many times with a transient
// error before letting them through. It counts the attempts per offset.
type scriptDevice struct {
	*MemDevice
	mu       sync.Mutex
	fail     map[int64]int
	attempts map[int64]int
}

var errMediaDead = errors.New("scriptDevice: media dead")

func (d *scriptDevice) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	d.attempts[off]++
	left := d.fail[off]
	if left > 0 {
		d.fail[off]--
	}
	d.mu.Unlock()
	switch {
	case left < 0:
		return 0, errMediaDead
	case left > 0:
		return 0, fmt.Errorf("%w: scripted", ErrTransient)
	}
	return d.MemDevice.ReadAt(p, off)
}

// TestPoolRunOrderAndErrors: a run handed over with one SubmitRun — longer
// than a worker takes per wake-up, with one request failing for good, one
// failing twice before it succeeds, and one whose completion chains a further
// Submit — completes every request exactly once (in submission order when one
// worker serves it), retries only the transient failure, leaves nothing in
// flight, and Close waits for the chained request too.
func TestPoolRunOrderAndErrors(t *testing.T) {
	const reqs, dead, flaky, chains = 40, 3, 21, 30
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			d := &scriptDevice{MemDevice: NewMemDevice(),
				fail: map[int64]int{dead: -1, flaky: 2}, attempts: map[int64]int{}}
			content := make([]byte, reqs+1)
			for i := range content {
				content[i] = byte(i)
			}
			if _, err := d.WriteAt(content, 0); err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			p := NewPool(workers)
			p.Instrument(reg)

			var mu sync.Mutex
			var order []int
			calls := make([]int, reqs)
			errs := make([]error, reqs)
			bufs := make([][1]byte, reqs+1)
			var chained atomic.Int32
			run := make([]IORequest, reqs)
			for i := range run {
				run[i] = IORequest{Dev: d, Buf: bufs[i][:], Off: int64(i), Done: func(n int, err error) {
					mu.Lock()
					order = append(order, i)
					calls[i]++
					errs[i] = err
					mu.Unlock()
					if i == chains {
						p.Submit(IORequest{Dev: d, Buf: bufs[reqs][:], Off: reqs,
							Done: func(int, error) { chained.Add(1) }})
					}
				}}
			}
			p.SubmitRun(run)
			clear(run) // the pool copied the run: the caller's slice is its own again
			p.Close()

			if chained.Load() != 1 || bufs[reqs][0] != reqs {
				t.Errorf("chained request: completed %d times, read %d", chained.Load(), bufs[reqs][0])
			}
			for i := range calls {
				if calls[i] != 1 {
					t.Errorf("request %d: Done called %d times", i, calls[i])
				}
				switch {
				case i == dead:
					if !errors.Is(errs[i], errMediaDead) {
						t.Errorf("permanently failing request: error %v", errs[i])
					}
				case errs[i] != nil || bufs[i][0] != byte(i):
					t.Errorf("request %d: error %v, read %d", i, errs[i], bufs[i][0])
				}
				if workers == 1 && (len(order) != reqs || order[i] != i) {
					t.Fatalf("one worker served %v, want submission order", order)
				}
			}
			if d.attempts[dead] != 1 || d.attempts[flaky] != 3 {
				t.Errorf("device attempts: %d for the permanent failure (want 1), %d for the transient one (want 3)",
					d.attempts[dead], d.attempts[flaky])
			}
			snap := reg.Snapshot()
			if got := snap.Counters["storage_io_retries_total"]; got != 2 {
				t.Errorf("storage_io_retries_total = %d, want 2", got)
			}
			if got := snap.Counters["storage_io_reads_total"]; got != reqs+1 {
				t.Errorf("storage_io_reads_total = %d, want %d", got, reqs+1)
			}
			// The latency histogram samples one request per worker run.
			if got := snap.Histograms["storage_io_read_ns"].Count; got < 2 || got > reqs/2 {
				t.Errorf("storage_io_read_ns holds %d observations for %d reads in runs of up to %d", got, reqs+1, RunLen)
			}

			// After the drain a run is refused whole, each Done told why.
			refused := 0
			p.SubmitRun([]IORequest{
				{Dev: d, Buf: bufs[0][:], Done: func(_ int, err error) {
					if errors.Is(err, ErrClosed) {
						refused++
					}
				}},
				{Dev: d, Buf: bufs[1][:]},
			})
			if refused != 1 {
				t.Errorf("run after Close: %d refusals delivered, want 1", refused)
			}
		})
	}
}

// TestPoolRetryExhausted: a request that keeps failing transiently is tried
// exactly DefaultRetry.Attempts times — the first try outside RetryPolicy.Do
// included — and its last error reaches Done.
func TestPoolRetryExhausted(t *testing.T) {
	d := &scriptDevice{MemDevice: NewMemDevice(), fail: map[int64]int{0: 100}, attempts: map[int64]int{}}
	p := NewPool(1)
	done := make(chan error, 1)
	var b [1]byte
	p.Submit(IORequest{Dev: d, Buf: b[:], Done: func(_ int, err error) { done <- err }})
	if err := <-done; !IsTransient(err) {
		t.Fatalf("error after exhausted retries: %v", err)
	}
	p.Close()
	if d.attempts[0] != DefaultRetry.Attempts {
		t.Fatalf("%d attempts under a %d-attempt policy", d.attempts[0], DefaultRetry.Attempts)
	}
}

// BenchmarkPoolRead: the hand-off cost of one 64-byte read of a MemDevice —
// submit, worker wake-up, device call, completion — when reads go to the pool
// one at a time, each awaited, and in runs of 16 awaited together (ns/op is
// per read either way).
func BenchmarkPoolRead(b *testing.B) {
	for _, run := range []int{1, 16} {
		name := "one"
		if run > 1 {
			name = fmt.Sprintf("run%d", run)
		}
		b.Run(name, func(b *testing.B) {
			d := NewMemDevice()
			if _, err := d.WriteAt(make([]byte, 64*run), 0); err != nil {
				b.Fatal(err)
			}
			p := NewPool(4)
			p.Instrument(obs.NewRegistry())
			defer p.Close()
			var left atomic.Int32
			done := make(chan struct{}, 1)
			reqs := make([]IORequest, run)
			bufs := make([]byte, 64*run)
			for i := range reqs {
				reqs[i] = IORequest{Dev: d, Buf: bufs[64*i : 64*i+64], Off: int64(64 * i), Done: func(int, error) {
					if left.Add(-1) == 0 {
						done <- struct{}{}
					}
				}}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += run {
				left.Store(int32(run))
				p.SubmitRun(reqs)
				<-done
			}
		})
	}
}
