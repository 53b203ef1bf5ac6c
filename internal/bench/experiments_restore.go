package bench

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/faster"
	"repro/internal/storage"
)

// recoveryttfo measures time-to-first-op (TTFO) after a crash: full replay
// recovery vs instant restore (Config.InstantRestore). Both recover the same
// crash image on a device with a fixed per-I/O latency (an SSD-ish cost
// model; the build phase runs latency-free so only recovery pays it).
//
// The asymmetry under test: full replay verifies every page of the log and
// replays the whole suffix before serving anything, while instant restore
// serves once the index is loaded — the first op blocks only on the suffix
// scan (the same page-at-a-time scan, verifying as it reads) plus its own
// bucket's warm-up, and the sweeper finishes the rest in background.
// TTFO is measured to the completion of a read of a suffix-overwritten key,
// so the instant number includes an on-demand bucket warm, not just Recover
// returning.
func init() {
	register(Experiment{
		ID:    "recoveryttfo",
		Title: "Instant restore: time-to-first-op vs full replay",
		Paper: "Sec. 4 recovery, instant-restore extension",
		Run: func(cfg Config, w io.Writer) error {
			const devLatency = 20 * time.Microsecond
			base := uint64(scaled(10_000, cfg.Scale))
			suffixes := []uint64{
				uint64(scaled(5_000, cfg.Scale)),
				uint64(scaled(20_000, cfg.Scale)),
				uint64(scaled(80_000, cfg.Scale)),
			}
			fmt.Fprintf(w, "device read/write latency %v; %d base keys\n", devLatency, base)
			fmt.Fprintf(w, "%12s %10s %12s %12s %12s %10s\n",
				"suffix", "mode", "recover(ms)", "ttfo(ms)", "warm(ms)", "speedup")

			var lastRatio float64
			for _, sfx := range suffixes {
				dev := storage.NewMemDevice()
				ckpts := storage.NewMemCheckpointStore()
				open := faster.Config{IndexBuckets: 1 << 12, PageBits: 14,
					MemPages: 8, Device: dev, Checkpoints: ckpts}
				if err := buildRestoreBenchImage(open, base, sfx); err != nil {
					return err
				}

				// Read a key the suffix overwrote: under instant restore this
				// forces analysis + one on-demand bucket warm before the value
				// is visible, the honest definition of "first op served".
				probe := uint64(0) // overwritten by every suffix size (j=0 writes key 0)
				var ttfoMs [2]float64
				for mi, instant := range []bool{false, true} {
					rdev := dev.Clone()
					rdev.Latency = devLatency
					rcfg := open
					rcfg.Device = rdev
					rcfg.Checkpoints = ckpts.Clone()
					rcfg.InstantRestore = instant

					t0 := time.Now()
					r, err := faster.Recover(rcfg)
					if err != nil {
						return err
					}
					recoverMs := ms(time.Since(t0))
					sess := r.StartSession()
					var kb [8]byte
					binary.LittleEndian.PutUint64(kb[:], probe)
					var got uint64
					var done bool
					val, st := sess.Read(kb[:], func(v []byte, s2 faster.Status) {
						done = true
						if s2 == faster.Ok {
							got = binary.LittleEndian.Uint64(v)
						}
					})
					if st == faster.Pending {
						sess.CompletePending(true)
					} else if st == faster.Ok {
						done, got = true, binary.LittleEndian.Uint64(val)
					}
					if !done || got != probe+1 {
						sess.StopSession()
						r.Close()
						return fmt.Errorf("recoveryttfo: probe key %d = %d (done=%v), want suffix value %d",
							probe, got, done, probe+1)
					}
					ttfoMs[mi] = ms(time.Since(t0))
					warmMs := 0.0
					mode := "full"
					if instant {
						mode = "instant"
						if err := r.WaitRestored(); err != nil {
							sess.StopSession()
							r.Close()
							return err
						}
						warmMs = ms(time.Since(t0))
					}
					sess.StopSession()
					r.Close()

					row := Row{"suffix_records": sfx, "mode": mode,
						"dev_latency_us": float64(devLatency.Microseconds()),
						"recover_ms":     recoverMs, "ttfo_ms": ttfoMs[mi],
						"warm_ms": warmMs}
					speedup := ""
					if instant && ttfoMs[1] > 0 {
						lastRatio = ttfoMs[0] / ttfoMs[1]
						row["ttfo_speedup"] = lastRatio
						speedup = fmt.Sprintf("%.1fx", lastRatio)
					}
					cfg.Record(row)
					fmt.Fprintf(w, "%12d %10s %12.1f %12.1f %12.1f %10s\n",
						sfx, mode, recoverMs, ttfoMs[mi], warmMs, speedup)
				}
			}
			fmt.Fprintf(w, "largest suffix: instant-restore TTFO is %.1fx lower than full replay\n",
				lastRatio)
			return nil
		}})
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// buildRestoreBenchImage loads base keys (key i -> i) under an index
// checkpoint, then a suffix of updates (key j%(2*base) -> j%(2*base)+1, half
// overwrites, half fresh keys) under a log-only checkpoint, and closes the
// store — the crash image every recovery mode starts from.
func buildRestoreBenchImage(open faster.Config, base, sfx uint64) error {
	s, err := faster.Open(open)
	if err != nil {
		return err
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	var kb, vb [8]byte
	put := func(k, v uint64) {
		binary.LittleEndian.PutUint64(kb[:], k)
		binary.LittleEndian.PutUint64(vb[:], v)
		if st := sess.Upsert(kb[:], vb[:]); st == faster.Pending {
			sess.CompletePending(true)
		}
	}
	commit := func(idx bool) error {
		token, err := s.Commit(faster.CommitOptions{WithIndex: idx})
		if err != nil {
			return err
		}
		for {
			if res, ok := s.TryResult(token); ok {
				return res.Err
			}
			sess.Refresh()
			sess.CompletePending(false)
		}
	}
	for i := uint64(0); i < base; i++ {
		put(i, i)
	}
	if err := commit(true); err != nil {
		return err
	}
	for j := uint64(0); j < sfx; j++ {
		k := j % (2 * base)
		put(k, k+1)
	}
	return commit(false)
}
