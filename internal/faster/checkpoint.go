package faster

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
)

// CommitOptions configures a single CPR commit.
type CommitOptions struct {
	// WithIndex also takes a fuzzy checkpoint of the hash index (a "full"
	// commit, Sec. 7.3.1). Log-only commits recover by replaying a longer
	// log suffix from the most recent index checkpoint.
	WithIndex bool
	// Kind overrides the store's default commit kind when non-nil.
	Kind *CommitKind
	// OnDone, if set, is invoked (from the goroutine core.Machine.Flush
	// starts) when the commit becomes durable, with the per-session CPR points.
	OnDone func(res CommitResult)
}

// CommitResult describes a completed CPR commit.
type CommitResult struct {
	Token   string
	Version uint32
	Kind    CommitKind
	// Serials maps each participating session ID to its CPR point: every
	// operation with serial <= Serials[id] is durable, none after.
	Serials map[string]uint64
	// Bytes is the volume this commit made durable: the log it flushed (or
	// the snapshot blob), the index image and the record.
	Bytes int64
	Err   error
}

// commit is the store's running CPR commit.
type commit = core.Commit[*Session, CommitResult]

// ErrCommitInProgress is returned when Commit is called while another commit
// has not yet completed.
var ErrCommitInProgress = core.ErrCommitInProgress

// Commit starts an asynchronous CPR commit (Sec. 6.2) and returns its token
// immediately; the commit completes — record written, OnDone fired — once its
// capture is durable. Use WaitForCommit to block.
func (s *Store) Commit(opts CommitOptions) (string, error) {
	kind := s.cfg.Kind
	if opts.Kind != nil {
		kind = *opts.Kind
	}
	return s.machine.Begin(opts.OnDone, func(c *commit) {
		s.kind, s.withIndex = kind, opts.WithIndex
		s.futureFrom[c.Version&1].Store(s.log.Tail())
	})
}

// WaitForCommit blocks until the commit identified by token completes and
// returns its result. It must not be called from a session's own goroutine
// unless other sessions keep refreshing (the commit needs every session to
// acknowledge the version shift).
func (s *Store) WaitForCommit(token string) CommitResult {
	if res, ok := s.machine.WaitForCommit(token); ok {
		return res
	}
	return CommitResult{Token: token, Err: fmt.Errorf("faster: unknown commit %q", token)}
}

// TryResult returns the result of a completed commit without blocking. ok is
// false while the commit is still in flight (or the token is unknown).
func (s *Store) TryResult(token string) (CommitResult, bool) { return s.machine.TryResult(token) }

// drainEpoch bumps the store's epoch and waits until every registered thread
// has refreshed past it: what any thread was doing between two refreshes when
// it was called is over.
func (s *Store) drainEpoch() {
	drained := make(chan struct{})
	s.epochs.BumpEpoch(func() { close(drained) })
	<-drained
}

// demarcated is transition 3 of Fig. 9a, run by the last session to
// demarcate its CPR point.
func (s *Store) demarcated(*commit) {
	s.machine.Advance(InProgress, WaitPending)
	s.pendingDone()
}

// pendingDone advances wait-pending → wait-flush once every pending version-v
// request has completed (transition 4 of Fig. 9a).
func (s *Store) pendingDone() {
	if s.pendingV.Load() == 0 {
		s.machine.Flush(WaitPending)
	}
}

// flush is transition 5 of Fig. 9a and the end of the commit: it captures
// version v durably, returns the machine to rest at v+1 and — only if the
// capture is durable and every attachment hook answered — writes the commit
// record, the one artifact that makes the commit recoverable. Everything that
// announces a commit happens here, once, in this order: session watermarks,
// metrics and the commit-done flight event, then the result (TryResult,
// WaitForCommit, Phase() == Rest) — so whoever sees the commit done also sees
// CommittedSerial cover it and the whole timeline recorded — then OnDone and
// the commit hooks.
func (s *Store) flush(c *commit) {
	points := c.Points()
	serials := make(map[string]uint64, len(points))
	for sess, pt := range points {
		serials[sess.id] = pt
	}
	rec := commitRecord{Format: recordFormat, Token: c.Token, Version: c.Version, Kind: s.kind.String(),
		Serials: serials, Sections: make([]section, 1)}
	res := CommitResult{Token: c.Token, Version: c.Version, Kind: s.kind, Serials: serials}
	res.Bytes, res.Err = s.capture(c, rec.sec())
	s.machine.Rest(c, func() { s.settled.Store(c.Version + 1) })

	if res.Err == nil {
		rec.Attachments, res.Err = s.commitAttachments(res)
	}
	if res.Err == nil {
		var n int64
		n, res.Err = storage.WriteRecord(s.cfg.Checkpoints, c.Token, uint64(c.Version), &rec, s.cfg.Flight)
		res.Bytes += n
	}
	if res.Err == nil {
		s.noteCommitted(points, c.Token)
		s.metrics.commits.Inc()
		s.metrics.commitBytes.Add(uint64(res.Bytes))
		s.metrics.commitNs.Observe(time.Since(c.Started))
		s.mu.Lock()
		s.latestToken, s.latestVer = c.Token, c.Version
		s.mu.Unlock()
	}
	s.machine.Done(c, res, res.Err, uint64(res.Bytes))
	if res.Err == nil {
		s.fireCommitHooks(res)
	}
}

// capture makes version v durable and fills in the record's section —
// offsets, blob names, page checksums. Fold-over shifts the log's read-only
// offset to its tail and waits for the flush; snapshot writes the log's
// volatile region to a blob. Nothing it writes counts until the record does.
// A fold-over commit with the index shifts read-only to Lis right after the
// drain, so the I/O pool flushes the log below it while this goroutine streams
// the image, then shifts to the capture's end and waits.
func (s *Store) capture(c *commit, sec *section) (written int64, err error) {
	v := uint64(c.Version)
	flushed := s.log.Durable() // a fold-over commit makes the log past it durable
	// Record the log's end, then take the fuzzy index checkpoint (if
	// requested) before capturing the log: the capture is extended to cover
	// [Lhe, Lie) so that recovery's Alg. 3 scan range max(Lie, Lhe) is fully
	// on the device and v+1 records referenced by fuzzy index entries can be
	// invalidated and chased back to their committed predecessors.
	sec.Lhs = s.futureFrom[c.Version&1].Load()
	sec.Lhe = s.log.Tail()
	if s.withIndex {
		// Recovery replays the log from Lis over the image, so every record
		// below it must be in the index before the image is taken: a record
		// appended but not yet swapped in is the work of a thread that has not
		// refreshed since, so a drain waits for it.
		sec.Lis = s.log.Tail()
		s.drainEpoch()
		if s.kind == FoldOver {
			// Flush the log below Lis while the image streams; its records only
			// turn read-only sooner (DESIGN "Fuzzy index checkpoint").
			s.log.ShiftReadOnlyTo(sec.Lis)
		}
		sec.Index = blobName("index", c.Token)
		if written, err = storage.WriteArtifactStream(s.cfg.Checkpoints, sec.Index, s.index.writeImage, s.cfg.Flight, v); err != nil {
			return 0, err
		}
		sec.Lie = s.log.Tail()
	} else {
		// Carry the most recent index checkpoint forward so log-only commits
		// can recover by replaying from it (Sec. 6.3).
		sec.Index, sec.Lis, sec.Lie = s.lastIndex, s.lastLis, s.lastLie
	}

	end := sec.logEnd()
	switch s.kind {
	case FoldOver:
		// The last session to refresh past the shift issues the flush; the I/O
		// completion that stores durable >= the capture's end wakes this
		// goroutine. So does a permanent flush failure (transient errors are
		// retried inside the I/O pool), which aborts the commit cleanly: the
		// record is never written, the commit is never announced, and the
		// store keeps serving at v+1 so the next commit attempt proceeds.
		s.log.ShiftReadOnlyTo(end)
		s.log.WaitDurable(end)
		if ferr := s.log.FlushErr(); ferr != nil && s.log.Durable() < end {
			return 0, fmt.Errorf("faster: commit %s: %w", c.Token, ferr)
		}
		written += int64(end - min(flushed, end))
	case Snapshot:
		sec.SnapshotStart = s.log.Durable()
		sec.Snapshot = blobName("snapshot", c.Token)
		// Once every session has refreshed, the records below the capture's
		// end are whole: a v+1 one half written would end its page, hiding v
		// records.
		s.drainEpoch()
		if _, err = storage.WriteArtifactStream(s.cfg.Checkpoints, sec.Snapshot, func(w io.Writer) error {
			return s.log.WriteRange(w, sec.SnapshotStart, end)
		}, s.cfg.Flight, v); err != nil {
			return 0, err
		}
		written += int64(end - sec.SnapshotStart)
	}

	// The log's per-page checksum table lets recovery verify the device it is
	// about to trust (covers every page fully flushed under this Log's watch;
	// see hlog.PageChecksums).
	sec.PageCRCs = s.log.PageChecksums()
	if s.withIndex {
		s.lastIndex, s.lastLis, s.lastLie = sec.Index, sec.Lis, sec.Lie
	}
	s.cfg.Flight.Emit(obs.FlightPersistDone, -1, v, c.Token, "", uint64(written), 0)
	return written, nil
}
