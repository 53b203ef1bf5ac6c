package faster

import (
	"fmt"
	"io"
	"sync/atomic"
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
	// OnDone, if set, is invoked (from the checkpoint goroutine) when the
	// commit becomes durable, with the per-session CPR points.
	OnDone func(res CommitResult)
}

// CommitResult describes a completed CPR commit.
type CommitResult struct {
	Token   string
	Version uint32
	Kind    CommitKind
	// Serials maps each participating session ID to its CPR point: every
	// operation with serial <= Serials[id] is durable, none after, on every
	// shard.
	Serials map[string]uint64
	// Bytes is the volume written for this commit (log + snapshot + index,
	// summed across shards).
	Bytes int64
	Err   error
}

// maxResults is how many completed commits stay retrievable by token.
const maxResults = 64

// commitResults retains the results of the newest maxResults commits by token
// (each holds a per-session map, and an autocommitting server completes a
// commit every few hundred milliseconds for as long as it runs). An older
// token is an unknown commit. The zero value is ready to use.
type commitResults struct {
	byToken map[string]CommitResult
	ring    [maxResults]string // tokens retained; slot n%maxResults is the oldest
	n       int
}

func (r *commitResults) put(res CommitResult) {
	if r.byToken == nil {
		r.byToken = make(map[string]CommitResult, maxResults)
	}
	slot := &r.ring[r.n%maxResults]
	delete(r.byToken, *slot)
	*slot = res.Token
	r.n++
	r.byToken[res.Token] = res
}

// checkpointCtx is the running CPR commit: the store's one state machine
// walking Fig. 9a for version v over every shard.
type checkpointCtx struct {
	store     *Store
	token     string
	version   uint32
	kind      CommitKind
	withIndex bool
	onDone    func(CommitResult)
	started   time.Time

	// coord collects the per-session acknowledgments that drive the first
	// two transitions of Fig. 9a and the sessions' CPR points.
	coord *core.Coordinator[*Session]

	pendingV atomic.Int64
	flushing atomic.Bool

	// done is closed once the commit's result is published; res is final
	// from then on.
	done chan struct{}
	res  CommitResult
}

// ErrCommitInProgress is returned when Commit is called while another commit
// has not yet completed.
var ErrCommitInProgress = fmt.Errorf("faster: a CPR commit is already in progress")

// Commit starts an asynchronous CPR commit (Sec. 6.2) and returns its token
// immediately. One token, one version and one run of the state machine cover
// every shard; the commit completes — record written, OnDone fired — once
// every shard's capture is durable. Use WaitForCommit to block.
func (s *Store) Commit(opts CommitOptions) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The machine returns to rest before the record is written, so s.active —
	// not the phase — is what says a commit is still running.
	if s.active.Load() != nil {
		return "", ErrCommitInProgress
	}
	ck := &checkpointCtx{
		store:     s,
		token:     storage.NextToken(&s.commitSeq),
		version:   s.Version(),
		kind:      s.cfg.Kind,
		withIndex: opts.WithIndex,
		onDone:    opts.OnDone,
		started:   time.Now(),
		done:      make(chan struct{}),
	}
	if opts.Kind != nil {
		ck.kind = *opts.Kind
	}
	ck.coord = core.NewCoordinator[*Session](ck.advanceToInProgress, ck.advanceToWaitPending)
	for _, sess := range s.sessions {
		ck.coord.Add(sess)
	}
	for _, sh := range s.shards {
		sh.futureFrom[ck.version&1].Store(sh.log.Tail())
	}
	s.active.Store(ck)
	// Publish the prepare phase; sessions observe it on refresh.
	s.state.Store(packState(Prepare, ck.version))
	s.cfg.Flight.Emit(obs.FlightCommitStart, -1, uint64(ck.version), ck.token, "", 0, 0)
	ck.emitPhase(Rest, Prepare)
	ck.bumpEpoch()
	// With zero participants the seal completes both transitions at once.
	ck.coord.Seal()
	return ck.token, nil
}

// WaitForCommit blocks until the commit identified by token completes and
// returns its result. It must not be called from a session's own goroutine
// unless other sessions keep refreshing (the commit needs every session to
// acknowledge the version shift).
func (s *Store) WaitForCommit(token string) CommitResult {
	s.ckptMu.Lock()
	ck := s.active.Load()
	if ck == nil || ck.token != token {
		res, ok := s.results.byToken[token]
		s.ckptMu.Unlock()
		if ok {
			return res
		}
		return CommitResult{Token: token, Err: fmt.Errorf("faster: unknown commit %q", token)}
	}
	s.ckptMu.Unlock()
	<-ck.done
	return ck.res
}

// TryResult returns the result of a completed commit without blocking. ok is
// false while the commit is still in flight (or the token is unknown).
func (s *Store) TryResult(token string) (CommitResult, bool) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	res, ok := s.results.byToken[token]
	return res, ok
}

// emitPhase records a state-machine transition in the flight recorder (phase
// codes match the Phase constants; obs.FlightPhaseName renders them).
func (ck *checkpointCtx) emitPhase(from, to Phase) {
	ck.store.cfg.Flight.Emit(obs.FlightPhase, -1, uint64(ck.version), ck.token, "", uint64(from), uint64(to))
}

// bumpEpoch bumps the store's epoch after a publication. Nothing waits on the
// drain (the sessions' acknowledgments drive the machine): the action is empty,
// and there so that the epoch manager measures and records how long the
// publication took to reach every registered thread.
func (ck *checkpointCtx) bumpEpoch() { ck.store.epochs.BumpEpoch(func() {}) }

// advanceToInProgress is transition 2 of Fig. 9a, fired by the last session
// to acknowledge prepare.
func (ck *checkpointCtx) advanceToInProgress() {
	ck.store.state.Store(packState(InProgress, ck.version))
	ck.emitPhase(Prepare, InProgress)
	ck.bumpEpoch()
}

// advanceToWaitPending is transition 3, fired by the last session to
// demarcate its CPR point.
func (ck *checkpointCtx) advanceToWaitPending() {
	ck.store.state.Store(packState(WaitPending, ck.version))
	ck.emitPhase(InProgress, WaitPending)
	ck.checkPendingDone()
}

// dropParticipant removes a stopping session from the commit; a session that
// leaves before demarcating contributes everything it issued (it can issue
// nothing further).
func (ck *checkpointCtx) dropParticipant(sess *Session) {
	sameVersion := sess.version == ck.version
	ck.store.cfg.Flight.Emit(obs.FlightDrop, -1, uint64(ck.version), ck.token, sess.id, sess.Serial(), 0)
	ck.coord.Drop(sess,
		sameVersion && sess.phase >= Prepare,
		sameVersion && sess.phase >= InProgress,
		sess.Serial())
}

// serialsByID converts the coordinator's per-session commit points to the
// session-ID keyed map the commit record persists.
func (ck *checkpointCtx) serialsByID() map[string]uint64 {
	points := ck.coord.Points()
	out := make(map[string]uint64, len(points))
	for sess, pt := range points {
		out[sess.id] = pt
	}
	return out
}

// checkPendingDone advances wait-pending → wait-flush once every pending
// version-v request has completed (transition 4 of Fig. 9a).
func (ck *checkpointCtx) checkPendingDone() {
	if p, _ := unpackState(ck.store.state.Load()); p != WaitPending {
		return
	}
	if ck.pendingV.Load() != 0 {
		return
	}
	if ck.flushing.Swap(true) {
		return
	}
	ck.store.state.Store(packState(WaitFlush, ck.version))
	ck.emitPhase(WaitPending, WaitFlush)
	go ck.waitFlush()
}

// waitFlush is transition 5 of Fig. 9a and the end of the commit: it captures
// version v of every shard durably, returns the machine to rest at v+1 and —
// only if every capture is durable and every attachment hook answered —
// writes the commit record, the one artifact that makes the commit
// recoverable. Everything that announces a commit happens here, once, in this
// order: session watermarks, metrics and the commit-done flight event, then
// the result (TryResult, WaitForCommit, Phase() == Rest) — so whoever sees the
// commit done also sees CommittedSerial cover it and the whole timeline
// recorded — then OnDone and the commit hooks.
func (ck *checkpointCtx) waitFlush() {
	s := ck.store
	rec := commitRecord{Format: recordFormat, Token: ck.token, Version: ck.version, Kind: ck.kind.String(),
		Serials: ck.serialsByID(), Shards: make([]shardSection, len(s.shards))}
	res := CommitResult{Token: ck.token, Version: ck.version, Kind: ck.kind, Serials: rec.Serials}
	res.Bytes, res.Err = ck.capture(rec.Shards)
	// The transition is recorded first: whoever sees the commit done finds all
	// five transitions on the timeline.
	ck.emitPhase(WaitFlush, Rest)
	s.state.Store(packState(Rest, ck.version+1))
	ck.bumpEpoch()

	if res.Err == nil {
		rec.Attachments, res.Err = s.commitAttachments(res)
	}
	if res.Err == nil {
		var n int64
		n, res.Err = storage.WriteRecord(s.cfg.Checkpoints, ck.token, uint64(ck.version), &rec, s.cfg.Flight)
		res.Bytes += n
	}
	if res.Err == nil {
		s.noteCommitted(res)
		s.metrics.commits.Inc()
		s.metrics.commitBytes.Add(uint64(res.Bytes))
		s.metrics.commitNs.Observe(time.Since(ck.started))
		s.cfg.Flight.Emit(obs.FlightCommitDone, -1, uint64(ck.version), ck.token, "", uint64(res.Bytes), 0)
	} else {
		s.metrics.commitFailures.Inc()
		s.cfg.Flight.Emit(obs.FlightCommitFail, -1, uint64(ck.version), ck.token, "", 0, 0)
	}
	ck.res = res
	s.ckptMu.Lock()
	s.results.put(res)
	if res.Err == nil {
		s.latestToken, s.latestVer = ck.token, ck.version
	}
	s.active.Store(nil)
	s.ckptMu.Unlock()
	close(ck.done)
	if ck.onDone != nil {
		ck.onDone(res)
	}
	if res.Err == nil {
		s.fireCommitHooks(res)
	}
}

// capture makes version v of every shard durable, one shard after another,
// and fills in each shard's section of the record — offsets, blob names, page
// checksums. Fold-over shifts every log's read-only offset to its tail and
// waits for each flush; snapshot writes each log's volatile region to a blob.
// Nothing it writes counts until the record does.
func (ck *checkpointCtx) capture(secs []shardSection) (written int64, err error) {
	s, v := ck.store, uint64(ck.version)
	shardBytes := make([]int64, len(s.shards))
	// Record each log's end, then take its fuzzy index checkpoint (if
	// requested) before capturing the log: the capture is extended to cover
	// [Lhe, Lie) so that recovery's Alg. 3 scan range max(Lie, Lhe) is fully
	// on the device and v+1 records referenced by fuzzy index entries can be
	// invalidated and chased back to their committed predecessors.
	for i, sh := range s.shards {
		sec := &secs[i]
		sec.Lhs = sh.futureFrom[ck.version&1].Load()
		sec.Lhe = sh.log.Tail()
		if !ck.withIndex {
			// Carry the most recent index checkpoint forward so log-only
			// commits can recover by replaying from it (Sec. 6.3).
			sec.Index, sec.Lis, sec.Lie = sh.lastIndex, sh.lastLis, sh.lastLie
			continue
		}
		sec.Lis = sh.log.Tail()
		sec.Index = blobName("index", ck.token, sh.id)
		if shardBytes[i], err = storage.WriteArtifactStream(s.cfg.Checkpoints, sec.Index, sh.index.writeImage, s.cfg.Flight, sh.id, v); err != nil {
			return 0, err
		}
		sec.Lie = sh.log.Tail()
	}

	switch ck.kind {
	case FoldOver:
		// The last session to refresh past a shift issues that log's flush; the
		// I/O completion that stores durable >= the capture's end wakes this
		// goroutine. So does a permanent flush failure (transient errors are
		// retried inside the I/O pool), which aborts the commit cleanly: the
		// record is never written, the commit is never announced, and the
		// store keeps serving at v+1 so the next commit attempt proceeds.
		for i, sh := range s.shards {
			sh.log.ShiftReadOnlyTo(secs[i].logEnd())
		}
		for i, sh := range s.shards {
			end := secs[i].logEnd()
			sh.log.WaitDurable(end)
			if ferr := sh.log.FlushErr(); ferr != nil && sh.log.Durable() < end {
				return 0, fmt.Errorf("faster: commit %s: shard %d: %w", ck.token, sh.id, ferr)
			}
			shardBytes[i] += int64(end - secs[i].Lhs)
		}
	case Snapshot:
		for i, sh := range s.shards {
			secs[i].SnapshotStart = sh.log.Durable()
			secs[i].Snapshot = blobName("snapshot", ck.token, sh.id)
		}
		// Once every session has refreshed, the records below each capture's
		// end are whole: a v+1 one half written would end its page, hiding v
		// records.
		drained := make(chan struct{})
		s.epochs.BumpEpoch(func() { close(drained) })
		<-drained
		for i, sh := range s.shards {
			sec := &secs[i]
			if _, err = storage.WriteArtifactStream(s.cfg.Checkpoints, sec.Snapshot, func(w io.Writer) error {
				return sh.log.WriteRange(w, sec.SnapshotStart, sec.logEnd())
			}, s.cfg.Flight, sh.id, v); err != nil {
				return 0, err
			}
			shardBytes[i] += int64(sec.logEnd() - sec.SnapshotStart)
		}
	}

	for i, sh := range s.shards {
		// The log's per-page checksum table lets recovery verify the device it
		// is about to trust (covers every page fully flushed under this Log's
		// watch; see hlog.PageChecksums).
		secs[i].PageCRCs = sh.log.PageChecksums()
		if ck.withIndex {
			sh.lastIndex, sh.lastLis, sh.lastLie = secs[i].Index, secs[i].Lis, secs[i].Lie
		}
		sh.flight.Emit(obs.FlightPersistDone, sh.id, v, ck.token, "", uint64(shardBytes[i]), 0)
		written += shardBytes[i]
	}
	return written, nil
}
