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
	// operation with serial <= Serials[id] is durable, none after. On a
	// partitioned store this is the same point on every shard (the session
	// demarcates once per version).
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

// checkpointCtx tracks one in-flight CPR commit on a single shard.
type checkpointCtx struct {
	store     *shard
	version   uint32
	kind      CommitKind
	withIndex bool
	token     string

	// coord collects the per-session acknowledgments that drive the first
	// two transitions of Fig. 9a and the sessions' CPR points.
	coord *core.Coordinator[*shardSession]

	pendingV atomic.Int64
	flushing atomic.Bool

	// done is closed once this shard's capture is durable (or the leg failed)
	// and the shard is back at rest; res and section — the shard's part of the
	// commit record — are final from then on.
	done    chan struct{}
	res     CommitResult
	section shardSection
}

// storeCommit tracks one in-flight commit at the store level: the token, one
// leg per shard, and the merged result.
type storeCommit struct {
	token   string
	version uint32
	kind    CommitKind
	onDone  func(CommitResult)
	started time.Time
	legs    []*checkpointCtx // in shard order
	done    chan struct{}
	res     CommitResult
}

// ErrCommitInProgress is returned when Commit is called while another commit
// has not yet completed.
var ErrCommitInProgress = fmt.Errorf("faster: a CPR commit is already in progress")

// Commit starts an asynchronous CPR commit (Sec. 6.2) and returns its token
// immediately. One token and version cover every shard: all shard state
// machines start concurrently and the commit completes — record written,
// OnDone fired — only when every shard is durable at that version. Use
// WaitForCommit to block.
func (s *Store) Commit(opts CommitOptions) (string, error) {
	// An instant restore must finish warming first: a checkpoint taken over
	// cold buckets would capture an index missing their suffix records, and
	// recovering from it would lose them.
	if s.Restoring() {
		return "", ErrRestoring
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	// Shards return to rest before the record is written, so s.active — not
	// the shard phases — is what says a commit is still running.
	if s.active != nil {
		return "", ErrCommitInProgress
	}
	c := &storeCommit{
		token:   storage.NextToken(&s.commitSeq),
		version: s.shards[0].Version(),
		kind:    s.cfg.Kind,
		onDone:  opts.OnDone,
		started: time.Now(),
		done:    make(chan struct{}),
	}
	if opts.Kind != nil {
		c.kind = *opts.Kind
	}
	// Every log_start first: a session demarcated on one shard may write v+1
	// records on another before that shard's leg starts (shard.isFuture).
	for _, sh := range s.shards {
		sh.futureFrom[c.version&1].Store(sh.log.Tail())
	}
	for _, sh := range s.shards {
		c.legs = append(c.legs, sh.startCommit(c.token, c.kind, opts.WithIndex))
	}
	s.active = c
	go s.finishCommit(c)
	return c.token, nil
}

// finishCommit waits for every shard's leg, merges their results, and — only
// if all shards are durable and every attachment hook answered — writes the
// commit record, the one artifact that makes the commit recoverable.
// Everything that announces a commit happens here, once, in this order: session
// watermarks, metrics and the commit-done flight event, then the result
// (TryResult, WaitForCommit, Phase() == Rest) — so whoever sees the commit done
// also sees CommittedSerial cover it and the whole timeline recorded — then
// OnDone and the commit hooks.
func (s *Store) finishCommit(c *storeCommit) {
	res := CommitResult{Token: c.token, Version: c.version, Kind: c.kind, Serials: make(map[string]uint64)}
	rec := commitRecord{Format: recordFormat, Token: c.token, Version: c.version, Kind: c.kind.String(), Serials: res.Serials}
	for i, ck := range c.legs {
		<-ck.done
		if ck.res.Err != nil && res.Err == nil {
			res.Err = fmt.Errorf("faster: shard %d commit: %w", i, ck.res.Err)
		}
		res.Bytes += ck.res.Bytes
		rec.Shards = append(rec.Shards, ck.section)
		// A session demarcates once per version, so its point is the same on
		// every shard; min-merge all the same.
		for id, pt := range ck.res.Serials {
			if cur, ok := res.Serials[id]; !ok || pt < cur {
				res.Serials[id] = pt
			}
		}
	}
	if res.Err == nil {
		rec.Attachments, res.Err = s.commitAttachments(res)
	}
	if res.Err == nil {
		var n int64
		n, res.Err = storage.WriteRecord(s.cfg.Checkpoints, c.token, uint64(c.version), &rec, s.cfg.Flight)
		res.Bytes += n
	}
	if res.Err == nil {
		s.noteCommitted(res)
		s.metrics.commits.Inc()
		s.metrics.commitBytes.Add(uint64(res.Bytes))
		s.metrics.commitNs.Observe(time.Since(c.started))
		s.cfg.Flight.Emit(obs.FlightCommitDone, -1, uint64(c.version), c.token, "", uint64(res.Bytes), 0)
	} else {
		s.metrics.commitFailures.Inc()
		s.cfg.Flight.Emit(obs.FlightCommitFail, -1, uint64(c.version), c.token, "", 0, 0)
	}
	c.res = res
	s.ckptMu.Lock()
	s.results.put(res)
	if res.Err == nil {
		s.latestToken, s.latestVer = c.token, c.version
	}
	s.active = nil
	s.ckptMu.Unlock()
	close(c.done)
	if c.onDone != nil {
		c.onDone(res)
	}
	if res.Err == nil {
		s.fireCommitHooks(res)
	}
}

// WaitForCommit blocks until the commit identified by token completes and
// returns its result. It must not be called from a session's own goroutine
// unless other sessions keep refreshing (the commit needs every session to
// acknowledge the version shift).
func (s *Store) WaitForCommit(token string) CommitResult {
	s.ckptMu.Lock()
	c := s.active
	if c == nil || c.token != token {
		res, ok := s.results.byToken[token]
		s.ckptMu.Unlock()
		if ok {
			return res
		}
		return CommitResult{Token: token, Err: fmt.Errorf("faster: unknown commit %q", token)}
	}
	s.ckptMu.Unlock()
	<-c.done
	return c.res
}

// TryResult returns the result of a completed commit without blocking. ok is
// false while the commit is still in flight (or the token is unknown).
func (s *Store) TryResult(token string) (CommitResult, bool) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	res, ok := s.results.byToken[token]
	return res, ok
}

// startCommit starts this shard's leg of a commit: its own run of Fig. 9a,
// ending with the shard's artifacts durable and the shard back at rest. The
// caller (Store.Commit) holds the store's commit admission locks and has
// established that no commit is active.
func (sh *shard) startCommit(token string, kind CommitKind, withIndex bool) *checkpointCtx {
	sh.sessionMu.Lock()
	sh.ckptMu.Lock()
	ck := &checkpointCtx{
		store:     sh,
		version:   sh.Version(),
		kind:      kind,
		withIndex: withIndex,
		token:     token,
		done:      make(chan struct{}),
	}
	ck.coord = core.NewCoordinator[*shardSession](ck.advanceToInProgress, ck.advanceToWaitPending)
	for _, ss := range sh.sessions {
		ck.coord.Add(ss)
	}
	ck.section.Lhs = sh.futureFrom[ck.version&1].Load()
	sh.ckpt = ck
	// Publish the prepare phase; sessions observe it on refresh.
	sh.state.Store(packState(Prepare, ck.version))
	sh.flight.Emit(obs.FlightCommitStart, sh.id, uint64(ck.version), ck.token, "", 0, 0)
	ck.emitPhase(Rest, Prepare)
	ck.bumpEpoch()
	sh.ckptMu.Unlock()
	sh.sessionMu.Unlock()
	// With zero participants the seal completes both transitions at once.
	ck.coord.Seal()
	return ck
}

// ackPrepare records that one participant finished its prepare-entry work;
// the last acknowledgment advances the machine to in-progress (transition 2
// of Fig. 9a).
func (ck *checkpointCtx) ackPrepare(sess *shardSession) {
	ck.coord.AckPrepare(sess)
}

// emitPhase records a state-machine transition in the flight recorder (phase
// codes match the Phase constants; obs.FlightPhaseName renders them).
func (ck *checkpointCtx) emitPhase(from, to Phase) {
	ck.store.flight.Emit(obs.FlightPhase, ck.store.id, uint64(ck.version), ck.token, "",
		uint64(from), uint64(to))
}

// bumpEpoch bumps the shard's epoch after a publication. Nothing waits on the
// drain (the sessions' acknowledgments drive the machine): the action is empty,
// and there so that the epoch manager measures and records how long the
// publication took to reach every registered thread.
func (ck *checkpointCtx) bumpEpoch() { ck.store.epochs.BumpEpoch(func() {}) }

func (ck *checkpointCtx) advanceToInProgress() {
	ck.store.state.Store(packState(InProgress, ck.version))
	ck.emitPhase(Prepare, InProgress)
	ck.bumpEpoch()
}

// ackInProgress records a session's CPR point (transition 3 of Fig. 9a).
func (ck *checkpointCtx) ackInProgress(sess *shardSession, cprSerial uint64) {
	ck.coord.Demarcate(sess, cprSerial)
}

func (ck *checkpointCtx) advanceToWaitPending() {
	ck.store.state.Store(packState(WaitPending, ck.version))
	ck.emitPhase(InProgress, WaitPending)
	ck.checkPendingDone()
}

// dropParticipant removes a stopping session from the commit; a session that
// leaves before demarcating contributes everything it issued (it can issue
// nothing further).
func (ck *checkpointCtx) dropParticipant(sess *shardSession) {
	sameVersion := sess.version == ck.version
	ck.store.flight.Emit(obs.FlightDrop, ck.store.id, uint64(ck.version), ck.token,
		sess.owner.id, sess.owner.Serial(), 0)
	ck.coord.Drop(sess,
		sameVersion && sess.phase >= Prepare,
		sameVersion && sess.phase >= InProgress,
		sess.owner.Serial())
}

// serialsByID converts the coordinator's per-session commit points to the
// session-ID keyed map the commit record persists.
func (ck *checkpointCtx) serialsByID() map[string]uint64 {
	points := ck.coord.Points()
	out := make(map[string]uint64, len(points))
	for sess, pt := range points {
		out[sess.owner.id] = pt
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

// waitFlush captures version v durably (transition 5 of Fig. 9a): fold-over
// shifts the read-only offset to the tail and waits for the flush; snapshot
// writes the volatile log region to a separate artifact. Then the shard returns
// to rest at version v+1 and hands its section of the commit record — offsets,
// blob names, page checksums — and its sessions' CPR points back. That ends the
// leg, not the commit: Store.finishCommit writes the record once every leg is
// done, and nothing the leg wrote counts until then.
func (ck *checkpointCtx) waitFlush() {
	sh := ck.store
	sec := &ck.section
	var written int64
	var err error

	// Record the commit's log end, then take the fuzzy index checkpoint (if
	// requested) before capturing the log: the capture is extended to cover
	// [Lhe, Lie) so that recovery's Alg. 3 scan range max(Lie, Lhe) is fully
	// on the device and v+1 records referenced by fuzzy index entries can be
	// invalidated and chased back to their committed predecessors.
	sec.Lhe = sh.log.Tail()
	if ck.withIndex {
		sec.Lis = sh.log.Tail()
		sec.Index = blobName("index", ck.token, sh.id)
		written, err = storage.WriteArtifactStream(sh.cfg.Checkpoints, sec.Index, sh.index.writeImage, sh.flight, sh.id, uint64(ck.version))
		sec.Lie = sh.log.Tail()
	} else {
		// Carry the most recent index checkpoint forward so log-only
		// commits can recover by replaying from it (Sec. 6.3).
		sec.Index, sec.Lis, sec.Lie = sh.lastIndex, sh.lastLis, sh.lastLie
	}
	captureEnd := sec.logEnd()

	if err == nil {
		switch ck.kind {
		case FoldOver:
			// The last session to refresh past the shift issues the flush; the
			// I/O completion that stores durable >= captureEnd wakes this leg.
			// So does a permanent flush failure (transient errors are retried
			// inside the I/O pool), which aborts the commit cleanly: the
			// record is never written, the commit is never announced, and the
			// store keeps serving at v+1 so the next commit attempt proceeds.
			sh.log.ShiftReadOnlyTo(captureEnd)
			sh.log.WaitDurable(captureEnd)
			if ferr := sh.log.FlushErr(); ferr != nil && sh.log.Durable() < captureEnd {
				err = fmt.Errorf("faster: commit %s: %w", ck.token, ferr)
			} else {
				written += int64(captureEnd - sec.Lhs)
			}
		case Snapshot:
			sec.SnapshotStart = sh.log.Durable()
			sec.Snapshot = blobName("snapshot", ck.token, sh.id)
			// Once every session has refreshed, the records below captureEnd are
			// whole: a v+1 one half written would end its page, hiding v records.
			drained := make(chan struct{})
			sh.epochs.BumpEpoch(func() { close(drained) })
			<-drained
			_, err = storage.WriteArtifactStream(sh.cfg.Checkpoints, sec.Snapshot, func(w io.Writer) error {
				return sh.log.WriteRange(w, sec.SnapshotStart, captureEnd)
			}, sh.flight, sh.id, uint64(ck.version))
			written += int64(captureEnd - sec.SnapshotStart)
		}
	}

	if err == nil {
		// The log's per-page checksum table lets recovery verify the device it
		// is about to trust (covers every page fully flushed under this Log's
		// watch; see hlog.PageChecksums).
		sec.PageCRCs = sh.log.PageChecksums()
		if ck.withIndex {
			sh.lastIndex, sh.lastLis, sh.lastLie = sec.Index, sec.Lis, sec.Lie
		}
		sh.flight.Emit(obs.FlightPersistDone, sh.id, uint64(ck.version), ck.token, "", uint64(written), 0)
	} else {
		sh.flight.Emit(obs.FlightCommitFail, sh.id, uint64(ck.version), ck.token, "", 0, 0)
	}

	ck.res = CommitResult{Serials: ck.serialsByID(), Bytes: written, Err: err}
	// Return to rest at version v+1 and detach the context. The transition is
	// recorded first: whoever sees the commit done finds all five transitions
	// on the timeline.
	ck.emitPhase(WaitFlush, Rest)
	sh.ckptMu.Lock()
	sh.ckpt = nil
	sh.state.Store(packState(Rest, ck.version+1))
	sh.ckptMu.Unlock()
	ck.bumpEpoch()
	close(ck.done)
}
