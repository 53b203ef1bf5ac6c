package faster

import (
	"encoding/json"
	"fmt"
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
	store   *shard
	version uint32
	kind    CommitKind
	opts    CommitOptions
	token   string
	// traceToken is token plus the shard's trace suffix, so the per-shard
	// state machines of a coordinated commit stay distinguishable in the
	// shared tracer.
	traceToken string
	// coordinated marks a shard-level leg of a cross-shard commit: the
	// store-level coordinator owns the merged result, commit metrics and
	// OnDone callback.
	coordinated bool

	// coord collects the per-session acknowledgments that drive the first
	// two transitions of Fig. 9a and the sessions' CPR points.
	coord *core.Coordinator[*shardSession]

	pendingV atomic.Int64
	flushing atomic.Bool
	started  time.Time

	lhs, lhe      uint64
	lis, lie      uint64
	snapshotStart uint64

	done chan struct{}
	res  CommitResult
}

// metadata is the persisted commit descriptor (one per shard).
type metadata struct {
	Token         string            `json:"token"`
	Version       uint32            `json:"version"`
	Kind          string            `json:"kind"`
	Lhs           uint64            `json:"log_start"`
	Lhe           uint64            `json:"log_end"`
	Lis           uint64            `json:"index_start"`
	Lie           uint64            `json:"index_end"`
	SnapshotStart uint64            `json:"snapshot_start"`
	HasIndex      bool              `json:"has_index"`
	IndexToken    string            `json:"index_token"`
	Serials       map[string]uint64 `json:"serials"`
}

// manifest is the persisted descriptor of a cross-shard commit. It is
// written only after every shard's checkpoint is durable, so its existence
// under "cpr-latest" proves the version is recoverable on all shards; a
// crash that leaves some shards committed and others not falls back to the
// previous manifest.
type manifest struct {
	Token   string `json:"token"`
	Version uint32 `json:"version"`
	Shards  int    `json:"shards"`
	Kind    string `json:"kind"`
}

// multiCommit tracks one in-flight cross-shard commit at the store level.
type multiCommit struct {
	token   string
	version uint32
	opts    CommitOptions
	started time.Time
	done    chan struct{}
	res     CommitResult
}

// ErrCommitInProgress is returned when Commit is called while another commit
// has not yet completed.
var ErrCommitInProgress = fmt.Errorf("faster: a CPR commit is already in progress")

// Commit starts an asynchronous CPR commit (Sec. 6.2) and returns its token
// immediately. On a partitioned store one token and version cover every
// shard: the coordinator starts all shard state machines concurrently and
// the commit completes — manifest written, OnDone fired — only when every
// shard is durable at that version. Use WaitForCommit to block.
func (s *Store) Commit(opts CommitOptions) (string, error) {
	// An instant restore must finish warming first: a checkpoint taken over
	// cold buckets would capture an index missing their suffix records, and
	// recovering from it would lose them.
	if s.Restoring() {
		return "", ErrRestoring
	}
	if len(s.shards) == 1 {
		return s.shards[0].commit(opts, "")
	}
	s.mu.Lock()
	s.ckptMu.Lock()
	if s.multi != nil {
		s.ckptMu.Unlock()
		s.mu.Unlock()
		return "", ErrCommitInProgress
	}
	for _, sh := range s.shards {
		if p, _ := unpackState(sh.state.Load()); p != Rest {
			s.ckptMu.Unlock()
			s.mu.Unlock()
			return "", ErrCommitInProgress
		}
	}
	token := fmt.Sprintf("ckpt-%06d", s.commitSeq.Add(1))
	mc := &multiCommit{
		token:   token,
		version: s.shards[0].Version(),
		opts:    opts,
		started: time.Now(),
		done:    make(chan struct{}),
	}
	shOpts := opts
	shOpts.OnDone = nil // the store-level coordinator fires the merged OnDone
	for _, sh := range s.shards {
		if _, err := sh.commit(shOpts, token); err != nil {
			// Unreachable under the store-level serialization of commits;
			// surface it rather than wedge (already-started shards complete
			// on their own and the manifest is never written).
			s.ckptMu.Unlock()
			s.mu.Unlock()
			return "", err
		}
	}
	s.multi = mc
	s.ckptMu.Unlock()
	s.mu.Unlock()
	go s.finishMultiCommit(mc)
	return token, nil
}

// finishMultiCommit waits for every shard's leg of the commit, merges the
// per-shard results, and — only if all shards are durable — publishes the
// cross-shard manifest that makes the commit recoverable.
func (s *Store) finishMultiCommit(mc *multiCommit) {
	var bytes int64
	var firstErr error
	var kind CommitKind
	serials := make(map[string]uint64)
	for _, sh := range s.shards {
		r := sh.waitForCommit(mc.token)
		if r.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("faster: shard %d commit: %w", sh.id, r.Err)
		}
		bytes += r.Bytes
		kind = r.Kind
		for id, pt := range r.Serials {
			if cur, ok := serials[id]; !ok || pt < cur {
				serials[id] = pt
			}
		}
	}
	if firstErr == nil {
		man := manifest{Token: mc.token, Version: mc.version, Shards: len(s.shards), Kind: kind.String()}
		buf, err := json.Marshal(man)
		if err == nil {
			err = writeArtifactFlight(s.cfg.Checkpoints, "cpr-manifest-"+mc.token, buf, s.cfg.Flight, -1, mc.version)
		}
		if err == nil {
			err = writeArtifactFlight(s.cfg.Checkpoints, "cpr-latest", []byte(mc.token), s.cfg.Flight, -1, mc.version)
		}
		if err == nil {
			// The manifest and latest-pointer are durable: the commit is now
			// recoverable on every shard.
			s.cfg.Flight.Emit(obs.FlightManifestWrite, -1, uint64(mc.version), mc.token, "", 0, 0)
			err = s.writeCommitAttachments(CommitResult{
				Token: mc.token, Version: mc.version, Kind: kind, Serials: serials,
			})
		}
		firstErr = err
	}
	mc.res = CommitResult{
		Token: mc.token, Version: mc.version, Kind: kind,
		Serials: serials, Bytes: bytes, Err: firstErr,
	}
	if firstErr == nil {
		s.noteCommitted(mc.res) // watermarks first, as in waitFlush
	}
	s.ckptMu.Lock()
	s.results.put(mc.res)
	s.multi = nil
	s.ckptMu.Unlock()
	if firstErr == nil {
		s.metrics.commits.Inc()
		s.metrics.commitBytes.Add(uint64(bytes))
		s.metrics.commitNs.Observe(time.Since(mc.started))
		s.cfg.Flight.Emit(obs.FlightCommitDone, -1, uint64(mc.version), mc.token, "", uint64(bytes), 0)
	} else {
		s.metrics.commitFailures.Inc()
		s.cfg.Flight.Emit(obs.FlightCommitFail, -1, uint64(mc.version), mc.token, "", 0, 0)
	}
	close(mc.done)
	if mc.opts.OnDone != nil {
		mc.opts.OnDone(mc.res)
	}
	if firstErr == nil {
		s.fireCommitHooks(mc.res)
	}
}

// WaitForCommit blocks until the commit identified by token completes and
// returns its result. It must not be called from a session's own goroutine
// unless other sessions keep refreshing (the commit needs every session to
// acknowledge the version shift).
func (s *Store) WaitForCommit(token string) CommitResult {
	if len(s.shards) == 1 {
		return s.shards[0].waitForCommit(token)
	}
	s.ckptMu.Lock()
	mc := s.multi
	if mc == nil || mc.token != token {
		res, ok := s.results.byToken[token]
		s.ckptMu.Unlock()
		if ok {
			return res
		}
		return CommitResult{Token: token, Err: fmt.Errorf("faster: unknown commit %q", token)}
	}
	s.ckptMu.Unlock()
	<-mc.done
	return mc.res
}

// TryResult returns the result of a completed commit without blocking. ok is
// false while the commit is still in flight (or the token is unknown).
func (s *Store) TryResult(token string) (CommitResult, bool) {
	if len(s.shards) == 1 {
		return s.shards[0].tryResult(token)
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	res, ok := s.results.byToken[token]
	return res, ok
}

// commit starts this shard's CPR state machine. token == "" (an
// uncoordinated, single-shard commit) allocates the next store token;
// otherwise the shard joins the cross-shard commit under the given token.
func (sh *shard) commit(opts CommitOptions, token string) (string, error) {
	coordinated := token != ""
	sh.sessionMu.Lock()
	sh.ckptMu.Lock()
	if sh.restoring() {
		sh.ckptMu.Unlock()
		sh.sessionMu.Unlock()
		return "", ErrRestoring
	}
	if sh.ckpt != nil {
		sh.ckptMu.Unlock()
		sh.sessionMu.Unlock()
		return "", ErrCommitInProgress
	}
	if p, _ := unpackState(sh.state.Load()); p != Rest {
		sh.ckptMu.Unlock()
		sh.sessionMu.Unlock()
		return "", ErrCommitInProgress
	}
	kind := sh.cfg.Kind
	if opts.Kind != nil {
		kind = *opts.Kind
	}
	if !coordinated {
		token = fmt.Sprintf("ckpt-%06d", sh.seq.Add(1))
	}
	ck := &checkpointCtx{
		store:       sh,
		version:     sh.Version(),
		kind:        kind,
		opts:        opts,
		token:       token,
		traceToken:  token + sh.traceSuffix,
		coordinated: coordinated,
		started:     time.Now(),
		done:        make(chan struct{}),
	}
	ck.coord = core.NewCoordinator[*shardSession](ck.advanceToInProgress, ck.advanceToWaitPending)
	for _, ss := range sh.sessions {
		ck.coord.Add(ss)
	}
	ck.lhs = sh.log.Tail()
	sh.ckpt = ck
	// Publish the prepare phase; sessions observe it on refresh.
	sh.state.Store(packState(Prepare, ck.version))
	sh.flight.Emit(obs.FlightCommitStart, sh.id, uint64(ck.version), ck.token, "", 0, 0)
	ck.emitPhase(Rest, Prepare)
	sh.tracer.Phase(ck.traceToken, uint64(ck.version), Rest.String(), Prepare.String())
	ck.bumpTraced(Prepare)
	sh.ckptMu.Unlock()
	sh.sessionMu.Unlock()
	// With zero participants the seal completes both transitions at once.
	ck.coord.Seal()
	return ck.token, nil
}

// waitForCommit blocks until the shard-level commit identified by token
// completes and returns its result.
func (sh *shard) waitForCommit(token string) CommitResult {
	sh.ckptMu.Lock()
	ck := sh.ckpt
	if ck == nil || ck.token != token {
		res, ok := sh.results.byToken[token]
		sh.ckptMu.Unlock()
		if ok {
			return res
		}
		return CommitResult{Token: token, Err: fmt.Errorf("faster: unknown commit %q", token)}
	}
	sh.ckptMu.Unlock()
	<-ck.done
	return ck.res
}

// tryResult returns the result of a completed shard commit without blocking.
func (sh *shard) tryResult(token string) (CommitResult, bool) {
	sh.ckptMu.Lock()
	defer sh.ckptMu.Unlock()
	res, ok := sh.results.byToken[token]
	return res, ok
}

// ackPrepare records that one participant finished its prepare-entry work;
// the last acknowledgment advances the machine to in-progress (transition 2
// of Fig. 9a).
func (ck *checkpointCtx) ackPrepare(sess *shardSession) {
	ck.coord.AckPrepare(sess)
}

// bumpTraced bumps the epoch for a phase publication, recording the drain
// latency (how long until every registered thread observed the phase) in the
// store's tracer.
func (ck *checkpointCtx) bumpTraced(published Phase) {
	sh := ck.store
	t0 := time.Now()
	sh.epochs.BumpEpoch(func() {
		sh.tracer.Drain(ck.traceToken, published.String(), uint64(ck.version), time.Since(t0))
	})
}

// emitPhase records a state-machine transition in the flight recorder (phase
// codes match the Phase constants; obs.FlightPhaseName renders them).
func (ck *checkpointCtx) emitPhase(from, to Phase) {
	ck.store.flight.Emit(obs.FlightPhase, ck.store.id, uint64(ck.version), ck.token, "",
		uint64(from), uint64(to))
}

func (ck *checkpointCtx) advanceToInProgress() {
	ck.store.state.Store(packState(InProgress, ck.version))
	ck.emitPhase(Prepare, InProgress)
	ck.store.tracer.Phase(ck.traceToken, uint64(ck.version), Prepare.String(), InProgress.String())
	ck.bumpTraced(InProgress)
}

// ackInProgress records a session's CPR point (transition 3 of Fig. 9a).
func (ck *checkpointCtx) ackInProgress(sess *shardSession, cprSerial uint64) {
	ck.coord.Demarcate(sess, cprSerial)
}

func (ck *checkpointCtx) advanceToWaitPending() {
	ck.store.state.Store(packState(WaitPending, ck.version))
	ck.emitPhase(InProgress, WaitPending)
	ck.store.tracer.Phase(ck.traceToken, uint64(ck.version), InProgress.String(), WaitPending.String())
	ck.checkPendingDone()
}

// dropParticipant removes a stopping session from the commit; a session that
// leaves before demarcating contributes everything it issued (it can issue
// nothing further).
func (ck *checkpointCtx) dropParticipant(sess *shardSession) {
	sameVersion := sess.version == ck.version
	ck.store.flight.Emit(obs.FlightDrop, ck.store.id, uint64(ck.version), ck.token,
		sess.owner.id, sess.owner.Serial(), 0)
	ck.store.tracer.Session(ck.traceToken, sess.owner.id, "drop", uint64(ck.version), sess.owner.Serial())
	ck.coord.Drop(sess,
		sameVersion && sess.phase >= Prepare,
		sameVersion && sess.phase >= InProgress,
		sess.owner.Serial())
}

// serialsByID converts the coordinator's per-session commit points to the
// session-ID keyed map persisted in commit metadata.
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
	ck.store.tracer.Phase(ck.traceToken, uint64(ck.version), WaitPending.String(), WaitFlush.String())
	go ck.waitFlush()
}

// waitFlush captures version v durably (transition 5 of Fig. 9a): fold-over
// shifts the read-only offset to the tail and waits for the flush; snapshot
// writes the volatile log region to a separate artifact. Then the metadata
// (including per-session CPR points) is persisted and the shard returns to
// rest at version v+1.
func (ck *checkpointCtx) waitFlush() {
	sh := ck.store
	var written int64
	var err error

	// Record the commit's log end, then take the fuzzy index checkpoint (if
	// requested) before capturing the log: the capture is extended to cover
	// [Lhe, Lie) so that recovery's Alg. 3 scan range max(Lie, Lhe) is fully
	// on the device and v+1 records referenced by fuzzy index entries can be
	// invalidated and chased back to their committed predecessors.
	ck.lhe = sh.log.Tail()
	indexToken := ""
	if ck.opts.WithIndex {
		ck.lis = sh.log.Tail()
		indexToken = ck.token
		// The index knows its size: the image is built once, inside its
		// checksum envelope (so the write can be retried whole on a transient
		// fault), and handed to the checkpoint store as is.
		var n int
		n, err = writeBuiltFlight(sh.cfg.Checkpoints, "index-"+ck.token, sh.index.imageSize(),
			sh.index.appendImage, sh.flight, sh.id, ck.version)
		written += int64(n)
		ck.lie = sh.log.Tail()
	} else {
		// Carry the most recent index checkpoint forward so log-only
		// commits can recover by replaying from it (Sec. 6.3).
		indexToken, ck.lis, ck.lie = sh.lastIndexToken, sh.lastLis, sh.lastLie
	}
	captureEnd := ck.lhe
	if ck.opts.WithIndex && ck.lie > captureEnd {
		captureEnd = ck.lie
	}

	if err == nil {
		switch ck.kind {
		case FoldOver:
			sh.log.ShiftReadOnlyTo(captureEnd)
			// Drive epoch progress ourselves so the shift's trigger action
			// and flush run even if every session is momentarily idle. A
			// permanent flush failure (transient errors are retried inside
			// the I/O pool) aborts the commit cleanly: the metadata is never
			// written, the commit is never announced, and the store keeps
			// serving at v+1 so the next commit attempt proceeds.
			g := sh.epochs.Acquire()
			for sh.log.Durable() < captureEnd {
				if ferr := sh.log.FlushErr(); ferr != nil {
					err = fmt.Errorf("faster: commit %s: %w", ck.token, ferr)
					break
				}
				g.Refresh()
				time.Sleep(50 * time.Microsecond)
			}
			g.Release()
			if err == nil {
				written += int64(captureEnd - ck.lhs)
			}
		case Snapshot:
			ck.snapshotStart = sh.log.Durable()
			var data []byte
			data, err = sh.log.SnapshotRange(ck.snapshotStart, captureEnd)
			if err == nil {
				err = ck.writeArtifact("snapshot-"+ck.token, data)
				written += int64(len(data))
			}
		}
	}

	// Persist the log's per-page checksum table so recovery can verify the
	// device written it is about to trust (covers every page fully flushed
	// under this Log's watch; see hlog.PageChecksums).
	if err == nil {
		var crcBuf []byte
		crcBuf, err = json.Marshal(sh.log.PageChecksums())
		if err == nil {
			err = ck.writeArtifact("pagecrc-"+ck.token, crcBuf)
			written += int64(len(crcBuf))
		}
	}

	serials := ck.serialsByID()
	if err == nil {
		meta := metadata{
			Token: ck.token, Version: ck.version, Kind: ck.kind.String(),
			Lhs: ck.lhs, Lhe: ck.lhe, Lis: ck.lis, Lie: ck.lie,
			SnapshotStart: ck.snapshotStart,
			HasIndex:      ck.opts.WithIndex, IndexToken: indexToken,
			Serials: serials,
		}
		var buf []byte
		buf, err = json.Marshal(meta)
		if err == nil {
			err = ck.writeArtifact("meta-"+ck.token, buf)
		}
		if err == nil {
			err = ck.writeArtifact("latest", []byte(ck.token))
		}
		if err == nil && ck.opts.WithIndex {
			sh.lastIndexToken, sh.lastLis, sh.lastLie = indexToken, ck.lis, ck.lie
		}
		// Commit attachments (Store.OnCommitArtifact) ride the same
		// durability boundary: written after the checkpoint's own artifacts,
		// and a failure fails the commit. Coordinated commits attach at the
		// store level, after the cross-shard manifest.
		if err == nil && !ck.coordinated && sh.commitAttach != nil {
			err = sh.commitAttach(CommitResult{
				Token: ck.token, Version: ck.version, Kind: ck.kind, Serials: serials,
			})
		}
	}
	if err == nil {
		// This shard's checkpoint — log capture, page CRCs, metadata and
		// latest-pointer — is fully durable.
		sh.flight.Emit(obs.FlightPersistDone, sh.id, uint64(ck.version), ck.token, "", uint64(written), 0)
	} else {
		sh.flight.Emit(obs.FlightCommitFail, sh.id, uint64(ck.version), ck.token, "", 0, 0)
	}

	ck.res = CommitResult{
		Token: ck.token, Version: ck.version, Kind: ck.kind,
		Serials: serials, Bytes: written, Err: err,
	}
	// Advance the session watermarks before the result becomes visible, so
	// whoever sees this commit done (TryResult, Phase() == Rest, done) also
	// sees CommittedSerial/CommittedToken cover it.
	if err == nil && !ck.coordinated && sh.noteCommitted != nil {
		sh.noteCommitted(ck.res)
	}
	// Return to rest at version v+1 and detach the context. The transition is
	// recorded first, for the same reason: whoever sees the commit done finds
	// all five transitions on the timeline.
	ck.emitPhase(WaitFlush, Rest)
	sh.tracer.Phase(ck.traceToken, uint64(ck.version), WaitFlush.String(), Rest.String())
	sh.ckptMu.Lock()
	sh.ckpt = nil
	sh.results.put(ck.res)
	sh.state.Store(packState(Rest, ck.version+1))
	sh.ckptMu.Unlock()
	ck.bumpTraced(Rest)
	if err == nil && !ck.coordinated {
		sh.metrics.commits.Inc()
		sh.metrics.commitBytes.Add(uint64(written))
		sh.metrics.commitNs.Observe(time.Since(ck.started))
		sh.flight.Emit(obs.FlightCommitDone, sh.id, uint64(ck.version), ck.token, "", uint64(written), 0)
	}
	if err != nil && !ck.coordinated {
		sh.metrics.commitFailures.Inc()
	}
	close(ck.done)
	if ck.opts.OnDone != nil {
		ck.opts.OnDone(ck.res)
	}
	if err == nil && !ck.coordinated && sh.onCommit != nil {
		sh.onCommit(ck.res)
	}
}

func (ck *checkpointCtx) writeArtifact(name string, data []byte) error {
	return writeArtifactFlight(ck.store.cfg.Checkpoints, name, data,
		ck.store.flight, ck.store.id, ck.version)
}

// writeArtifact persists one named artifact inside the checksum envelope,
// retrying transient store errors (see storage.WriteArtifactChecked).
func writeArtifact(cs storage.CheckpointStore, name string, data []byte) error {
	return storage.WriteArtifactChecked(cs, name, data)
}

// writeArtifactFlight is writeArtifact plus flight events: one artifact-retry
// per transient failure that gets retried and one artifact-write on success
// (token = artifact name, so filtering by commit token matches every artifact
// of that commit).
func writeArtifactFlight(cs storage.CheckpointStore, name string, data []byte, fr *obs.FlightRecorder, shard int, version uint32) error {
	_, err := writeBuiltFlight(cs, name, len(data), func(dst []byte) []byte { return append(dst, data...) }, fr, shard, version)
	return err
}

// writeBuiltFlight is writeArtifactFlight for a payload build appends (see
// storage.WriteArtifactBuilt); it returns the payload's length.
func writeBuiltFlight(cs storage.CheckpointStore, name string, payloadCap int, build func(dst []byte) []byte, fr *obs.FlightRecorder, shard int, version uint32) (int, error) {
	n, err := storage.WriteArtifactBuilt(cs, name, payloadCap, build, func(attempt int, _ error) {
		fr.Emit(obs.FlightArtifactRetry, shard, uint64(version), name, "", uint64(attempt), 0)
	})
	if err == nil {
		fr.Emit(obs.FlightArtifactWrite, shard, uint64(version), name, "", uint64(n), 0)
	}
	return n, err
}
