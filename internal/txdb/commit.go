package txdb

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wal"
)

// CommitResult describes a completed database commit.
type CommitResult struct {
	Token   string
	Version uint64
	// Seqs maps each participating worker's CPR point: all transactions
	// with sequence <= Seqs[w] are in the commit, none after.
	Seqs map[*Worker]uint64
	// Bytes is the checkpoint artifact size (deltas are much smaller than
	// full captures under sparse updates; see the ablation experiment).
	Bytes int64
	// Delta reports whether this commit captured a delta artifact.
	Delta bool
	Err   error
}

// commitCtx tracks one in-flight CPR/CALC checkpoint (Alg. 2).
type commitCtx struct {
	db      *DB
	version uint64
	token   string

	// coord collects per-worker acknowledgments (Fig. 4's transitions) and
	// the workers' CPR points.
	coord *core.Coordinator[*Worker]

	flushing atomic.Bool
	started  time.Time

	done chan struct{}
	res  CommitResult

	onDone func(CommitResult)
}

// dbMetadata is the persisted checkpoint descriptor.
type dbMetadata struct {
	Token     string `json:"token"`
	Version   uint64 `json:"version"`
	Records   int    `json:"records"`
	ValueSize int    `json:"value_size"`
	// Delta marks an incremental commit; Prev names the commit it chains to.
	Delta bool   `json:"delta"`
	Prev  string `json:"prev,omitempty"`
}

// ErrCommitInProgress mirrors faster.ErrCommitInProgress for the database.
var ErrCommitInProgress = fmt.Errorf("txdb: a commit is already in progress")

// Commit starts a commit appropriate to the engine: an asynchronous CPR/CALC
// checkpoint (Alg. 2), or a forced WAL group commit (synchronous). onDone,
// if non-nil, fires when the commit is durable.
func (db *DB) Commit(onDone func(CommitResult)) (string, error) {
	if db.cfg.Engine == EngineWAL {
		token := fmt.Sprintf("wal-%06d", db.commitSeq.Add(1))
		t0 := time.Now()
		err := db.wal.Flush()
		if err == nil {
			db.metrics.commits.Inc()
			db.metrics.commitNs.Observe(time.Since(t0))
		}
		res := CommitResult{Token: token, Err: err}
		db.ckptMu.Lock()
		db.results[token] = res
		db.ckptMu.Unlock()
		if onDone != nil {
			onDone(res)
		}
		return token, err
	}

	db.workerMu.Lock()
	db.ckptMu.Lock()
	if db.ckpt != nil {
		db.ckptMu.Unlock()
		db.workerMu.Unlock()
		return "", ErrCommitInProgress
	}
	if p, _ := unpackState(db.state.Load()); p != Rest {
		db.ckptMu.Unlock()
		db.workerMu.Unlock()
		return "", ErrCommitInProgress
	}
	ck := &commitCtx{
		db:      db,
		version: db.Version(),
		token:   fmt.Sprintf("ckpt-%06d", db.commitSeq.Add(1)),
		started: time.Now(),
		done:    make(chan struct{}),
		onDone:  onDone,
	}
	ck.coord = core.NewCoordinator[*Worker](ck.advanceToInProgress, ck.maybeStartWaitFlush)
	for w := range db.workers {
		ck.coord.Add(w)
	}
	db.ckpt = ck
	db.state.Store(packState(Prepare, ck.version))
	db.cfg.Flight.Emit(obs.FlightCommitStart, -1, ck.version, ck.token, "", 0, 0)
	ck.emitPhase(Rest, Prepare)
	ck.bumpEpoch()
	db.ckptMu.Unlock()
	db.workerMu.Unlock()
	ck.coord.Seal()
	return ck.token, nil
}

// TryResult returns a completed commit's result without blocking.
func (db *DB) TryResult(token string) (CommitResult, bool) {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	res, ok := db.results[token]
	return res, ok
}

// WaitForCommit blocks until the commit completes. Other workers must keep
// executing (or refreshing) for the state machine to advance.
func (db *DB) WaitForCommit(token string) CommitResult {
	db.ckptMu.Lock()
	ck := db.ckpt
	if ck == nil || ck.token != token {
		res, ok := db.results[token]
		db.ckptMu.Unlock()
		if ok {
			return res
		}
		return CommitResult{Token: token, Err: fmt.Errorf("txdb: unknown commit %q", token)}
	}
	db.ckptMu.Unlock()
	<-ck.done
	return ck.res
}

func (ck *commitCtx) ackPrepare(w *Worker) {
	ck.db.cfg.Flight.Emit(obs.FlightAckPrepare, -1, ck.version, ck.token,
		fmt.Sprintf("worker-%p", w), w.seq, 0)
	ck.coord.AckPrepare(w)
}

// emitPhase records a phase transition in the flight recorder; arg1/arg2 are
// the raw phase codes (decode with obs.FlightPhaseName).
func (ck *commitCtx) emitPhase(from, to Phase) {
	ck.db.cfg.Flight.Emit(obs.FlightPhase, -1, ck.version, ck.token, "",
		uint64(from), uint64(to))
}

// bumpEpoch bumps the epoch after a publication. Nothing waits on the drain
// (the workers' acknowledgments drive the machine): the action is empty, and
// there so that the epoch manager measures and records how long the
// publication took to reach every registered thread.
func (ck *commitCtx) bumpEpoch() { ck.db.epochs.BumpEpoch(func() {}) }

func (ck *commitCtx) advanceToInProgress() {
	ck.db.state.Store(packState(InProgress, ck.version))
	ck.emitPhase(Prepare, InProgress)
	ck.bumpEpoch()
}

func (ck *commitCtx) ackInProgress(w *Worker, seq uint64) {
	ck.db.cfg.Flight.Emit(obs.FlightDemarcate, -1, ck.version, ck.token,
		fmt.Sprintf("worker-%p", w), seq, 0)
	ck.coord.Demarcate(w, seq)
}

func (ck *commitCtx) maybeStartWaitFlush() {
	if p, _ := unpackState(ck.db.state.Load()); p != InProgress {
		return
	}
	if ck.flushing.Swap(true) {
		return
	}
	ck.db.state.Store(packState(WaitFlush, ck.version))
	ck.emitPhase(InProgress, WaitFlush)
	go ck.waitFlush()
}

func (ck *commitCtx) dropParticipant(w *Worker) {
	sameVersion := w.version == ck.version
	ck.db.cfg.Flight.Emit(obs.FlightDrop, -1, ck.version, ck.token,
		fmt.Sprintf("worker-%p", w), w.seq, 0)
	ck.coord.Drop(w,
		sameVersion && w.phase >= Prepare,
		sameVersion && w.phase >= InProgress,
		w.seq)
}

// waitFlush implements InProgToWaitFlush of Alg. 2: capture version v of the
// database (stable value for shifted records, live otherwise), persist it,
// and return to rest at v+1.
func (ck *commitCtx) waitFlush() {
	db := ck.db
	delta := db.cfg.Incremental && db.lastFullToken != "" &&
		int(ck.version-db.lastFullVersion) < db.cfg.FullEvery
	var buf []byte
	if delta {
		buf = ck.buildDelta()
	} else {
		buf = make([]byte, 0, db.cfg.Records*db.cfg.ValueSize)
		for i := range db.records {
			r := &db.records[i]
			// Brief shared latch: consistent (version, value) observation.
			for !r.tryLock(false) {
			}
			if r.version == ck.version+1 {
				buf = append(buf, r.stable...)
			} else {
				buf = append(buf, r.live...)
			}
			r.unlock(false)
		}
	}
	err := ck.persist(buf, delta)
	if err == nil {
		db.cfg.Flight.Emit(obs.FlightPersistDone, -1, ck.version, ck.token, "",
			uint64(len(buf)), 0)
		if !delta {
			db.lastFullToken, db.lastFullVersion = ck.token, ck.version
		}
	}

	ck.res = CommitResult{Token: ck.token, Version: ck.version, Seqs: ck.coord.Points(),
		Bytes: int64(len(buf)), Delta: delta, Err: err}
	// The transition is recorded first: whoever sees the commit done finds all
	// four transitions on the timeline.
	ck.emitPhase(WaitFlush, Rest)
	db.ckptMu.Lock()
	db.ckpt = nil
	db.results[ck.token] = ck.res
	db.state.Store(packState(Rest, ck.version+1))
	db.ckptMu.Unlock()
	ck.bumpEpoch()
	if err != nil {
		db.cfg.Flight.Emit(obs.FlightCommitFail, -1, ck.version, ck.token, "", 0, 0)
	}
	if err == nil {
		db.cfg.Flight.Emit(obs.FlightCommitDone, -1, ck.version, ck.token, "",
			uint64(len(buf)), 0)
		db.metrics.commits.Inc()
		db.metrics.commitBytes.Add(uint64(len(buf)))
		if delta {
			db.metrics.deltaCommits.Inc()
		}
		db.metrics.commitNs.Observe(time.Since(ck.started))
	}
	close(ck.done)
	if ck.onDone != nil {
		ck.onDone(ck.res)
	}
}

func (ck *commitCtx) persist(values []byte, delta bool) error {
	db := ck.db
	meta := dbMetadata{Token: ck.token, Version: ck.version,
		Records: db.cfg.Records, ValueSize: db.cfg.ValueSize,
		Delta: delta, Prev: db.lastCommitToken}
	mbuf, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	for _, a := range []struct {
		name    string
		payload []byte
	}{{"data-" + ck.token, values}, {"meta-" + ck.token, mbuf}, {"latest", []byte(ck.token)}} {
		if _, err := storage.WriteArtifactStream(db.cfg.Checkpoints, a.name, storage.Payload(a.payload), db.cfg.Flight, -1, ck.version); err != nil {
			return err
		}
	}
	db.lastCommitToken = ck.token
	return nil
}

// Recover loads a database from its most recent checkpoint (Sec. 4.4: no
// UNDO processing needed — captured values are transactionally consistent).
// For EngineWAL it instead replays the durable prefix of the log.
func Recover(cfg Config) (*DB, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if cfg.Engine == EngineWAL {
		return recoverWAL(cfg)
	}
	tok, err := storage.ReadArtifactChecked(cfg.Checkpoints, "latest")
	if err != nil {
		return nil, fmt.Errorf("txdb: no checkpoint to recover from: %w", err)
	}
	mbuf, err := storage.ReadArtifactChecked(cfg.Checkpoints, "meta-"+string(tok))
	if err != nil {
		return nil, err
	}
	var meta dbMetadata
	if err := json.Unmarshal(mbuf, &meta); err != nil {
		return nil, err
	}
	if meta.Records != cfg.Records || meta.ValueSize != cfg.ValueSize {
		return nil, fmt.Errorf("txdb: checkpoint shape %dx%d != config %dx%d",
			meta.Records, meta.ValueSize, cfg.Records, cfg.ValueSize)
	}
	// Walk the delta chain back to the most recent full capture.
	chain := []dbMetadata{meta}
	for chain[len(chain)-1].Delta {
		prevTok := chain[len(chain)-1].Prev
		if prevTok == "" {
			return nil, fmt.Errorf("txdb: delta commit %s has no predecessor", chain[len(chain)-1].Token)
		}
		pbuf, err := storage.ReadArtifactChecked(cfg.Checkpoints, "meta-"+prevTok)
		if err != nil {
			return nil, fmt.Errorf("txdb: delta chain: %w", err)
		}
		var pm dbMetadata
		if err := json.Unmarshal(pbuf, &pm); err != nil {
			return nil, err
		}
		chain = append(chain, pm)
	}
	db, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	// Load the full base, then apply deltas oldest-first.
	base := chain[len(chain)-1]
	data, err := storage.ReadArtifactChecked(cfg.Checkpoints, "data-"+base.Token)
	if err != nil {
		db.Close()
		return nil, err
	}
	per := cfg.ValueSize
	for i := range db.records {
		copy(db.records[i].live, data[i*per:(i+1)*per])
	}
	for i := len(chain) - 2; i >= 0; i-- {
		delta, err := storage.ReadArtifactChecked(cfg.Checkpoints, "data-"+chain[i].Token)
		if err != nil {
			db.Close()
			return nil, err
		}
		if err := db.applyDelta(delta); err != nil {
			db.Close()
			return nil, err
		}
	}
	db.state.Store(packState(Rest, meta.Version+1))
	db.lastCommitToken = meta.Token
	db.lastFullToken, db.lastFullVersion = base.Token, base.Version
	return db, nil
}

// recoverWAL rebuilds the database by redoing the durable log prefix.
func recoverWAL(cfg Config) (*DB, error) {
	db, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	durable := uint64(cfg.WALDevice.Size())
	err = wal.Replay(cfg.WALDevice, durable, func(rec wal.Record) {
		if rec.Key < uint64(cfg.Records) {
			copy(db.records[rec.Key].live, rec.Value)
		}
	})
	if err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// CalcLogLen reports how many entries the CALC commit log has absorbed
// (diagnostics for the bottleneck experiments).
func (db *DB) CalcLogLen() uint64 { return db.calcNext.Load() }
