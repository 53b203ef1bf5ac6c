package txdb

import (
	"encoding/json"
	"fmt"
	"slices"
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
	// Bytes is the capture's size (deltas are much smaller than full
	// captures under sparse updates; see the ablation experiment).
	Bytes int64
	// Delta reports whether this commit captured a delta.
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

// dbRecord is a CPR/CALC commit's record (storage.RecordName): written after
// the capture it names, so a commit is its capture blob plus this one artifact.
// Captures is the chain recovery loads — the full base first, then the deltas
// in order, the last this commit's own — so no other record is read.
type dbRecord struct {
	Engine    string   `json:"engine"` // "txdb": FASTER refuses it by this
	Token     string   `json:"token"`
	Version   uint64   `json:"version"`
	Records   int      `json:"records"`
	ValueSize int      `json:"value_size"`
	Captures  []string `json:"captures"`
}

const engineName = "txdb"

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
		token:   storage.NextToken(&db.commitSeq),
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
	delta := db.cfg.Incremental && len(db.chain) > 0 && len(db.chain) < db.cfg.FullEvery
	buf := ck.capture(delta)
	err := ck.persist(buf, delta)
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
	} else {
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

// persist writes the commit: its capture, then its record. A failed commit
// leaves its version's writes in no capture, so the next commit is a full one.
func (ck *commitCtx) persist(capture []byte, delta bool) error {
	db, name := ck.db, "data-"+ck.token
	cs, fr := db.cfg.Checkpoints, db.cfg.Flight
	chain := []string{name}
	if delta {
		chain = append(slices.Clip(db.chain), name)
	}
	db.chain = nil
	if _, err := storage.WriteArtifactStream(cs, name, storage.Payload(capture), fr, ck.version); err != nil {
		return err
	}
	fr.Emit(obs.FlightPersistDone, -1, ck.version, ck.token, "", uint64(len(capture)), 0)
	rec := dbRecord{Engine: engineName, Token: ck.token, Version: ck.version,
		Records: db.cfg.Records, ValueSize: db.cfg.ValueSize, Captures: chain}
	if _, err := storage.WriteRecord(cs, ck.token, ck.version, rec, fr); err != nil {
		return err
	}
	db.chain = chain
	return nil
}

// Recover loads a database from its most recent commit that verifies (Sec.
// 4.4: no UNDO processing needed — captured values are transactionally
// consistent), by FASTER's rule (storage.RecoverNewest): records newest first,
// falling back past one whose record or capture does not verify; a record of
// another shape, FASTER's records or an older layout are a hard error. For
// EngineWAL it instead replays the durable prefix of the log.
func Recover(cfg Config) (*DB, error) {
	db, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	if cfg = db.cfg; cfg.Engine == EngineWAL {
		err = wal.Replay(cfg.WALDevice, uint64(cfg.WALDevice.Size()), func(rec wal.Record) {
			if rec.Key < uint64(cfg.Records) {
				copy(db.records[rec.Key].live, rec.Value)
			}
		})
	} else {
		_, err = storage.RecoverNewest(cfg.Checkpoints, &db.commitSeq, cfg.Flight, db.recoverCommit)
	}
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("txdb: %w", err)
	}
	return db, nil
}

// recoverCommit loads commit token: its record, then the capture chain the
// record names into the live values, the full base first, then each delta in
// order. A chain that fails part-way leaves values that the next candidate's
// full base overwrites whole.
func (db *DB) recoverCommit(token string) error {
	var rec dbRecord
	buf, err := storage.ReadRecord(db.cfg.Checkpoints, token)
	if err == nil {
		err = json.Unmarshal(buf, &rec)
	}
	per := db.cfg.ValueSize
	switch {
	case err != nil:
		return err
	case rec.Engine != engineName:
		return fmt.Errorf("commit record %s: checkpoint store holds FASTER commit records, not txdb's; %w", token, storage.ErrForeignLayout)
	case rec.Records != len(db.records) || rec.ValueSize != per:
		return storage.Refuse(fmt.Errorf("checkpoint shape %dx%d != config %dx%d", rec.Records, rec.ValueSize, len(db.records), per))
	case rec.Token != token || len(rec.Captures) == 0:
		return fmt.Errorf("commit record %s: token %q, %d captures", token, rec.Token, len(rec.Captures))
	}
	for i, name := range rec.Captures {
		data, err := storage.ReadArtifactChecked(db.cfg.Checkpoints, name)
		switch {
		case err != nil:
		case i > 0:
			err = db.applyDelta(data)
		case len(data) != len(db.records)*per:
			err = fmt.Errorf("full capture %s is %d bytes, want %d", name, len(data), len(db.records)*per)
		default:
			for k := range db.records {
				copy(db.records[k].live, data[k*per:(k+1)*per])
			}
		}
		if err != nil {
			return err
		}
	}
	db.state.Store(packState(Rest, rec.Version+1))
	db.chain = rec.Captures
	return nil
}

// CalcLogLen reports how many entries the CALC commit log has absorbed
// (diagnostics for the bottleneck experiments).
func (db *DB) CalcLogLen() uint64 { return db.calcNext.Load() }
