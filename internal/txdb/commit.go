package txdb

import (
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
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

// commit is the database's running CPR/CALC checkpoint (Alg. 2).
type commit = core.Commit[*Worker, CommitResult]

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

// ErrCommitInProgress is returned when Commit is called while another commit
// has not yet completed.
var ErrCommitInProgress = core.ErrCommitInProgress

// Commit starts a commit appropriate to the engine: an asynchronous CPR/CALC
// checkpoint (Alg. 2), or a forced WAL group commit (synchronous). onDone,
// if non-nil, fires when the commit is durable.
func (db *DB) Commit(onDone func(CommitResult)) (string, error) {
	if db.cfg.Engine != EngineWAL {
		return db.machine.Begin(onDone, nil)
	}
	// The token is the log's durable end, the prefix the commit covers. A
	// recovered log appends after its last whole transaction, so a token
	// repeats, in one life or across lives, only for the same prefix.
	lsn, err := db.wal.Flush()
	token := fmt.Sprintf("wal-%012d", lsn)
	res := CommitResult{Token: token, Err: err}
	db.machine.Record(token, res)
	if onDone != nil {
		onDone(res)
	}
	return token, err
}

// TryResult returns a completed commit's result without blocking.
func (db *DB) TryResult(token string) (CommitResult, bool) { return db.machine.TryResult(token) }

// WaitForCommit blocks until the commit completes. Other workers must keep
// executing (or refreshing) for the state machine to advance.
func (db *DB) WaitForCommit(token string) CommitResult {
	if res, ok := db.machine.WaitForCommit(token); ok {
		return res
	}
	return CommitResult{Token: token, Err: fmt.Errorf("txdb: unknown commit %q", token)}
}

// flush implements InProgToWaitFlush of Alg. 2: capture version v of the
// database (stable value for shifted records, live otherwise), persist it,
// and return to rest at v+1.
func (db *DB) flush(c *commit) {
	delta := db.cfg.Incremental && len(db.chain) > 0 && len(db.chain) < db.cfg.FullEvery
	buf := db.capture(uint64(c.Version), delta)
	err := db.persist(c, buf, delta)
	db.machine.Rest(c, nil)
	db.machine.Done(c, CommitResult{Token: c.Token, Version: uint64(c.Version), Seqs: c.Points(),
		Bytes: int64(len(buf)), Delta: delta, Err: err}, err, uint64(len(buf)))
}

// persist writes the commit: its capture, then its record. A failed commit
// leaves its version's writes in no capture, so the next commit is a full one.
func (db *DB) persist(c *commit, capture []byte, delta bool) error {
	name, v := "data-"+c.Token, uint64(c.Version)
	cs, fr := db.cfg.Checkpoints, db.cfg.Flight
	chain := []string{name}
	if delta {
		chain = append(slices.Clip(db.chain), name)
	}
	db.chain = nil
	if _, err := storage.WriteArtifactStream(cs, name, storage.Payload(capture), fr, v); err != nil {
		return err
	}
	fr.Emit(obs.FlightPersistDone, -1, v, c.Token, "", uint64(len(capture)), 0)
	rec := dbRecord{Engine: engineName, Token: c.Token, Version: v,
		Records: db.cfg.Records, ValueSize: db.cfg.ValueSize, Captures: chain}
	if _, err := storage.WriteRecord(cs, c.Token, v, rec, fr); err != nil {
		return err
	}
	db.chain = chain
	return nil
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
	db.machine.Reset(uint32(rec.Version + 1))
	db.chain = rec.Captures
	return nil
}
