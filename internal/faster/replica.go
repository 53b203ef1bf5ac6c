package faster

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/hashfn"
	"repro/internal/hlog"
	"repro/internal/storage"
)

// This file is the store-side half of CPR-consistent replication
// (internal/repl): hooks and queries the primary-side shipper needs, and the
// incremental install path a replica uses to advance its visible state from
// one committed CPR prefix to the next.
//
// The invariant throughout: a replica's visible state is always exactly the
// state of one completed commit of the primary. Log bytes stream ahead of
// commits (they are staged, not visible), and records of the in-flight next
// version that ride along in the durable tail are neutralized *non
// destructively* — in memory for resident records, via a dead-address set for
// records below the head — because the very next installed commit makes them
// live. Only Promote, which ends replication, persists their invalidation:
// that is the paper's recovery treatment, applied at the last installed
// commit instead of the last local one.

// ErrNotReplica is returned by replica-only operations on a store that was
// not opened with Config.Replica.
var ErrNotReplica = fmt.Errorf("faster: store is not a replica (Config.Replica unset)")

// Checkpoints exposes the store's checkpoint artifact store (the replication
// shipper reads commit artifacts through it).
func (s *Store) Checkpoints() storage.CheckpointStore { return s.cfg.Checkpoints }

// RecoveredPoint returns the CPR point recovered (or installed, on a replica)
// for session id: the serial up to which that session's operations are
// durable. Zero for unknown sessions.
func (s *Store) RecoveredPoint(id string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recoveredSerials[id]
}

// RecoveredPoints returns a copy of every known session's recovered CPR
// point.
func (s *Store) RecoveredPoints() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.recoveredSerials))
	for id, pt := range s.recoveredSerials {
		out[id] = pt
	}
	return out
}

// OnCommit registers fn to run (from the commit's finishing goroutine) after
// every successfully completed commit, in completion order. The replication
// server uses this as its commit-completion hook: when fn fires, the commit's
// record and every blob it names are durable in the checkpoint store.
func (s *Store) OnCommit(fn func(CommitResult)) {
	s.hookMu.Lock()
	s.commitHooks = append(s.commitHooks, fn)
	s.hookMu.Unlock()
}

// fireCommitHooks invokes the registered commit hooks.
func (s *Store) fireCommitHooks(res CommitResult) {
	s.hookMu.Lock()
	hooks := s.commitHooks
	s.hookMu.Unlock()
	for _, fn := range hooks {
		fn(res)
	}
}

// LatestCommitToken returns the token of the newest commit this store
// completed, recovered from or (on a replica) installed, or ok=false when
// there is none yet.
func (s *Store) LatestCommitToken() (string, bool) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.latestToken, s.latestToken != ""
}

// LatestCommitVersion returns that commit's version, 0 when there is none.
func (s *Store) LatestCommitVersion() uint32 {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.latestVer
}

// ShipInfo describes what a replica needs to install one completed commit:
// the artifact names to copy and, per shard, how much of the log must be on
// the replica's device first.
type ShipInfo struct {
	Token   string
	Version uint32
	Kind    CommitKind
	// Artifacts are checkpoint-store names: the blobs the commit record names,
	// then the record, last. A blob's contents do not change once written; the
	// record's do — a recovery of the commit, or a Promote at it, drops the
	// checksums of the pages it then writes invalid bits into (persistInvalid).
	// A shipper therefore sends the newest commit's artifacts again on every
	// new connection, after the range ResyncFrom names, and the replica's copy
	// follows its device.
	Artifacts []string
	// ShardEnds is, per shard, the log address the install covers (the
	// replica's log tail after installing).
	ShardEnds []uint64
	// ShardFloors is, per shard, the device coverage the replica needs from
	// the log stream before installing: equal to ShardEnds for fold-over
	// commits; the snapshot start for snapshot commits (the rest comes from
	// the snapshot artifact).
	ShardFloors []uint64
}

// CommitShipInfo assembles the ShipInfo for a completed commit from its
// record.
func (s *Store) CommitShipInfo(token string) (*ShipInfo, error) {
	rec, err := loadRecord(s.cfg.Checkpoints, token)
	if err != nil {
		return nil, fmt.Errorf("faster: ship info: %w", err)
	}
	info := &ShipInfo{Token: token, Version: rec.Version, Artifacts: append(rec.blobs(), storage.RecordName(token))}
	for i := range rec.Shards {
		sec := &rec.Shards[i]
		floor := sec.logEnd()
		if sec.Snapshot != "" {
			info.Kind, floor = Snapshot, sec.SnapshotStart
		}
		info.ShardEnds = append(info.ShardEnds, sec.logEnd())
		info.ShardFloors = append(info.ShardFloors, floor)
	}
	return info, nil
}

// ResyncFrom reports, per shard, the address from which this store's own
// recovery rewrote log state (invalidating uncommitted records on the
// device). A replica that replicated from the pre-crash instance must
// re-stream from here so its device copy matches post-recovery reality. Zero
// for stores opened fresh (nothing was rewritten).
func (s *Store) ResyncFrom(i int) uint64 { return s.shards[i].recoveredScanStart }

// ApplyCommitted advances a replica store's visible state to the completed
// commit identified by token. The commit's artifacts must already be in the
// store's checkpoint store and each shard's device must hold the streamed
// log prefix the commit covers (ShardFloors of the primary's ShipInfo).
//
// The caller must serialize ApplyCommitted against ReadCommitted and any
// sessions — the replication applier holds a write lock across installs.
func (s *Store) ApplyCommitted(token string) error {
	if !s.cfg.Replica {
		return ErrNotReplica
	}
	rec, err := loadRecord(s.cfg.Checkpoints, token)
	if err != nil {
		return fmt.Errorf("faster: install: %w", err)
	}
	if len(rec.Shards) != s.cfg.Shards {
		return fmt.Errorf("faster: manifest has %d shards, replica has %d", len(rec.Shards), s.cfg.Shards)
	}
	if rec.Version >= s.Version() { // else a stale announcement: already past this commit
		for i, sh := range s.shards {
			if err := sh.applyCommitted(rec); err != nil {
				return fmt.Errorf("faster: install shard %d: %w", i, err)
			}
		}
		s.state.Store(packState(Rest, rec.Version+1))
	}
	s.mu.Lock()
	maps.Copy(s.recoveredSerials, rec.Serials)
	s.mu.Unlock()
	s.ckptMu.Lock()
	s.latestToken, s.latestVer = token, rec.Version
	s.ckptMu.Unlock()
	storage.ResumeTokens(&s.commitSeq, token)
	return nil
}

// applyCommitted installs one commit on one shard (see shard.install): the
// replay covers the log past the previous install, and with it the records
// that install left dead — this commit covers them, or they are still of
// version v+1 where they stand.
func (sh *shard) applyCommitted(rec *commitRecord) error {
	start := sh.log.Tail()
	for addr := range sh.replicaDead {
		start = min(start, addr)
	}
	return sh.install(rec, start, nil, sh.markReplicaDead)
}

// markReplicaDead is how a replica neutralises the v+1 records a replay
// found: without touching the device — the in-memory invalid bit when the
// record is resident, the dead-address set for ReadCommitted otherwise —
// because they were shipped ahead of their commit and the next install
// revives them simply by reloading the frames from the device and replaying
// over them. dead replaces the set: every replay starts at or below the
// lowest address in it. Nothing is written, so it cannot fail; the error is
// install's neutraliser signature.
func (sh *shard) markReplicaDead(dead []uint64) error {
	sh.replicaDead = make(map[uint64]bool, len(dead))
	head := sh.log.Head()
	for _, addr := range dead {
		sh.replicaDead[addr] = true
		if addr >= head {
			sh.log.Record(addr).SetInvalid()
		}
	}
	return nil
}

// Promote finalizes a replica store for read-write service after failover:
// every record still pending its commit is persistently invalidated — the
// standard recovery treatment (Alg. 3), applied at the last installed
// commit — and the store stops being a replica. Sessions may then be
// continued exactly as after single-node recovery: clients learn their
// installed CPR points and replay from there.
func (s *Store) Promote() error {
	if !s.cfg.Replica {
		return ErrNotReplica
	}
	token, _ := s.LatestCommitToken()
	for _, sh := range s.shards {
		dead := make([]uint64, 0, len(sh.replicaDead))
		for addr := range sh.replicaDead {
			dead = append(dead, addr)
		}
		if err := sh.persistInvalid(token, dead); err != nil {
			return fmt.Errorf("faster: promote shard %d: %w", sh.id, err)
		}
		if len(dead) > 0 {
			// Promotion rewrote device state from here on; replicas of this
			// newly promoted primary must re-stream the range (ResyncFrom).
			sh.recoveredScanStart = slices.Min(dead)
		}
		sh.replicaDead = nil
		sh.cfg.Replica = false
	}
	s.cfg.Replica = false
	return nil
}

// IsReplica reports whether the store is (still) a replica target.
func (s *Store) IsReplica() bool { return s.cfg.Replica }

// ReadCommitted performs a sessionless point read of the store's current
// visible state. On a replica this is the last installed commit — a
// committed CPR prefix of the primary — which is what the replica read path
// serves. The caller must serialize it against ApplyCommitted (the
// replication applier's read lock).
func (s *Store) ReadCommitted(key []byte) ([]byte, bool, error) {
	h := hashfn.Hash64(key)
	sh := s.shards[s.shardOf(h)]
	g := s.epochs.Acquire()
	defer g.Release()
	_, entry := sh.index.probe(h, 0)
	if entry == 0 {
		return nil, false, nil
	}
	begin := sh.log.Begin()
	head := sh.log.Head()
	addr := entryAddr(entry)
	for addr >= begin && addr >= hlog.FirstAddress {
		var rec hlog.RecordRef
		if addr >= head {
			rec = sh.log.Record(addr)
		} else {
			var err error
			rec, err = sh.log.ReadRecordSync(addr)
			if err != nil {
				return nil, false, err
			}
		}
		if rec.Header() == 0 {
			return nil, false, nil // unwritten region (below a shipped prefix)
		}
		if !rec.Invalid() && !sh.replicaDead[addr] && rec.KeyEquals(key) {
			if rec.Tombstone() {
				return nil, false, nil
			}
			return rec.Value(nil), true, nil
		}
		addr = rec.Prev()
	}
	return nil, false, nil
}
