package faster

import (
	"fmt"

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
// server uses this as its manifest-completion hook: when fn fires, every
// artifact of the commit is durable in the checkpoint store.
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

// ShipInfo describes what a replica needs to install one completed commit:
// the artifact names to copy and, per shard, how much of the log must be on
// the replica's device first.
type ShipInfo struct {
	Token   string
	Version uint32
	Kind    CommitKind
	// Artifacts are checkpoint-store names (parent namespace) whose contents
	// are immutable once the commit completed; the manifest is the last.
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

// CommitShipInfo assembles the ShipInfo for a completed commit.
func (s *Store) CommitShipInfo(token string) (*ShipInfo, error) {
	info := &ShipInfo{Token: token}
	for i, sh := range s.shards {
		meta, err := loadMetadata(sh.cfg.Checkpoints, token)
		if err != nil {
			return nil, fmt.Errorf("faster: ship info shard %d: %w", i, err)
		}
		prefix, _, _ := shardNames(len(s.shards), i)
		info.Version = meta.Version
		info.Artifacts = append(info.Artifacts, prefix+"meta-"+token)
		if artifactExists(sh.cfg.Checkpoints, "pagecrc-"+token) {
			// Page checksums ride along so the replica can verify its own
			// artifacts on restart. Absent only for pre-integrity commits.
			info.Artifacts = append(info.Artifacts, prefix+"pagecrc-"+token)
		}
		if meta.IndexToken != "" {
			info.Artifacts = append(info.Artifacts, prefix+"index-"+meta.IndexToken)
		}
		end := meta.Lhe
		if meta.HasIndex && meta.Lie > end {
			end = meta.Lie
		}
		floor := end
		if meta.Kind == Snapshot.String() {
			info.Kind = Snapshot
			info.Artifacts = append(info.Artifacts, prefix+"snapshot-"+token)
			floor = meta.SnapshotStart
		}
		info.ShardEnds = append(info.ShardEnds, end)
		info.ShardFloors = append(info.ShardFloors, floor)
	}
	info.Artifacts = append(info.Artifacts, "cpr-manifest-"+token)
	return info, nil
}

// artifactExists reports whether the named artifact can be opened.
func artifactExists(cs storage.CheckpointStore, name string) bool {
	r, err := cs.Open(name)
	if err != nil {
		return false
	}
	r.Close()
	return true
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
	man, err := loadManifest(s.cfg.Checkpoints, token)
	if err != nil {
		return fmt.Errorf("faster: install: %w", err)
	}
	if man.Shards != s.cfg.Shards {
		return fmt.Errorf("faster: manifest has %d shards, replica has %d", man.Shards, s.cfg.Shards)
	}
	for i, sh := range s.shards {
		meta, err := loadMetadata(sh.cfg.Checkpoints, token)
		if err != nil {
			return fmt.Errorf("faster: install shard %d: %w", i, err)
		}
		if err := sh.applyCommitted(meta); err != nil {
			return fmt.Errorf("faster: install shard %d: %w", i, err)
		}
		s.mu.Lock()
		for id, serial := range meta.Serials {
			if i == 0 {
				s.recoveredSerials[id] = serial
			} else if cur, ok := s.recoveredSerials[id]; !ok || serial < cur {
				// Min-merge across shards (equal for a completed commit).
				s.recoveredSerials[id] = serial
			}
		}
		s.mu.Unlock()
	}
	s.ckptMu.Lock()
	s.latestToken = token
	s.ckptMu.Unlock()
	s.resumeTokensAfter(token)
	return nil
}

// applyCommitted installs one commit on one shard: slot the snapshot capture
// back (if any), extend the log to the commit's end, and replay the fresh
// range — plus any previously skipped future records, now committed — into
// the index.
func (sh *shard) applyCommitted(meta *metadata) error {
	if v := sh.Version(); meta.Version < v {
		return nil // stale announcement (already past this commit)
	}
	end := meta.Lhe
	if meta.HasIndex && meta.Lie > end {
		end = meta.Lie
	}
	if meta.Kind == Snapshot.String() {
		data, err := storage.ReadArtifactChecked(sh.cfg.Checkpoints, "snapshot-"+meta.Token)
		if err != nil {
			return fmt.Errorf("install snapshot: %w", err)
		}
		if err := sh.log.RestoreRange(meta.SnapshotStart, data); err != nil {
			return err
		}
	}
	prevEnd := sh.log.Tail()
	start := prevEnd
	// Records skipped as future at the previous install are committed by this
	// one (or still future at their original address): re-replay from the
	// lowest of them.
	for addr := range sh.replicaDead {
		if addr < start {
			start = addr
		}
	}
	if err := sh.log.RecoverTo(end); err != nil {
		return err
	}
	sh.replicaDead = nil
	if err := sh.replayReplica(start, end, meta.Version); err != nil {
		return err
	}
	sh.clampIndex(end)
	sh.state.Store(packState(Rest, meta.Version+1))
	sh.lastIndexToken, sh.lastLis, sh.lastLie = meta.IndexToken, meta.Lis, meta.Lie
	return nil
}

// replayReplica is the non-destructive variant of replayLog (Alg. 3) used on
// replicas: records of version v+1 — shipped ahead of their commit — are
// neutralized without touching the device (in-memory invalid bit when
// resident, dead-address set otherwise), because the next installed commit
// revives them simply by reloading frames from the device and re-replaying.
func (sh *shard) replayReplica(start, end uint64, v uint32) error {
	var keyBuf []byte
	head := sh.log.Head()
	return sh.log.Scan(start, end, func(addr uint64, rec hlog.RecordRef) bool {
		keyBuf = rec.Key(keyBuf[:0])
		h := hashfn.Hash64(keyBuf)
		slot := sh.index.findOrCreateSlot(h)
		if isFutureVersion(rec.Version(), v) {
			if sh.replicaDead == nil {
				sh.replicaDead = make(map[uint64]bool)
			}
			sh.replicaDead[addr] = true
			if addr >= head {
				// Resident: the in-memory invalid bit hides it from chain
				// walks; the device copy stays pristine for later installs.
				sh.log.Record(addr).SetInvalid()
			}
			if entryAddr(slot.Load()) >= addr {
				prev := rec.Prev()
				if prev >= hlog.FirstAddress {
					slot.Store(tagOf(h) | prev)
				} else {
					slot.Store(0)
				}
			}
			return true
		}
		// Committed records — including ones the primary's own recovery
		// invalidated (the read path skips them but the chain stays walkable)
		// — re-point their slots, exactly as in replayLog.
		slot.Store(tagOf(h) | addr)
		return true
	})
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
	for _, sh := range s.shards {
		var minDead uint64
		for addr := range sh.replicaDead {
			if err := sh.log.PersistInvalid(addr); err != nil {
				return fmt.Errorf("faster: promote shard %d: invalidate %d: %w", sh.id, addr, err)
			}
			if minDead == 0 || addr < minDead {
				minDead = addr
			}
		}
		if minDead != 0 {
			// Promotion rewrote device state from here on; replicas of this
			// newly promoted primary must re-stream the range (ResyncFrom).
			sh.recoveredScanStart = minDead
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
	g := sh.epochs.Acquire()
	defer g.Release()
	slot := sh.index.findSlot(h)
	if slot == nil {
		return nil, false, nil
	}
	begin := sh.log.Begin()
	head := sh.log.Head()
	addr := entryAddr(slot.Load())
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
