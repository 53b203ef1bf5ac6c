package faster

import (
	"errors"
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

// ErrSnapshotCommit is how CommitShipInfo and ApplyCommitted refuse a snapshot
// commit: a replica is only ever at a fold-over commit. A snapshot commit leaves
// its captured region open to in-place updates, so the bytes later flushed there
// and shipped ahead hold values of the next version under records of this one,
// which no install can tell apart. The next fold-over commit subsumes it.
var ErrSnapshotCommit = errors.New("faster: a snapshot commit; a replica installs fold-over commits only")

// foldOver refuses the record of a snapshot commit (ErrSnapshotCommit).
func (rec *commitRecord) foldOver() error {
	if rec.sec().Snapshot != "" {
		return fmt.Errorf("%w: %s", ErrSnapshotCommit, rec.Token)
	}
	return nil
}

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
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latestToken, s.latestToken != ""
}

// LatestCommitVersion returns that commit's version, 0 when there is none.
func (s *Store) LatestCommitVersion() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latestVer
}

// ShipInfo describes what a replica needs to install one completed fold-over
// commit: the artifact names to copy and how much of the log must be on the
// replica's device first.
type ShipInfo struct {
	Token   string
	Version uint32
	// Artifacts are checkpoint-store names: the blobs the commit record names,
	// then the record, last. A blob's contents do not change once written; the
	// record's do — a recovery of the commit, or a Promote at it, drops the
	// checksums of the pages it then writes invalid bits into (persistInvalid).
	// A shipper therefore sends the newest commit's artifacts again on every
	// new connection, after the range RewrittenFrom names, and the replica's copy
	// follows its device.
	Artifacts []string
	// End is the log address the install covers: the replica's device must
	// hold the log up to it, and its log tail is there after installing.
	End uint64
}

// CommitShipInfo assembles the ShipInfo for a completed commit from its
// record. A snapshot commit is ErrSnapshotCommit: a shipper skips it.
func (s *Store) CommitShipInfo(token string) (*ShipInfo, error) {
	rec, err := loadRecord(s.cfg.Checkpoints, token)
	if err == nil {
		err = rec.foldOver()
	}
	if err != nil {
		return nil, fmt.Errorf("faster: ship info: %w", err)
	}
	return &ShipInfo{Token: token, Version: rec.Version, Artifacts: append(rec.blobs(), storage.RecordName(token)),
		End: rec.sec().logEnd()}, nil
}

// RewrittenFrom reports the address from which this store's own recovery (or
// promotion) rewrote log state (invalidating uncommitted records on the
// device). A replica that replicated from the pre-crash instance must
// re-stream from here so its device copy matches post-recovery reality. Zero
// for stores opened fresh (nothing was rewritten).
func (s *Store) RewrittenFrom() uint64 { return s.recoveredScanStart }

// ResyncFrom is RewrittenFrom for i == 0 and the log's tail otherwise, so that
// a sum of Tail() - ResyncFrom(i) over several i counts the one log once.
//
// Deprecated: use RewrittenFrom; it stays only until the benchmark module
// stops naming it.
func (s *Store) ResyncFrom(i int) uint64 {
	if i > 0 {
		return s.log.Tail()
	}
	return s.recoveredScanStart
}

// ApplyCommitted advances a replica store's visible state to the completed
// fold-over commit identified by token. The commit's artifacts must already be
// in the store's checkpoint store and its device must hold the streamed log
// prefix the commit covers (End of the primary's ShipInfo).
// The record came from the peer, so a snapshot commit is refused here too
// (ErrSnapshotCommit).
//
// The caller must serialize ApplyCommitted against ReadCommitted and any
// sessions — the replication applier holds a write lock across installs.
func (s *Store) ApplyCommitted(token string) error {
	if !s.cfg.Replica {
		return ErrNotReplica
	}
	rec, err := loadRecord(s.cfg.Checkpoints, token)
	if err == nil {
		err = rec.foldOver()
	}
	if err != nil {
		return fmt.Errorf("faster: install: %w", err)
	}
	if rec.Version >= s.Version() { // else a stale announcement: already past this commit
		// The replay covers the log past the previous install, and with it the
		// records that install left dead — this commit covers them, or they
		// are still of version v+1 where they stand.
		start := s.log.Tail()
		for addr := range s.replicaDead {
			start = min(start, addr)
		}
		if err := s.install(rec, start, nil, s.markReplicaDead); err != nil {
			return fmt.Errorf("faster: install: %w", err)
		}
		s.machine.Reset(rec.Version + 1)
		s.settled.Store(rec.Version + 1) // no session is older
	}
	s.mu.Lock()
	maps.Copy(s.recoveredSerials, rec.Serials)
	s.latestToken, s.latestVer = token, rec.Version
	s.mu.Unlock()
	storage.ResumeTokens(&s.machine.Seq, token)
	return nil
}

// markReplicaDead is how a replica neutralises the v+1 records a replay
// found: without touching the device — the in-memory invalid bit when the
// record is resident, the dead-address set for ReadCommitted otherwise —
// because they were shipped ahead of their commit and the next install
// revives them simply by reloading the frames from the device and replaying
// over them. dead replaces the set: every replay starts at or below the
// lowest address in it. Nothing is written, so it cannot fail; the error is
// install's neutraliser signature.
func (s *Store) markReplicaDead(dead []uint64) error {
	s.replicaDead = make(map[uint64]bool, len(dead))
	head := s.log.Head()
	for _, addr := range dead {
		s.replicaDead[addr] = true
		if addr >= head {
			s.log.Record(addr).SetInvalid()
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
	dead := make([]uint64, 0, len(s.replicaDead))
	for addr := range s.replicaDead {
		dead = append(dead, addr)
	}
	if err := s.persistInvalid(token, dead); err != nil {
		return fmt.Errorf("faster: promote: %w", err)
	}
	if len(dead) > 0 {
		// Promotion rewrote device state from here on; replicas of this newly
		// promoted primary must re-stream the range (RewrittenFrom).
		s.recoveredScanStart = slices.Min(dead)
	}
	s.replicaDead = nil
	s.cfg.Replica = false
	return nil
}

// ReadCommitted performs a sessionless point read of the store's current
// visible state. On a replica this is the last installed commit — a
// committed CPR prefix of the primary — which is what the replica read path
// serves. The caller must serialize it against ApplyCommitted (the
// replication applier's read lock).
func (s *Store) ReadCommitted(key []byte) ([]byte, bool, error) {
	h := hashfn.Hash64(key)
	g := s.epochs.Acquire()
	defer g.Release()
	_, entry := s.index.probe(h, 0)
	addr, rec, err := s.firstMatch(entry, key, s.replicaDead)
	if addr == 0 || rec.Tombstone() {
		return nil, false, err
	}
	return rec.Value(nil), true, nil
}

// firstMatch walks the chain behind the slot word entry, synchronously, and
// returns the first record matching key and its address, or address 0 when
// none does. A resident record is read in its frame, a cold one with
// ReadRecordSync. Invalid records and the addresses in dead (a replica's
// neutralised records) are skipped; an unwritten header (below a shipped
// prefix) ends the walk.
func (s *Store) firstMatch(entry uint64, key []byte, dead map[uint64]bool) (uint64, hlog.RecordRef, error) {
	begin, head := s.log.Begin(), s.log.Head()
	for addr := entryAddr(entry); addr >= begin && addr >= hlog.FirstAddress; {
		var rec hlog.RecordRef
		if addr >= head {
			rec = s.log.Record(addr)
		} else {
			var err error
			if rec, err = s.log.ReadRecordSync(addr); err != nil {
				return 0, rec, err
			}
		}
		if rec.Header() == 0 {
			break
		}
		if !rec.Invalid() && !dead[addr] && rec.KeyEquals(key) {
			return addr, rec, nil
		}
		addr = rec.Prev()
	}
	return 0, hlog.RecordRef{}, nil
}
