package faster

import (
	"fmt"
	"io"
	"maps"
	"sync"

	"repro/internal/hashfn"
	"repro/internal/hlog"
	"repro/internal/obs"
	"repro/internal/storage"
)

// ErrNoCheckpoint is wrapped by Recover when the checkpoint store holds no
// commit to recover from. Callers that fall back to a fresh store on this
// error (errors.Is) still fail hard on real recovery problems — a corrupt
// store with no surviving commit or a shard-count mismatch must never
// silently discard data.
var ErrNoCheckpoint = storage.ErrNoCheckpoint

// SkippedCommit records one commit that recovery examined and rejected.
type SkippedCommit = storage.SkippedCommit

// RecoveryReport describes what Recover did: which commit it landed on and
// which newer commits it had to skip because an artifact was torn, corrupt,
// or unreadable. A non-empty Skipped list means the newest commit on disk was
// not fully verifiable and the store fell back to an older — still valid —
// CPR prefix.
type RecoveryReport struct {
	Token   string          `json:"token"`
	Version uint32          `json:"version"`
	Skipped []SkippedCommit `json:"skipped,omitempty"`
	// Instant reports that the store came up in instant-restore mode
	// (Config.InstantRestore): serving began before the log suffix was
	// replayed, with buckets warming lazily. See Store.RestoreStatus.
	Instant bool `json:"instant,omitempty"`
}

// Recover rebuilds a Store from its most recent fully-verifiable CPR commit
// (Sec. 6.4). The Config must reference the same Device contents and
// CheckpointStore the failed instance used. The recovered store is
// CPR-consistent: for every session, exactly the operations up to its
// recovered CPR point are present; clients learn those points via
// ContinueSession.
//
// Every artifact read during recovery is verified against its checksum
// envelope, and log pages are verified against the commit's per-page
// checksums. If the newest commit fails verification — a torn record, a
// corrupt snapshot, a damaged log page — recovery falls back to the most
// recent commit that verifies end to end (an older commit is still a valid
// CPR prefix) and notes the skips in the store's RecoveryReport.
//
// A commit is its record (cpr-manifest-<token>), for every shard count: it
// counts only if every shard's capture became durable and the record was
// written before the crash, so shards that finished a newer commit
// individually roll back to the record's version and the recovered prefix —
// the sessions' CPR points, each shard's offsets and page checksums, the
// attachments — comes from one artifact. A candidate is accepted or skipped
// after one record read plus the blobs it names.
func Recover(cfg Config) (*Store, error) {
	s, _, err := RecoverWithReport(cfg)
	return s, err
}

// RecoverWithReport is Recover, also returning the recovery report (which
// commit was chosen and which newer ones were skipped as unverifiable).
func RecoverWithReport(cfg Config) (*Store, *RecoveryReport, error) {
	if err := cfg.fill(); err != nil {
		return nil, nil, err
	}
	s := newStore(cfg)
	s.shards = make([]*shard, cfg.Shards)

	report := &RecoveryReport{}
	skipped, err := storage.RecoverNewest(cfg.Checkpoints, &s.commitSeq, cfg.Flight, func(tok string) error {
		rec, err := loadRecord(cfg.Checkpoints, tok)
		if err != nil {
			return err
		}
		if len(rec.Shards) != cfg.Shards {
			// Configuration error, not corruption: no older record can fix a
			// store opened with the wrong shard count.
			return storage.Refuse(fmt.Errorf("manifest has %d shards, config has %d", len(rec.Shards), cfg.Shards))
		}
		for i := range s.shards {
			sc, err := s.shardConfig(i)
			if err != nil {
				s.closeShards(i)
				return storage.Refuse(err)
			}
			if s.shards[i], err = recoverShard(sc, i, s.metrics, &s.recordMu, rec); err != nil {
				s.closeShards(i)
				clear(s.shards[:i])
				return fmt.Errorf("shard %d: %w", i, err)
			}
		}
		maps.Copy(s.recoveredSerials, rec.Serials)
		report.Token, report.Version = rec.Token, rec.Version
		return nil
	})
	report.Skipped = skipped
	s.metrics.recoverySkips.Add(uint64(len(skipped)))
	if err != nil {
		return nil, nil, fmt.Errorf("faster: %w", err)
	}
	s.finishRecovery(report)
	return s, report, nil
}

// finishRecovery publishes the report and starts what the recovered store runs.
func (s *Store) finishRecovery(report *RecoveryReport) {
	s.latestToken, s.latestVer = report.Token, report.Version
	s.report = report
	s.registerStoreGauges()
	s.registerLagGauges()
	// Instant restore: only now — with every shard of the accepted candidate
	// open for good (rejected candidates' shards were closed) — start each
	// shard's analysis + sweep goroutine.
	for _, sh := range s.shards {
		if rs := sh.restore.Load(); rs != nil {
			report.Instant = true
			rs.start()
		}
	}
	// arg1 = number of skipped newer commits: zero means the newest commit on
	// disk verified end to end.
	s.cfg.Flight.Emit(obs.FlightRecoverVerdict, -1, uint64(report.Version), report.Token, "",
		uint64(len(report.Skipped)), 0)
}

// closeShards closes the shards recovered so far ([0, n)).
func (s *Store) closeShards(n int) {
	for j := 0; j < n; j++ {
		if s.shards[j] != nil {
			s.shards[j].close()
		}
	}
}

// recoverShard rebuilds shard id from its section of the commit record rec,
// verifying every blob it reads and the log pages the section's checksum table
// covers. cfg must be the shard's private configuration, exactly as for
// openShard. Any verification failure returns an error; the caller falls back
// to an older commit.
func recoverShard(cfg Config, id int, metrics storeMetrics, recordMu *sync.Mutex, rec *commitRecord) (*shard, error) {
	sh, err := openShard(cfg, id, metrics, recordMu)
	if err != nil {
		return nil, err
	}
	// Load the most recent fuzzy index checkpoint, or start empty and
	// replay the whole log.
	sec := &rec.Shards[id]
	if sec.Index != "" {
		var idx *index
		if err = storage.ReadArtifactStream(cfg.Checkpoints, sec.Index, func(r io.Reader, n int64) (err error) {
			idx, err = decodeIndex(r, n)
			return err
		}); err == nil {
			sh.index = idx
		}
	}
	if err == nil {
		neutralise := func(dead []uint64) error { return sh.persistInvalid(rec.Token, dead) }
		switch {
		case cfg.Replica:
			// A replica must not rewrite shipped log bytes: records ahead of the
			// recovered commit go live at the next installed one.
			neutralise = sh.markReplicaDead
		case cfg.InstantRestore:
			neutralise = nil
		}
		// Recovery trusts nothing on the device before the commit's page
		// checksums have covered it.
		err = sh.install(rec, sec.scanStart(), sec.PageCRCs, neutralise)
	}
	if err != nil {
		sh.close()
		return nil, err
	}
	if !cfg.Replica {
		sh.recoveredScanStart = sec.scanStart() // the device is rewritten from here on
	}
	return sh, nil
}

// install moves the shard's log and index to the commit rec describes and
// leaves the shard at rest in version v+1 — what a recovery does once and a
// replica at every commit the primary announces. The snapshot capture, if
// the commit has one, slots back into the log's address space (App. D); the
// log reloads up to the commit's end; every page crcs covers is checked on the
// device, so that a damaged one sends the caller to an older commit (nil on a
// replica's install: the log's own table still covers what the replica's last
// restart verified and no shipped bytes have overwritten since); Alg. 3 replays
// [start, end) and neutralise gets the v+1 records it found.
//
// A nil neutralise is instant restore: the replay is left to the restore
// goroutine (finishRecovery starts it; restoreState.run neutralises and clamps
// as here) and the shard serves meanwhile on the recovered index with every
// bucket cold. The reading of the suffix pages goes with the replay, so crcs is
// only seeded and that scan checks each page as it reads it: the startup cost
// stays independent of the log's size, and the price is that a damaged page is
// found when the store is already serving this commit — the restore fails and
// operations return Error.
func (sh *shard) install(rec *commitRecord, start uint64, crcs []hlog.PageCRC, neutralise func(dead []uint64) error) error {
	sec := &rec.Shards[sh.id]
	end := sec.logEnd()
	sh.futureFrom[rec.Version&1].Store(sec.Lhs)
	if sec.Snapshot != "" {
		// One pass verifies the artifact, the next writes it to the device a
		// page at a time: nothing of a capture that does not verify gets there.
		cs := sh.cfg.Checkpoints
		err := storage.ReadArtifactStream(cs, sec.Snapshot, nil)
		if err == nil {
			err = storage.ReadArtifactStream(cs, sec.Snapshot, func(r io.Reader, n int64) error {
				buf := make([]byte, min(sh.log.PageSize(), uint64(n)))
				for at, end := sec.SnapshotStart, sec.SnapshotStart+uint64(n); at < end; at += uint64(len(buf)) {
					buf = buf[:min(uint64(len(buf)), end-at)]
					if _, err := io.ReadFull(r, buf); err != nil {
						return err
					}
					if err := sh.log.RestoreRange(at, buf); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err != nil {
			return fmt.Errorf("faster: snapshot: %w", err)
		}
	}
	if err := sh.log.RecoverTo(end); err != nil {
		return err
	}
	if neutralise == nil {
		sh.log.SeedPageCRCs(crcs, end)
		sh.restore.Store(newRestoreState(sh, rec.Token, rec.Version, start, end))
	} else {
		if err := sh.log.VerifyPages(crcs, end); err != nil {
			return fmt.Errorf("faster: log page verification: %w", err)
		}
		dead, err := sh.replaySuffix(start, end, rec.Version, func(h, addr uint64) bool {
			sh.relink(h, addr)
			return true
		})
		if err == nil {
			err = neutralise(dead)
		}
		if err != nil {
			return err
		}
		// The v+1 unwind conditions are evaluated against the unclamped index.
		sh.clampIndex(end)
	}
	sh.state.Store(packState(Rest, rec.Version+1))
	sh.lastIndex, sh.lastLis, sh.lastLie = sec.Index, sec.Lis, sec.Lie
	return nil
}

// replaySuffix is Alg. 3 (Sec. 6.4), the one copy of it: a single scan of
// [start, end) in log order. A record of version <= v belongs to the commit
// and goes to committed with its key's hash: full recovery and a replica
// install re-point the key's index slot there and then (relink); instant
// restore files the pair under its bucket and relinks when the bucket warms.
// committed returning false stops the scan. A record of version v+1 (isFuture,
// against the log_start install set) is past the CPR point: if the index
// reaches it — the key's slot holds its address or a later one — the slot is
// unwound to the record's predecessor, and its address is returned in dead, in
// log order, for the caller to neutralise (persistInvalid; markReplicaDead on a
// replica).
func (sh *shard) replaySuffix(start, end uint64, v uint32, committed func(h, addr uint64) bool) (dead []uint64, err error) {
	var keyBuf []byte
	err = sh.log.Scan(start, end, func(addr uint64, rec hlog.RecordRef) bool {
		keyBuf = rec.Key(keyBuf[:0])
		h := hashfn.Hash64(keyBuf)
		if !sh.isFuture(rec.Version(), addr, v) {
			return committed(h, addr)
		}
		dead = append(dead, addr)
		if slot := sh.index.findSlot(h); slot != nil && entryAddr(slot.Load()) >= addr {
			if prev := rec.Prev(); prev >= hlog.FirstAddress {
				slot.Store(tagOf(h) | prev)
			} else {
				slot.Store(0)
			}
		}
		return true
	})
	return dead, err
}

// relink points the index slot of the key hashing to h at the committed record
// at addr. It is the one writer of a slot that does not go through
// shardSession.install's compare-and-swap, and needs none: nothing else runs in
// the key's bucket yet — recovery is single-threaded, and operations on a cold
// bucket wait for its warm-up — so there is no observation for a plain store to
// invalidate.
func (sh *shard) relink(h, addr uint64) {
	sh.index.findOrCreateSlot(h).Store(tagOf(h) | addr)
}

// persistInvalid neutralises the v+1 records at dead for good: the invalid
// bit, in memory and on the device, so they stay dead across later evictions
// and recoveries. The bits change pages that the recovered commit's own page
// checksums may cover, so the commit's record is first rewritten without those
// pages — atomically, as every artifact — and only then are the bits written.
// A crash in between leaves pages no checksum covers; the other order would
// leave an acknowledged commit that fails its own verification and sends the
// next recovery back to an older one.
func (sh *shard) persistInvalid(token string, dead []uint64) error {
	if len(dead) == 0 {
		return nil
	}
	touched := make(map[uint64]bool, len(dead))
	for _, addr := range dead {
		touched[addr/sh.log.PageSize()] = true
	}
	if err := sh.amendRecord(token, touched); err != nil {
		return fmt.Errorf("faster: rewrite page checksums of %s: %w", token, err)
	}
	for _, addr := range dead {
		if err := sh.log.PersistInvalid(addr); err != nil {
			return fmt.Errorf("faster: invalidate %d: %w", addr, err)
		}
	}
	return nil
}

// clampIndex clears index entries that reference addresses at or beyond the
// recovered log end (unreachable records lost in the crash).
func (sh *shard) clampIndex(end uint64) {
	sh.index.eachBucket(sh.index.overflowNext.Load(), func(b *bucket) {
		for j := range b.entries {
			if e := b.entries[j].Load(); e != 0 && entryAddr(e) >= end {
				b.entries[j].Store(0)
			}
		}
	})
}
