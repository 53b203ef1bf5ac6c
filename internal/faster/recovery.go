package faster

import (
	"fmt"
	"io"
	"maps"

	"repro/internal/hashfn"
	"repro/internal/hlog"
	"repro/internal/obs"
	"repro/internal/storage"
)

// ErrNoCheckpoint is wrapped by Recover when the checkpoint store holds no
// commit to recover from. Callers that fall back to a fresh store on this
// error (errors.Is) still fail hard on real recovery problems — a corrupt
// store with no surviving commit or a layout it cannot read must never
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
// A commit is its record (cpr-manifest-<token>): it counts only if its capture
// became durable and the record was written before the crash, and the
// recovered prefix — the sessions' CPR points, the log's offsets and page
// checksums, the attachments — comes from that one artifact. A candidate is
// accepted or skipped after one record read plus the blobs it names.
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

	report := &RecoveryReport{}
	skipped, err := storage.RecoverNewest(cfg.Checkpoints, &s.machine.Seq, cfg.Flight, func(tok string) error {
		rec, err := loadRecord(cfg.Checkpoints, tok)
		if err != nil {
			return err
		}
		if err := s.openData(); err != nil {
			return storage.Refuse(err)
		}
		if err := s.recoverFrom(rec); err != nil {
			s.log.Close()
			return err
		}
		maps.Copy(s.recoveredSerials, rec.Serials)
		s.machine.Reset(rec.Version + 1)
		s.settled.Store(rec.Version + 1) // no session is older
		report.Token, report.Version = rec.Token, rec.Version
		return nil
	})
	report.Skipped = skipped
	if err != nil {
		return nil, nil, fmt.Errorf("faster: %w", err)
	}
	s.finishRecovery(report)
	return s, report, nil
}

// finishRecovery publishes the report and the recovered store's gauges.
func (s *Store) finishRecovery(report *RecoveryReport) {
	s.latestToken, s.latestVer = report.Token, report.Version
	s.report = report
	s.registerStoreGauges()
	s.registerLagGauges()
	// arg1 = number of skipped newer commits: zero means the newest commit on
	// disk verified end to end.
	s.cfg.Flight.Emit(obs.FlightRecoverVerdict, -1, uint64(report.Version), report.Token, "",
		uint64(len(report.Skipped)), 0)
}

// recoverFrom rebuilds the freshly opened index and log from the commit record
// rec, verifying every blob it reads and the log pages the record's checksum
// table covers. Any verification failure returns an error; the caller falls
// back to an older commit.
func (s *Store) recoverFrom(rec *commitRecord) error {
	// Load the most recent fuzzy index checkpoint, or start empty and
	// replay the whole log.
	sec := rec.sec()
	if sec.Index != "" {
		if err := storage.ReadArtifactStream(s.cfg.Checkpoints, sec.Index, func(r io.Reader, n int64) (err error) {
			s.index, err = decodeIndex(r, n)
			return err
		}); err != nil {
			return err
		}
	}
	neutralise := func(dead []uint64) error { return s.persistInvalid(rec.Token, dead) }
	if s.cfg.Replica {
		// A replica must not rewrite shipped log bytes: records ahead of the
		// recovered commit go live at the next installed one.
		neutralise = s.markReplicaDead
	}
	// Recovery trusts nothing on the device before the commit's page
	// checksums have covered it.
	if err := s.install(rec, sec.scanStart(), sec.PageCRCs, neutralise); err != nil {
		return err
	}
	if !s.cfg.Replica {
		s.recoveredScanStart = sec.scanStart() // the device is rewritten from here on
	}
	return nil
}

// install moves the log and index to the commit rec describes — what a
// recovery does once and a replica at every commit the primary announces; the
// caller then puts the store at rest in version v+1. The snapshot capture, if
// the commit has one, slots back into the log's address space (App. D); the
// log reloads up to the commit's end; every page crcs covers is checked on the
// device, so that a damaged one sends the caller to an older commit (nil on a
// replica's install: the log's own table still covers what the replica's last
// restart verified and no shipped bytes have overwritten since); Alg. 3 replays
// [start, end) and neutralise gets the v+1 records it found.
func (s *Store) install(rec *commitRecord, start uint64, crcs []hlog.PageCRC, neutralise func(dead []uint64) error) error {
	sec := rec.sec()
	end := sec.logEnd()
	s.futureFrom[rec.Version&1].Store(sec.Lhs)
	if sec.Snapshot != "" {
		// One pass verifies the artifact, the next writes it to the device a
		// page at a time: nothing of a capture that does not verify gets there.
		cs := s.cfg.Checkpoints
		err := storage.ReadArtifactStream(cs, sec.Snapshot, nil)
		if err == nil {
			err = storage.ReadArtifactStream(cs, sec.Snapshot, func(r io.Reader, n int64) error {
				buf := make([]byte, min(s.log.PageSize(), uint64(n)))
				for at, end := sec.SnapshotStart, sec.SnapshotStart+uint64(n); at < end; at += uint64(len(buf)) {
					buf = buf[:min(uint64(len(buf)), end-at)]
					if _, err := io.ReadFull(r, buf); err != nil {
						return err
					}
					if err := s.log.RestoreRange(at, buf); err != nil {
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
	if err := s.log.RecoverTo(end); err != nil {
		return err
	}
	if err := s.log.VerifyPages(crcs, end); err != nil {
		return fmt.Errorf("faster: log page verification: %w", err)
	}
	dead, err := s.replaySuffix(start, end, rec.Version)
	if err == nil {
		err = neutralise(dead)
	}
	if err != nil {
		return err
	}
	// The v+1 unwind conditions are evaluated against the unclamped index.
	s.clampIndex(end)
	s.lastIndex, s.lastLis, s.lastLie = sec.Index, sec.Lis, sec.Lie
	return nil
}

// replaySuffix is Alg. 3 (Sec. 6.4), the one copy of it: a single scan of
// [start, end) in log order. A valid record of version <= v belongs to the
// commit: the key's index slot is re-pointed there (relink). A record of
// version v+1 (isFuture, against the log_start install set) is past the CPR
// point: if the index reaches it — the key's slot holds its address or a later
// one — the slot is unwound to the record's predecessor, and its address is
// returned in dead, in log order, for the caller to neutralise
// (persistInvalid; markReplicaDead on a replica).
func (s *Store) replaySuffix(start, end uint64, v uint32) (dead []uint64, err error) {
	var keyBuf []byte
	err = s.log.Scan(start, end, func(addr uint64, rec hlog.RecordRef) bool {
		keyBuf = rec.Key(keyBuf[:0])
		h := hashfn.Hash64(keyBuf)
		if !s.isFuture(rec.Version(), addr, v) {
			// An invalid record lost its install's CAS or is neutralised.
			if !rec.Invalid() {
				s.relink(h, addr)
			}
			return true
		}
		dead = append(dead, addr)
		if slot, entry := s.index.probe(h, 0); entryAddr(entry) >= addr {
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
// Session.install's compare-and-swap, and needs none: nothing else runs in
// the index yet — recovery is single-threaded and serves no op before it
// returns, and a replica's applier holds off its readers while it installs —
// so there is no observation for a plain store to invalidate.
func (s *Store) relink(h, addr uint64) {
	entry := tagOf(h) | addr
	if slot, e := s.index.probe(h, entry); e != entry {
		slot.Store(entry)
	}
}

// persistInvalid neutralises the v+1 records at dead for good: the invalid
// bit, in memory and on the device, so they stay dead across later evictions
// and recoveries. The bits change pages that the recovered commit's own page
// checksums may cover, so the commit's record is first rewritten without those
// pages — atomically, as every artifact — and only then are the bits written.
// A crash in between leaves pages no checksum covers; the other order would
// leave an acknowledged commit that fails its own verification and sends the
// next recovery back to an older one.
func (s *Store) persistInvalid(token string, dead []uint64) error {
	if len(dead) == 0 {
		return nil
	}
	touched := make(map[uint64]bool, len(dead))
	for _, addr := range dead {
		touched[addr/s.log.PageSize()] = true
	}
	if err := s.amendRecord(token, touched); err != nil {
		return fmt.Errorf("faster: rewrite page checksums of %s: %w", token, err)
	}
	for _, addr := range dead {
		if err := s.log.PersistInvalid(addr); err != nil {
			return fmt.Errorf("faster: invalidate %d: %w", addr, err)
		}
	}
	return nil
}

// clampIndex clears index entries that reference addresses at or beyond the
// recovered log end (unreachable records lost in the crash).
func (s *Store) clampIndex(end uint64) {
	s.index.eachBucket(s.index.overflowNext.Load(), func(b *bucket) {
		for j := range b.entries {
			if e := b.entries[j].Load(); e != 0 && entryAddr(e) >= end {
				b.entries[j].Store(0)
			}
		}
	})
}
