package faster

import (
	"fmt"

	"repro/internal/hashfn"
	"repro/internal/hlog"
)

// CompactLog reclaims the log prefix [Begin, until): every record in it that
// is still live — reachable as the first match for its key from the hash
// index — is copied to the tail, then the begin address advances so chain
// walks treat the prefix as gone. This is the log-trimming role of FASTER's
// garbage collection referenced in the paper's setup (Sec. 7.1); dead
// versions, overwritten values and tombstoned keys are dropped.
//
// Compaction runs concurrently with normal operations but not with a CPR
// commit: it must be called in the rest phase and fails with
// ErrCommitInProgress otherwise (copied records would straddle the version
// shift). until is clamped to the safe-read-only offset — only the immutable
// region compacts.
// CompactLog runs on a session so the compaction work shares the session's
// epoch entry: the scan refreshes it continuously, keeping global progress
// (offset shifts, flushes) alive even when this is the only session.
func (sess *Session) CompactLog(until uint64) error {
	phase, version := sess.store.machine.State()
	if phase != Rest {
		return ErrCommitInProgress
	}
	s := sess.store
	if sro := s.log.SafeReadOnly(); until > sro {
		until = sro
	}
	begin := s.log.Begin()
	if until <= begin {
		return nil
	}

	// Begin moves to a word of padding or the end of the last record scanned,
	// never inside a record.
	var keyBuf, valBuf []byte
	count, end := 0, until&^7
	err := s.log.Scan(begin, until, func(addr uint64, rec hlog.RecordRef) bool {
		end = max(end, addr+uint64(rec.Size()))
		if count++; count%64 == 0 {
			sess.guard.Refresh()
		}
		if rec.Invalid() {
			return true
		}
		keyBuf = rec.Key(keyBuf[:0])
		h := hashfn.Hash64(keyBuf)
		// One observation of the slot decides liveness and is what the slot
		// must still hold when the result is published; a retry observes
		// afresh.
		for slot, entry := s.index.probe(h, 0); entry != 0; slot, entry = s.index.probe(h, 0) {
			if liveAddr, _, err := s.firstMatch(entry, keyBuf, nil); err != nil || liveAddr != addr {
				return true // a newer version supersedes this record
			}
			if rec.Tombstone() {
				// A live tombstone: if it is the chain head, the key can be
				// dropped from the index entirely (whatever shared its chain
				// lies below it and has been scanned); otherwise leave it, the
				// walk ends at begin afterwards. A head installed meanwhile
				// keeps the slot.
				if entryAddr(entry) == addr {
					slot.CompareAndSwap(entry, 0)
				}
				return true
			}
			// Copy the live record to the tail, linked ahead of the chain. A
			// concurrent update that moved the chain head fails the install;
			// re-check liveness (the update may have superseded this record).
			valBuf = rec.Value(valBuf[:0])
			op := pendingOp{kind: opUpsert, key: keyBuf, input: valBuf, hash: h, version: version}
			if sess.install(&op, &findResult{slot: slot, entry: entry}) == Ok {
				return true
			}
		}
		return true // key no longer indexed
	})
	if err != nil {
		return fmt.Errorf("faster: compact scan: %w", err)
	}
	s.log.ShiftBegin(end)
	return nil
}
