package txdb

import (
	"encoding/binary"
	"fmt"
)

// Incremental checkpoints are the orthogonal optimization noted in Sec. 4.1:
// "we may reduce commit size by capturing only records that changed since
// last commit". When Config.Incremental is set, a commit captures only
// records written during the committed version, and its record names the
// previous commit's chain plus this delta; every Config.FullEvery-th commit
// (and the first, and the one after a failed commit) captures the full
// database and starts a new chain, so recovery chains stay short.
//
// Per-record write tracking uses two version fields guarded by the record
// lock: lastWrite is the version of the most recent write to the live value;
// stableWrite is lastWrite captured at the moment of the v→v+1 shift, i.e.
// the version that produced the stable (committed) value.

// capture captures version v of the database: every value in key order, or,
// for a delta, the records written during v as u64 count | count × (u64 key |
// value). A record shifted to v+1 holds v's value, and the version that wrote
// it, in stable; any other in live.
func (ck *commitCtx) capture(delta bool) []byte {
	db := ck.db
	buf := make([]byte, 8, 4096) // the count, then the entries
	if !delta {
		buf = make([]byte, 0, db.cfg.Records*db.cfg.ValueSize)
	}
	count := uint64(0)
	for i := range db.records {
		r := &db.records[i]
		// Brief shared latch: consistent (version, value) observation.
		for !r.tryLock(false) {
		}
		val, wrote := r.live, r.lastWrite
		if r.version == ck.version+1 {
			val, wrote = r.stable, r.stableWrite
		}
		switch {
		case !delta:
			buf = append(buf, val...)
		case wrote >= ck.version:
			buf = append(binary.LittleEndian.AppendUint64(buf, uint64(i)), val...)
			count++
		}
		r.unlock(false)
	}
	if delta {
		binary.LittleEndian.PutUint64(buf, count)
	}
	return buf
}

// applyDelta replays one delta capture onto the database's live values.
func (db *DB) applyDelta(data []byte) error {
	per := db.cfg.ValueSize
	if len(data) < 8 || (len(data)-8)%(8+per) != 0 || binary.LittleEndian.Uint64(data) != uint64((len(data)-8)/(8+per)) {
		return fmt.Errorf("txdb: a delta of %d bytes does not hold the entries it counts", len(data))
	}
	for e := data[8:]; len(e) > 0; e = e[8+per:] {
		key := binary.LittleEndian.Uint64(e)
		if key >= uint64(len(db.records)) {
			return fmt.Errorf("txdb: delta key %d out of range", key)
		}
		copy(db.records[key].live, e[8:8+per])
	}
	return nil
}
