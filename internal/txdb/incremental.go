package txdb

import (
	"encoding/binary"
	"fmt"
)

// Incremental checkpoints are the orthogonal optimization noted in Sec. 4.1:
// "we may reduce commit size by capturing only records that changed since
// last commit". When Config.Incremental is set, a commit captures only
// records written during the committed version as a delta artifact chained
// to the previous commit; every Config.FullEvery-th commit (and the first)
// captures the full database so recovery chains stay short.
//
// Per-record write tracking uses two version fields guarded by the record
// lock: lastWrite is the version of the most recent write to the live value;
// stableWrite is lastWrite captured at the moment of the v→v+1 shift, i.e.
// the version that produced the stable (committed) value.

// deltaEntry layout in the delta artifact: u64 key | value (ValueSize bytes).

// buildDelta captures records written during version v.
func (ck *commitCtx) buildDelta() []byte {
	db := ck.db
	per := db.cfg.ValueSize
	buf := make([]byte, 8, 4096)
	count := uint64(0)
	var kb [8]byte
	for i := range db.records {
		r := &db.records[i]
		for !r.tryLock(false) {
		}
		include := false
		var src []byte
		if r.version == ck.version+1 {
			// Shifted: the committed value is in stable; it belongs to this
			// delta iff it was written during version v.
			if r.stableWrite >= ck.version {
				include, src = true, r.stable
			}
		} else if r.lastWrite >= ck.version {
			include, src = true, r.live
		}
		if include {
			binary.LittleEndian.PutUint64(kb[:], uint64(i))
			buf = append(buf, kb[:]...)
			buf = append(buf, src[:per]...)
			count++
		}
		r.unlock(false)
	}
	binary.LittleEndian.PutUint64(buf[:8], count)
	return buf
}

// applyDelta replays one delta artifact onto the database's live values.
func (db *DB) applyDelta(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("txdb: truncated delta")
	}
	count := binary.LittleEndian.Uint64(data[:8])
	per := db.cfg.ValueSize
	pos := 8
	for n := uint64(0); n < count; n++ {
		if pos+8+per > len(data) {
			return fmt.Errorf("txdb: truncated delta entry %d", n)
		}
		key := binary.LittleEndian.Uint64(data[pos:])
		pos += 8
		if key >= uint64(db.cfg.Records) {
			return fmt.Errorf("txdb: delta key %d out of range", key)
		}
		copy(db.records[key].live, data[pos:pos+per])
		pos += per
	}
	return nil
}
