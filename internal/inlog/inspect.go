package inlog

import (
	"errors"
	"fmt"

	"repro/internal/storage"
)

// SegmentReport is the offline verification result for one segment.
type SegmentReport struct {
	Base       uint64 `json:"base"`
	End        uint64 `json:"end"` // one past the last valid record
	Records    int    `json:"records"`
	Groups     int    `json:"groups"`      // group frames holding the records
	Bytes      int64  `json:"bytes"`       // device extent
	ValidBytes int64  `json:"valid_bytes"` // bytes covered by valid groups
	Torn       bool   `json:"torn"`        // trailing bytes failed to parse
	OldFormat  bool   `json:"old_format"`  // holds per-record ILR1 frames, which Open refuses
}

// InspectReport is the result of a full offline scan (fasterctl inlog).
type InspectReport struct {
	Segments []SegmentReport `json:"segments"`
	Start    uint64          `json:"start"` // oldest retained offset
	End      uint64          `json:"end"`   // one past the newest valid record
	// Corrupt flags damage that cannot be a torn tail: an invalid frame
	// that is *followed* by more data (a later segment, or a continuity
	// break between segments), or a segment in the old record format. A torn
	// final group in the final segment is normal crash residue, not
	// corruption.
	Corrupt bool     `json:"corrupt"`
	Errors  []string `json:"errors,omitempty"`
}

// Inspect scans every segment read-only — no truncation, no segment
// creation, no removal — validating each group's CRC and offset chain.
// Use it for offline verification of a log directory.
func Inspect(store SegmentStore) (InspectReport, error) {
	var rep InspectReport
	bases, err := store.List()
	if err != nil {
		return rep, fmt.Errorf("inlog: list segments: %w", err)
	}
	expectBase := uint64(0)
	for i, base := range bases {
		if i == 0 {
			rep.Start = base
		} else if base != expectBase {
			rep.Corrupt = true
			rep.Errors = append(rep.Errors, fmt.Sprintf(
				"segment %d does not continue previous segment (expected base %d)", base, expectBase))
		}
		sr, scanErrs := inspectSegment(store, base)
		rep.Segments = append(rep.Segments, sr)
		rep.Errors = append(rep.Errors, scanErrs...)
		if len(scanErrs) > 0 || (sr.Torn && i != len(bases)-1) {
			// Damage mid-log: a torn tail is only legitimate on the final
			// segment.
			rep.Corrupt = true
		}
		expectBase = sr.End
		rep.End = sr.End
	}
	return rep, nil
}

func inspectSegment(store SegmentStore, base uint64) (SegmentReport, []string) {
	sr := SegmentReport{Base: base, End: base}
	dev, err := store.Open(base)
	if err != nil {
		return sr, []string{fmt.Sprintf("segment %d: open: %v", base, err)}
	}
	defer dev.Close()
	sr.Bytes = dev.Size()
	if sr.Bytes == 0 {
		return sr, nil
	}
	buf := make([]byte, sr.Bytes)
	if _, err := dev.ReadAt(buf, 0); err != nil {
		return sr, []string{fmt.Sprintf("segment %d: read: %v", base, err)}
	}
	index, end, valid, err := scanFrames(buf, base)
	sr.Groups, sr.End, sr.ValidBytes = len(index), end, valid
	sr.Records = int(end - base)
	if errors.Is(err, ErrOldFormat) {
		sr.OldFormat = true
		return sr, []string{fmt.Sprintf("segment %d, byte %d: %v", base, valid, err)}
	}
	sr.Torn = err != nil
	return sr, nil
}

// verify that FileDevice-backed stores satisfy the interface at compile time.
var (
	_ SegmentStore   = (*MemSegmentStore)(nil)
	_ SegmentStore   = (*DirSegmentStore)(nil)
	_ storage.Device = (*storage.SyncBufferDevice)(nil)
)
