package inlog

import (
	"encoding/json"
	"fmt"

	"repro/internal/faster"
	"repro/internal/storage"
)

// Watermark is the pump's section of a commit record: for CPR commit Token,
// the pump session's committed serial and the corresponding log offset —
// every record with offset < Offset is inside the committed prefix. It is
// written with the commit itself (faster.Store.OnCommitArtifact), so a commit
// taken with the pump registered never exists without it.
//
// A watermark is also a serial<->offset *anchor*: the pump applies exactly
// one record per serial, so serial - offset is constant for the life of the
// pump session and any watermark (however old) converts a recovered CPR
// point to its exact replay offset by linear arithmetic.
type Watermark struct {
	Token   string `json:"token"`
	Session string `json:"session"`
	Serial  uint64 `json:"serial"`
	Offset  uint64 `json:"offset"`
}

// watermarkSection is the attachment name the pump's watermark has in a
// commit record.
const watermarkSection = "inlog"

// OffsetForSerial converts a session serial to its log offset using this
// watermark as the anchor (signed-safe in both directions).
func (w Watermark) OffsetForSerial(serial uint64) uint64 {
	return uint64(int64(w.Offset) + (int64(serial) - int64(w.Serial)))
}

// LoadWatermark reads the watermark of one commit. ok is false when the
// commit was taken without the pump registered.
func LoadWatermark(cs storage.CheckpointStore, token string) (w Watermark, ok bool, err error) {
	buf, ok, err := faster.Attachment(cs, token, watermarkSection)
	if err == nil && ok {
		err = json.Unmarshal(buf, &w)
	}
	if err != nil {
		return Watermark{}, false, fmt.Errorf("inlog: watermark of %s: %w", token, err)
	}
	return w, ok, nil
}

// LatestWatermark returns the watermark of the newest commit record that has
// one — the pump's anchor — or ok=false when no commit has covered the pump.
func LatestWatermark(cs storage.CheckpointStore) (Watermark, bool, error) {
	ws, err := Watermarks(cs, 1)
	if len(ws) == 0 {
		return Watermark{}, false, err
	}
	return ws[0], true, nil
}

// Watermarks walks the commit records newest first and collects the
// watermarks of those that read and have one, up to limit (0: all).
func Watermarks(cs storage.CheckpointStore, limit int) ([]Watermark, error) {
	names, err := cs.List()
	if err != nil {
		return nil, fmt.Errorf("inlog: list commits: %w", err)
	}
	tokens, err := storage.RecordTokens(names)
	if err != nil {
		return nil, fmt.Errorf("inlog: list commits: %w", err)
	}
	var out []Watermark
	for _, tok := range tokens {
		if w, ok, err := LoadWatermark(cs, tok); err == nil && ok {
			if out = append(out, w); len(out) == limit {
				break
			}
		}
	}
	return out, nil
}
