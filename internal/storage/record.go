package storage

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
)

// A commit is its record, cpr-manifest-<token>, written after every blob it
// names: a crash or failure before it leaves the previous record the newest
// commit, whatever blobs of this one reached the store. FASTER and txdb both
// commit this way and share what is here — the record's name, the token format
// and order, the token-resume rule, and the record's write and verified read.
// What a record says is each engine's own.

const (
	recordPrefix = "cpr-manifest-"
	tokenPrefix  = "ckpt-"
)

// ErrForeignLayout marks a store that recovery must neither read nor start
// fresh over, nor fall back past: an older layout, or the other engine's.
var ErrForeignLayout = errors.New("this engine and version cannot read it")

// ErrNoCheckpoint is wrapped by RecoverNewest when the store holds no commit
// record: the one recovery error on which a caller may start a fresh store.
var ErrNoCheckpoint = errors.New("no checkpoint to recover from")

// RecordName is the artifact name of commit token's record.
func RecordName(token string) string { return recordPrefix + token }

// NextToken takes the next commit token from the counter seq.
func NextToken(seq *atomic.Uint64) string { return fmt.Sprintf("%s%06d", tokenPrefix, seq.Add(1)) }

// ResumeTokens moves the counter seq past every token the names carry,
// anywhere in the name (skipped commits and the blobs of a commit that crashed
// before its record included), so that a recovered store never hands out a
// token the store already holds.
func ResumeTokens(seq *atomic.Uint64, names ...string) {
	for _, n := range names {
		if i := strings.LastIndex(n, tokenPrefix); i >= 0 {
			if s, ok := tokenSeq(n[i:]); ok && s > seq.Load() {
				seq.Store(s)
			}
		}
	}
}

func tokenSeq(token string) (uint64, bool) {
	var seq uint64
	_, err := fmt.Sscanf(token, tokenPrefix+"%d", &seq)
	return seq, err == nil
}

// RecordTokens returns the tokens of the records among the artifact names,
// newest first by sequence number (foreign tokens last): the order recovery
// tries them in. A "latest" pointer and no record is the layout from before
// the record, whose commits are real: ErrForeignLayout, not an empty list.
func RecordTokens(names []string) ([]string, error) {
	var tokens []string
	for _, n := range names {
		if tok, ok := strings.CutPrefix(n, recordPrefix); ok {
			tokens = append(tokens, tok)
		}
	}
	if len(tokens) == 0 && slices.Contains(names, "latest") {
		return nil, fmt.Errorf(`storage: checkpoint store has the pre-manifest layout (a "latest" pointer and no %s<token>: a FASTER single-shard store's, or txdb's latest + meta-<token> + data-<token>); %w`, recordPrefix, ErrForeignLayout)
	}
	slices.SortFunc(tokens, func(a, b string) int {
		sa, _ := tokenSeq(a)
		sb, _ := tokenSeq(b)
		return cmp.Or(cmp.Compare(sb, sa), cmp.Compare(b, a))
	})
	return tokens, nil
}

// SkippedCommit is a commit RecoverNewest passed over, and why.
type SkippedCommit struct {
	Token  string `json:"token"`
	Reason string `json:"reason"`
}

// refused is an error that ends RecoverNewest's walk (Refuse).
type refused struct{ error }

func (r refused) Unwrap() error { return r.error }

// Refuse marks err, returned by a RecoverNewest candidate, as one no older
// commit can fix — the store opened with a configuration it was not written
// with — so that the walk ends with it.
func Refuse(err error) error { return refused{err} }

// RecoverNewest is the one rule FASTER and txdb recover by: it tries the
// commit records in cs newest first until try accepts one (returns nil). A
// candidate that does not verify is skipped — skipped gets it, fr a
// recover-fallback event — for the next older one. ErrForeignLayout, a Refuse
// or a store without records (ErrNoCheckpoint) ends the walk with that error:
// only an empty store lets the caller start fresh; when every candidate is
// skipped, the error wraps the newest one's. Once a candidate is accepted, seq
// moves past every token in the store (ResumeTokens).
func RecoverNewest(cs CheckpointStore, seq *atomic.Uint64, fr *obs.FlightRecorder, try func(token string) error) (skipped []SkippedCommit, err error) {
	names, err := cs.List()
	if err != nil {
		return nil, err
	}
	tokens, err := RecordTokens(names)
	if err == nil && len(tokens) == 0 {
		err = fmt.Errorf("%w: no commit record found", ErrNoCheckpoint)
	}
	var newest error
	for _, tok := range tokens {
		if err = try(tok); err == nil {
			ResumeTokens(seq, names...)
			return skipped, nil
		}
		if errors.Is(err, ErrForeignLayout) || errors.As(err, new(refused)) {
			return skipped, err
		}
		newest = cmp.Or(newest, err)
		skipped = append(skipped, SkippedCommit{Token: tok, Reason: err.Error()})
		fr.Emit(obs.FlightRecoverFallback, -1, 0, tok, "", 0, 0)
	}
	if len(skipped) > 0 {
		err = fmt.Errorf("no verifiable commit among %d candidate(s); newest (%s): %w", len(tokens), skipped[0].Token, newest)
	}
	return skipped, err
}

// WriteRecord persists rec's JSON in the envelope as commit token's record and
// returns the payload's length. The caller writes it after the blobs it names.
func WriteRecord(cs CheckpointStore, token string, version uint64, rec any, fr *obs.FlightRecorder) (int64, error) {
	buf, err := json.Marshal(rec)
	if err != nil {
		return 0, err
	}
	return WriteArtifactStream(cs, RecordName(token), Payload(buf), fr, -1, version)
}

// ReadRecord returns the JSON of commit token's record once it has verified.
func ReadRecord(cs CheckpointStore, token string) ([]byte, error) {
	return ReadArtifactChecked(cs, RecordName(token))
}
