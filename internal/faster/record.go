package faster

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/hlog"
	"repro/internal/obs"
	"repro/internal/storage"
)

// This file owns the on-disk layout of a commit: the commit record, the names
// of the blobs it refers to, the one loader, the one amend and the offline
// walk (VerifyCommits). Nothing else in the tree spells an artifact name.

// commitRecord is the commit record, the artifact cpr-manifest-<token>: the
// one write whose presence means "committed" and everything recovery, a
// replica's install and the shipper need to know about the commit. It is
// written once every shard's capture is durable and every attachment hook has
// answered, so a crash or a failure anywhere before it leaves the previous
// record as the newest commit, whatever blobs of the unfinished one reached
// the store. The only other artifacts a commit owns are the blobs the record
// names.
type commitRecord struct {
	Format  int    `json:"format"`
	Token   string `json:"token"`
	Version uint32 `json:"version"`
	Kind    string `json:"kind"`
	// Serials maps each participating session to its CPR point t_i.
	Serials map[string]uint64 `json:"serials"`
	Shards  []shardSection    `json:"shards"`
	// Attachments are the payloads of the Store.OnCommitArtifact hooks, by
	// the name each hook gave.
	Attachments map[string][]byte `json:"attachments,omitempty"`
}

// shardSection is one shard's part of a commit record.
type shardSection struct {
	Lhs           uint64 `json:"log_start"`
	Lhe           uint64 `json:"log_end"`
	Lis           uint64 `json:"index_start"`
	Lie           uint64 `json:"index_end"`
	SnapshotStart uint64 `json:"snapshot_start,omitempty"`
	// Index names the fuzzy index image recovery starts from — this commit's,
	// or the one a log-only commit carries forward (Sec. 6.3) — and Snapshot
	// the capture of a snapshot commit's volatile region; "" for none.
	Index    string `json:"index"`
	Snapshot string `json:"snapshot,omitempty"`
	// PageCRCs is the log's page checksum table at the commit; recovery
	// verifies the device against it before trusting it. A recovery that
	// invalidates v+1 records drops the pages it rewrites (shard.amendRecord).
	PageCRCs []hlog.PageCRC `json:"page_crcs"`
}

// recordFormat is the Format of the records this version writes and reads.
// Format 1 named CPRIDX2 index images and read each log_start as its shard's
// leg began, not before the first one did (shard.isFuture needs the latter).
const recordFormat = 2

// errParentLayout marks a record of an older layout: recovery must neither
// read it as a commit nor pass over it to an older one.
var errParentLayout = errors.New("this version cannot read it")

const recordPrefix = "cpr-manifest-"

func recordName(token string) string { return recordPrefix + token }

// blobName names a blob of shard i's leg of commit token ("index" or
// "snapshot"); the shard is in the name at every shard count.
func blobName(kind, token string, shard int) string {
	return fmt.Sprintf("%s-%s-s%d", kind, token, shard)
}

// logEnd is the address the shard's log reaches at the commit, where recovery
// and a replica's install cut it. The checkpoint extended the log capture over
// the fuzzy index window, so Lie is on the device when this commit took the
// index; a carried-forward index lies below Lhe entirely.
func (sec *shardSection) logEnd() uint64 { return max(sec.Lie, sec.Lhe) }

// scanStart is where Alg. 3's replay of the commit begins: the whole log
// without an index image.
func (sec *shardSection) scanStart() uint64 {
	if sec.Index == "" {
		return hlog.FirstAddress
	}
	return min(sec.Lis, sec.Lhs)
}

// blobs lists the artifacts the record names, in shard order.
func (rec *commitRecord) blobs() []string {
	var names []string
	for i := range rec.Shards {
		for _, name := range []string{rec.Shards[i].Index, rec.Shards[i].Snapshot} {
			if name != "" {
				names = append(names, name)
			}
		}
	}
	return names
}

// loadRecord reads and verifies the record of the commit identified by token:
// the one loader. A record of an older layout is errParentLayout.
func loadRecord(cs storage.CheckpointStore, token string) (*commitRecord, error) {
	buf, err := storage.ReadArtifactChecked(cs, recordName(token))
	if err != nil {
		return nil, fmt.Errorf("commit record: %w", err)
	}
	rec := new(commitRecord)
	err = json.Unmarshal(buf, rec)
	switch {
	case rec.Format == 0 && json.Valid(buf):
		// The manifest before the commit record: no format, and a shard count
		// where the sections are (which is what err, if any, complains about).
		return nil, fmt.Errorf(`commit record %s: checkpoint store has the per-shard layout (a cpr-manifest without "format"/"shards" sections, beside meta-<token> and pagecrc-<token> per shard); %w`, token, errParentLayout)
	case rec.Format == 1 && err == nil:
		return nil, fmt.Errorf("commit record %s: checkpoint store has commit record format 1 (CPRIDX2 index images); %w", token, errParentLayout)
	case err != nil:
		return nil, fmt.Errorf("commit record %s: %w", token, err)
	}
	if rec.Format != recordFormat || rec.Token != token {
		return nil, fmt.Errorf("commit record %s: format %d, token %q", token, rec.Format, rec.Token)
	}
	return rec, nil
}

// writeRecord persists rec — inside the checksum envelope, retried and
// recorded like every artifact — and returns the payload's length.
func writeRecord(cs storage.CheckpointStore, rec *commitRecord, fr *obs.FlightRecorder) (int64, error) {
	buf, err := json.Marshal(rec)
	if err != nil {
		return 0, err
	}
	return storage.WriteArtifactStream(cs, recordName(rec.Token), storage.Payload(buf), fr, -1, uint64(rec.Version))
}

// amendRecord drops the page checksums of shard i's touched pages from the
// record of commit token — one read-modify-write of the record, atomic as
// every artifact write, under the store-wide lock every writer of invalid
// bits reaches it through (the restore goroutines of an instant restore, full
// recovery, Promote).
func (sh *shard) amendRecord(token string, touched map[uint64]bool) error {
	sh.recordMu.Lock()
	defer sh.recordMu.Unlock()
	rec, err := loadRecord(sh.cfg.Checkpoints, token)
	if err != nil {
		return err
	}
	sec := &rec.Shards[sh.id]
	kept := slices.DeleteFunc(sec.PageCRCs, func(pc hlog.PageCRC) bool { return touched[pc.Page] })
	if len(kept) == len(sec.PageCRCs) {
		return nil
	}
	sec.PageCRCs = kept
	_, err = writeRecord(sh.cfg.Checkpoints, rec, sh.flight)
	return err
}

// Commits lists the tokens of the commit records in cs, newest first by token
// sequence number. Enumerating records is what makes fallback possible when
// the newest commit is damaged.
func Commits(cs storage.CheckpointStore) ([]string, error) {
	names, err := cs.List()
	if err != nil {
		return nil, err
	}
	return recordTokens(names), nil
}

func recordTokens(names []string) []string {
	var tokens []string
	for _, n := range names {
		if tok, ok := strings.CutPrefix(n, recordPrefix); ok {
			tokens = append(tokens, tok)
		}
	}
	// Store-generated tokens by sequence number; foreign ones (sequence 0) last.
	slices.SortFunc(tokens, func(a, b string) int {
		sa, _ := tokenSeq(a)
		sb, _ := tokenSeq(b)
		return cmp.Or(cmp.Compare(sb, sa), cmp.Compare(b, a))
	})
	return tokens
}

// tokenSeq extracts the sequence number from a store-generated commit token.
func tokenSeq(token string) (uint64, bool) {
	var seq uint64
	_, err := fmt.Sscanf(token, "ckpt-%d", &seq)
	return seq, err == nil
}

// Attachment returns the payload a Store.OnCommitArtifact hook attached to
// commit token under name; ok is false when the commit carries none.
func Attachment(cs storage.CheckpointStore, token, name string) (payload []byte, ok bool, err error) {
	rec, err := loadRecord(cs, token)
	if err != nil {
		return nil, false, err
	}
	payload, ok = rec.Attachments[name]
	return payload, ok, nil
}

// CommitVerdict is what VerifyCommits found of one commit.
type CommitVerdict struct {
	Token string
	// Problems is empty for a commit recovery would accept as far as the
	// checkpoint store goes: the record decodes and every blob it names is
	// there and verifies.
	Problems []string
}

// VerifyCommits walks a checkpoint store offline: per commit record, oldest
// first, whether it decodes and every blob it names exists and verifies — a
// damaged index image fails the commit that took it and every log-only commit
// that carries it forward. Artifacts no record names (the blobs of a commit
// that never completed, flight and incident dumps) come back as orphans: they
// are not failures.
func VerifyCommits(cs storage.CheckpointStore) (commits []CommitVerdict, orphans []string, err error) {
	names, err := cs.List()
	if err != nil {
		return nil, nil, err
	}
	tokens := recordTokens(names)
	slices.Reverse(tokens)
	blobErr := map[string]error{} // verified once, however many records name it
	for _, tok := range tokens {
		v := CommitVerdict{Token: tok}
		rec, err := loadRecord(cs, tok)
		if err != nil {
			v.Problems = append(v.Problems, err.Error())
		} else {
			for _, name := range rec.blobs() {
				if _, seen := blobErr[name]; !seen {
					blobErr[name] = storage.ReadArtifactStream(cs, name, nil)
				}
				if err := blobErr[name]; err != nil {
					v.Problems = append(v.Problems, err.Error())
				}
			}
		}
		commits = append(commits, v)
	}
	for _, n := range names {
		if _, named := blobErr[n]; !named && !strings.HasPrefix(n, recordPrefix) {
			orphans = append(orphans, n)
		}
	}
	return commits, orphans, nil
}
