package faster

import (
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/hlog"
	"repro/internal/storage"
)

// This file owns what FASTER's commit record says: its type, the names of the
// blobs it refers to, the one loader, the one amend and the offline walk
// (VerifyCommits). The record's name, the token order and its write and
// verified read are storage's (record.go there), shared with txdb.

// commitRecord is the commit record, the artifact cpr-manifest-<token>: the
// one write whose presence means "committed" and everything recovery, a
// replica's install and the shipper need to know about the commit. It is
// written once every shard's capture is durable and every attachment hook has
// answered. The only other artifacts a commit owns are the blobs the record
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
	// Engine is set only in another engine's record (txdb's): FASTER refuses it.
	Engine string `json:"engine,omitempty"`
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
// the one loader. A record of an older layout or of the other engine is
// storage.ErrForeignLayout.
func loadRecord(cs storage.CheckpointStore, token string) (*commitRecord, error) {
	buf, err := storage.ReadRecord(cs, token)
	if err != nil {
		return nil, err
	}
	rec := new(commitRecord)
	err = json.Unmarshal(buf, rec)
	switch {
	case rec.Engine != "":
		return nil, fmt.Errorf("commit record %s: checkpoint store holds %s commit records, not FASTER's; %w", token, rec.Engine, storage.ErrForeignLayout)
	case rec.Format == 0 && json.Valid(buf):
		// The manifest before the commit record: no format, and a shard count
		// where the sections are (which is what err, if any, complains about).
		return nil, fmt.Errorf(`commit record %s: checkpoint store has the per-shard layout (a cpr-manifest without "format"/"shards" sections, beside meta-<token> and pagecrc-<token> per shard); %w`, token, storage.ErrForeignLayout)
	case rec.Format == 1 && err == nil:
		return nil, fmt.Errorf("commit record %s: checkpoint store has commit record format 1 (CPRIDX2 index images); %w", token, storage.ErrForeignLayout)
	case err != nil:
		return nil, fmt.Errorf("commit record %s: %w", token, err)
	}
	if rec.Format != recordFormat || rec.Token != token {
		return nil, fmt.Errorf("commit record %s: format %d, token %q", token, rec.Format, rec.Token)
	}
	return rec, nil
}

// amendRecord drops the page checksums of shard i's touched pages from the
// record of commit token — one read-modify-write of the record, atomic as
// every artifact write. Its callers, recovery and Promote, visit the shards
// one at a time, so no two amends of a record overlap.
func (sh *shard) amendRecord(token string, touched map[uint64]bool) error {
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
	_, err = storage.WriteRecord(sh.cfg.Checkpoints, token, uint64(rec.Version), rec, sh.flight)
	return err
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
	tokens, err := storage.RecordTokens(names)
	if err != nil {
		return nil, nil, err
	}
	slices.Reverse(tokens)
	blobErr := map[string]error{} // verified once, however many records name it
	for _, tok := range tokens {
		blobErr[storage.RecordName(tok)] = nil // not an orphan
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
		if _, named := blobErr[n]; !named {
			orphans = append(orphans, n)
		}
	}
	return commits, orphans, nil
}
