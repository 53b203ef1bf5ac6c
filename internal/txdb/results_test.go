package txdb

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestCommitResultsBounded: a CommitResult pins its workers through Seqs, so a
// database keeps only the newest core.MaxResults, in the machine's one ring,
// which the WAL engine's group commits share. After 1000 commits, each by a
// worker closed afterwards, those still resolve through TryResult and
// WaitForCommit, and an older token is an unknown commit.
func TestCommitResultsBounded(t *testing.T) {
	for _, eng := range []EngineKind{EngineCPR, EngineWAL} {
		t.Run(eng.String(), func(t *testing.T) {
			db := mustOpen(t, Config{Records: 16, Engine: eng, Metrics: obs.NewNop()})
			defer db.Close()
			const commits = 1000
			tokens := make([]string, commits)
			for i := range tokens {
				w := db.NewWorker()
				if res := w.Execute(write1(uint64(i%16), uint64(i))); res != Committed {
					t.Fatalf("txn %d: %v", i, res)
				}
				token, err := db.Commit(nil)
				if err != nil {
					t.Fatal(err)
				}
				if tokens[i] = token; eng != EngineWAL {
					awaitCommit(t, db, token, []*Worker{w})
				}
				w.Close()
			}
			retained := 0
			for i, tok := range tokens {
				res, ok := db.TryResult(tok)
				waited := db.WaitForCommit(tok)
				if ok {
					retained++
				}
				if i < commits-core.MaxResults {
					if ok || waited.Err == nil || !strings.Contains(waited.Err.Error(), "unknown commit") {
						t.Errorf("commit %d of %d (%s) still resolves: ok=%v err=%v", i, commits, tok, ok, waited.Err)
					}
					continue
				}
				if !ok || res.Err != nil || waited.Err != nil || res.Token != tok || waited.Token != tok {
					t.Fatalf("commit %d of %d (%s) no longer resolves: ok=%v %v / %v", i, commits, tok, ok, res.Err, waited.Err)
				}
				if eng != EngineWAL && len(res.Seqs) != 1 {
					t.Fatalf("commit %s: %d worker points, want 1", tok, len(res.Seqs))
				}
			}
			if retained > core.MaxResults {
				t.Fatalf("%d commit results retained after %d commits, want at most %d", retained, commits, core.MaxResults)
			}
		})
	}
}
