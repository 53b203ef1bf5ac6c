package faster

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestCommitResultsBounded is the regression test for the commit-result leak:
// the store used to keep each CommitResult (token plus a per-session map) for
// the life of the process. After 1000 commits only the newest maxResults are
// held, in the store's one ring; those still resolve through TryResult and
// WaitForCommit, an older token is an unknown commit.
func TestCommitResultsBounded(t *testing.T) { onePartition(t, commitResultsBounded) }

func commitResultsBounded(t *testing.T) {
	cfg := smallConfig()
	cfg.Metrics = obs.NewNop()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	const commits = 1000
	tokens := make([]string, commits)
	for i := range tokens {
		sess.Upsert(key(uint64(i)), u64(uint64(i)))
		tokens[i] = driveCommit(t, s, []*Session{sess}, CommitOptions{}).Token
	}
	s.ckptMu.Lock()
	n := len(s.results.byToken)
	s.ckptMu.Unlock()
	if n > maxResults {
		t.Fatalf("%d commit results retained after %d commits, want at most %d", n, commits, maxResults)
	}
	for i, tok := range tokens {
		res, ok := s.TryResult(tok)
		waited := s.WaitForCommit(tok)
		if i < commits-maxResults {
			if ok || waited.Err == nil || !strings.Contains(waited.Err.Error(), "unknown commit") {
				t.Fatalf("commit %d of %d (%s) still resolves: ok=%v err=%v", i, commits, tok, ok, waited.Err)
			}
			continue
		}
		if !ok || res.Err != nil || waited.Err != nil || res.Token != tok || waited.Token != tok {
			t.Fatalf("commit %d of %d (%s) no longer resolves: ok=%v %v / %v", i, commits, tok, ok, res.Err, waited.Err)
		}
		if got := res.Serials[sess.ID()]; got != uint64(i+1) {
			t.Fatalf("commit %s: session point %d, want %d", tok, got, i+1)
		}
	}
}
