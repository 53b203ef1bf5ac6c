package faster

import (
	"testing"

	"repro/internal/obs"
)

// TestCommittedTokenTracksCoveringCommit: after a commit completes, every
// session it covered reports that commit's token — the attribution source for
// request-trace durability-wait spans.
func TestCommittedTokenTracksCoveringCommit(t *testing.T) {
	store, err := Open(Config{Metrics: obs.NewNop()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sess := store.StartSession()
	defer sess.StopSession()

	if got := sess.CommittedToken(); got != "" {
		t.Fatalf("fresh session reports covering token %q", got)
	}
	if st := sess.Upsert([]byte("k"), []byte("v")); st != Ok {
		t.Fatalf("upsert: %v", st)
	}
	token, err := store.Commit(CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	awaitCommit(t, store, token, sess)
	if got := sess.CommittedToken(); got != token {
		t.Fatalf("covering token = %q, want %q", got, token)
	}
	if sess.CommittedSerial() != sess.Serial() {
		t.Fatalf("committed serial %d != issued %d after covering commit",
			sess.CommittedSerial(), sess.Serial())
	}
}
