package repl

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/storage"
)

// pageCRCs decodes the page checksums in the record of a one-shard commit.
func pageCRCs(t *testing.T, cs storage.CheckpointStore, token string) []hlog.PageCRC {
	t.Helper()
	buf, err := storage.ReadArtifactChecked(cs, "cpr-manifest-"+token)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Shards []struct {
			PageCRCs []hlog.PageCRC `json:"page_crcs"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(buf, &rec); err != nil || len(rec.Shards) != 1 {
		t.Fatalf("record of %s: %d shard sections, %v", token, len(rec.Shards), err)
	}
	return rec.Shards[0].PageCRCs
}

// TestReplicaResyncAfterPrimaryRecovery: a replica that restarted holds page
// checksums of what it verified on its device. The primary then crashes and
// recovers the same commit, which writes invalid bits into pages those
// checksums cover, and the replica re-receives the range. Its copy of the
// pages, its checksum table and its copy of the commit record must all follow, or the
// next install — and the restart after it — fail their own verification.
func TestReplicaResyncAfterPrimaryRecovery(t *testing.T) {
	over := func(dev storage.Device, cps storage.CheckpointStore) faster.Config {
		cfg := testConfig(1)
		cfg.PageBits = 12
		cfg.DeviceFactory = nil
		cfg.Device, cfg.Checkpoints = dev, cps
		return cfg
	}
	pdev, pcps := storage.NewMemDevice(), storage.NewMemCheckpointStore()
	pcfg := over(pdev, pcps)
	pcfg.MemPages = 64 // b holds a phase below: a must never wait for an eviction
	primary, err := faster.Open(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(primary)
	addr := startServer(t, srv)

	rdev, rcps := storage.NewMemDevice(), storage.NewMemCheckpointStore()
	repCfg := Config{Upstream: addr, StoreConfig: over(rdev, rcps), ReconnectEvery: 10 * time.Millisecond}
	rep, err := NewReplica(repCfg)
	if err != nil {
		t.Fatal(err)
	}

	a, b := primary.StartSession(), primary.StartSession()
	finish := func(token string) faster.CommitResult {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); ; {
			if res, ok := primary.TryResult(token); ok {
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				return res
			}
			if time.Now().After(deadline) {
				t.Fatalf("commit %s stuck in %v", token, primary.Phase())
			}
			a.Refresh()
			b.Refresh()
		}
	}
	const nKeys = 400
	for k := uint64(0); k < nKeys; k++ {
		a.Upsert(key(k), u64(1))
	}
	b.Upsert(key(1<<40), u64(1))
	token, err := primary.Commit(faster.CommitOptions{WithIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	finish(token)
	for k := uint64(0); k < nKeys; k += 2 {
		a.Upsert(key(k), u64(2))
	}

	// The commit under test. b acknowledges prepare and then holds the
	// in-progress phase by not refreshing, while a — already in v+1 — writes
	// several pages: records past the CPR point, below the commit's log end,
	// on pages the commit's checksums cover.
	if token, err = primary.Commit(faster.CommitOptions{}); err != nil {
		t.Fatal(err)
	}
	for turn := 0; primary.Phase() != faster.InProgress; turn++ {
		if turn > 1000 {
			t.Fatalf("commit stuck in %v", primary.Phase())
		}
		[]*faster.Session{a, b}[turn%2].Refresh()
	}
	a.Refresh() // the refresh that moved the phase did not see it: a crosses now
	for k := uint64(0); k < nKeys; k++ {
		a.Upsert(key(k), u64(3))
	}
	res := finish(token)
	waitApplied(t, rep, uint32(res.Version))
	a.Upsert(key(7), u64(4)) // and the crash loses what came after the commit
	crashDev, crashCps := pdev.Clone(), pcps.Clone()
	srv.Close()
	a.StopSession()
	b.StopSession()
	primary.Close()

	// The replica restarts with the primary away: it recovers the commit from
	// its own device and checksums.
	rep.Close()
	rep.Store().Close()
	if rep, err = NewReplica(repCfg); err != nil {
		t.Fatal(err)
	}
	if got := rep.ReplStats().AppliedVersion; got != uint32(res.Version) {
		t.Fatalf("restarted replica at version %d, want %d", got, res.Version)
	}
	before := pageCRCs(t, rcps, token)

	// The primary recovers the same commit.
	recovered, report, err := faster.RecoverWithReport(over(crashDev, crashCps))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if report.Token != token || len(report.Skipped) != 0 {
		t.Fatalf("primary recovered %s (skipped %v), want %s", report.Token, report.Skipped, token)
	}
	after := pageCRCs(t, crashCps, token)
	if len(after) >= len(before) {
		t.Fatalf("recovery invalidated nothing on a checksummed page (%d pages covered before, %d after): the test would pass vacuously",
			len(before), len(after))
	}
	srv = NewServer(recovered)
	go srv.Serve(addr) //nolint:errcheck
	defer srv.Close()

	// The new connection re-ships the rewritten range and then the commit's
	// artifacts. Once the amended record has arrived, a crash of the replica
	// must recover the same commit again, from the bytes it re-received.
	for deadline := time.Now().Add(30 * time.Second); len(pageCRCs(t, rcps, token)) != len(after); {
		if time.Now().After(deadline) {
			t.Fatal("replica never received the amended commit record")
		}
		time.Sleep(time.Millisecond)
	}
	imgCfg := over(rdev.Clone(), rcps.Clone())
	imgCfg.Replica = true
	img, report, err := faster.RecoverWithReport(imgCfg)
	if err != nil {
		t.Fatal(err)
	}
	img.Close()
	if report.Token != token || len(report.Skipped) != 0 {
		t.Fatalf("resynced replica image recovered %s (skipped %v), want %s", report.Token, report.Skipped, token)
	}

	// The next commit installs over the re-received pages.
	c := recovered.StartSession()
	defer c.StopSession()
	for k := uint64(nKeys); k < nKeys+50; k++ {
		c.Upsert(key(k), u64(5))
	}
	res = commitWait(t, recovered, c)
	waitApplied(t, rep, uint32(res.Version))
	defer rep.Store().Close()
	defer rep.Close()
	for k := uint64(0); k < nKeys+50; k++ {
		want := uint64(5)
		if k < nKeys {
			want = 2 - k%2 // the v+1 overwrites (3) and the post-commit one (4) are gone
		}
		val, found, err := rep.Read(key(k))
		if err != nil || !found {
			t.Fatalf("key %d: found %v, %v", k, found, err)
		}
		if !bytes.Equal(val, u64(want)) {
			t.Fatalf("key %d = %d, want %d", k, binary.LittleEndian.Uint64(val), want)
		}
	}
}
