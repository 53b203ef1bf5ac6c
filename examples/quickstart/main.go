// Quickstart: open a CPR-enabled FASTER store, write some data, take a CPR
// commit, "crash", and recover — observing that exactly the operations up to
// the session's CPR point survive.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	cpr "repro"
)

func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func main() {
	// Shared "disk": the device and checkpoint store survive the crash.
	device := cpr.NewMemDevice()
	checkpoints := cpr.NewMemCheckpointStore()

	store, err := cpr.OpenStore(cpr.StoreConfig{Device: device, Checkpoints: checkpoints})
	if err != nil {
		log.Fatal(err)
	}

	sess := store.StartSession()
	sessionID := sess.ID()
	for i := uint64(0); i < 1000; i++ {
		if st := sess.Upsert(u64(i), u64(i*10)); st != cpr.Ok {
			log.Fatalf("upsert %d: %v", i, st)
		}
	}

	// Commit: the store coordinates a CPR checkpoint while this session
	// keeps refreshing (normally sessions just keep processing operations).
	token, err := store.Commit(cpr.CommitOptions{WithIndex: true})
	if err != nil {
		log.Fatal(err)
	}
	for {
		if res, ok := store.TryResult(token); ok {
			fmt.Printf("commit %s durable; CPR point for session = op %d\n",
				res.Token, res.Serials[sessionID])
			break
		}
		sess.Refresh()
	}

	// These operations happen after the commit: they will be lost.
	for i := uint64(0); i < 10; i++ {
		sess.Upsert(u64(i), u64(999))
	}
	fmt.Println("wrote 10 post-commit updates (value 999) that are not durable")

	// Crash: drop the store without another commit.
	store.Close()

	// Reopen the same device + checkpoint store: opening recovers.
	recovered, err := cpr.OpenStore(cpr.StoreConfig{Device: device, Checkpoints: checkpoints})
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()

	rs, cprPoint := recovered.ContinueSession(sessionID)
	defer rs.StopSession()
	fmt.Printf("recovered; session resumes from CPR point %d (replay anything after)\n", cprPoint)

	val, st := rs.Read(u64(3), nil)
	if st != cpr.Ok {
		log.Fatalf("read after recovery: %v", st)
	}
	fmt.Printf("key 3 = %d (pre-commit value 30, not the lost 999)\n",
		binary.LittleEndian.Uint64(val))
}
