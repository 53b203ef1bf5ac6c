// Network: the store served over TCP. Starts an in-process server with
// automatic CPR commits, drives it with concurrent clients, "crashes" the
// server, restarts it from its checkpoints, and shows clients resuming their
// sessions at their recovered CPR points.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"sync"
	"time"

	cpr "repro"
	"repro/internal/faster"
	"repro/internal/kvserver"
)

func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// serve opens the store over cfg, recovering its last commit if it has one,
// and serves it.
func serve(cfg faster.Config) (*kvserver.Server, *faster.Store, string) {
	store, err := faster.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	srv := kvserver.NewServer(store)
	go func() {
		if err := srv.Serve("127.0.0.1:0"); err != nil {
			log.Printf("serve: %v", err)
		}
	}()
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	return srv, store, srv.Addr().String()
}

func main() {
	device := cpr.NewMemDevice() // survives the simulated server crash
	checkpoints := cpr.NewMemCheckpointStore()
	cfg := faster.Config{Device: device, Checkpoints: checkpoints}

	srv, store, addr := serve(cfg)
	fmt.Println("server listening on", addr)

	// Three clients write disjoint key ranges concurrently.
	const clients = 3
	const opsEach = 2000
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := kvserver.Dial(addr, "")
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close()
			ids[i] = c.ID()
			for n := uint64(1); n <= opsEach; n++ {
				if _, err := c.Set(u64(uint64(i)<<32|n), u64(n)); err != nil {
					log.Fatal(err)
				}
			}
			// Each client requests a commit; the server coalesces them.
			point, err := c.Commit(true)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("client %d committed; CPR point %d of %d ops\n", i, point, opsEach)
		}()
	}
	wg.Wait()

	// Crash the server process state; the device and checkpoints survive.
	srv.Close()
	store.Close()
	fmt.Println("server crashed; restarting from checkpoints")

	srv2, store2, addr2 := serve(cfg)
	defer func() { srv2.Close(); store2.Close() }()

	for i := 0; i < clients; i++ {
		c, err := kvserver.Dial(addr2, ids[i])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("client %d resumed; recovered CPR point %d\n", i, c.CPRPoint())
		// Everything up to the CPR point must be readable.
		probe := c.CPRPoint()
		if probe > 0 {
			val, found, err := c.Get(u64(uint64(i)<<32 | probe))
			if err != nil || !found || binary.LittleEndian.Uint64(val) != probe {
				log.Fatalf("client %d: op %d not recovered (%v %v)", i, probe, found, err)
			}
		}
		c.Close()
	}
	fmt.Println("all client prefixes recovered over the network ✔")
}
