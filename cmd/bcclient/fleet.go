package main

import (
	"errors"
	"fmt"
	"log"
	"strings"

	"broadcastcc"
)

// runFleetClient tunes every shard channel of a bcserver -shards fleet
// and runs transactions over global object ids through a router: reads
// validate per shard plus the cross-shard alignment check, writes
// commit through the coordinator uplink. The mapping is rebuilt
// locally from (ring-seed, shards, vnodes, objects), which must match
// the server's flags — the deployment contract of a hashring fleet.
func runFleetClient(alg broadcastcc.Algorithm, broadcastAddr, coordinatorAddr string,
	shards, vnodes, objects int, ringSeed int64, reads []int, writes map[int]string, txns int) {
	m := broadcastcc.NewShardMapping(broadcastcc.NewShardRing(ringSeed, shards, vnodes), objects)
	clients := make([]*broadcastcc.Client, shards)
	for s := 0; s < shards; s++ {
		addr, err := broadcastcc.ShardAddr(broadcastAddr, s)
		if err != nil {
			log.Fatal(err)
		}
		tuner, err := broadcastcc.Tune(addr)
		if err != nil {
			log.Fatalf("shard %d at %s: %v", s, addr, err)
		}
		defer tuner.Close()
		// The router stamps reads with each shard's current cycle, which
		// only holds for cache-free clients.
		clients[s] = broadcastcc.NewClient(broadcastcc.ClientConfig{Algorithm: alg}, tuner.Subscribe(64))
	}
	var uplink broadcastcc.Uplink
	if len(writes) > 0 {
		up, err := broadcastcc.DialUplink(coordinatorAddr)
		if err != nil {
			log.Fatalf("coordinator at %s: %v", coordinatorAddr, err)
		}
		defer up.Close()
		uplink = up
	}
	r, err := broadcastcc.NewShardRouter(m, clients, uplink)
	if err != nil {
		log.Fatal(err)
	}

	aborts := 0
	for done := 0; done < txns; {
		if len(writes) == 0 {
			vals := make([][]byte, 0, len(reads))
			rs, err := r.RunReadOnly(0, func(txn *broadcastcc.ShardReadTxn) error {
				vals = vals[:0]
				for _, obj := range reads {
					v, err := txn.Read(obj)
					if err != nil {
						return err
					}
					vals = append(vals, v)
				}
				return nil
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("txn %d:", done+1)
			for i, obj := range reads {
				fmt.Printf(" obj%d=%q@shard%d", obj,
					strings.TrimRight(string(vals[i]), "\x00"), m.ShardOf(obj))
			}
			fmt.Printf("  [read-set %v]\n", rs)
			done++
			continue
		}
		txn := r.BeginUpdate()
		ok := true
		for _, obj := range reads {
			if _, err := txn.Read(obj); err != nil {
				if errors.Is(err, broadcastcc.ErrInconsistentRead) {
					ok = false
					break
				}
				log.Fatal(err)
			}
		}
		if !ok {
			// An inconsistent read restarts the attempt after the next
			// cycle on the shard that refused it.
			txn.Abort()
			aborts++
			if _, ok := clients[m.ShardOf(reads[0])].AwaitCycle(); !ok {
				log.Fatal("broadcast stream closed")
			}
			continue
		}
		for obj, val := range writes {
			if err := txn.Write(obj, []byte(val)); err != nil {
				log.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			fmt.Printf("txn %d: rejected: %v\n", done+1, err)
			aborts++
			done++
			continue
		}
		involved := map[int]bool{}
		for obj := range writes {
			involved[m.ShardOf(obj)] = true
		}
		fmt.Printf("txn %d: committed %d write(s) across %d shard(s) via coordinator\n",
			done+1, len(writes), len(involved))
		done++
	}
	fmt.Printf("stats: %d txns over %d shards, %d aborts observed\n", txns, shards, aborts)
}
