// Netbroadcast: the runtime on real TCP sockets with incremental
// control-information transmission. A server streams a flat broadcast
// program (one disk, no index) on one port, each object's control
// column a bucket frame sent as a delta against the column it sent last
// time, with a full refresh every 8th time, and takes update
// transactions on an uplink port; a client tunes in, reads off the air,
// and commits a write over the uplink. The transmission accounting at
// the end shows the Section 3.2.1 future-work savings.
//
//	go run ./examples/netbroadcast
package main

import (
	"fmt"
	"log"
	"time"

	"broadcastcc"
	"broadcastcc/internal/netcast"
)

const (
	objects = 64
	cycles  = 24
	refresh = 8 // each column in full every 8th time it goes out
)

func main() {
	cfg := broadcastcc.ServerConfig{
		Objects:    objects,
		ObjectBits: 256,
		Algorithm:  broadcastcc.FMatrix,
	}
	prog, err := broadcastcc.BuildProgram(cfg, broadcastcc.ZipfWeights(objects, 0), 1, 0)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Program = prog
	srv, err := broadcastcc.NewServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < objects; i++ {
		txn := srv.Begin()
		txn.Write(i, []byte(fmt.Sprintf("item-%02d v0", i)))
		if err := txn.Commit(); err != nil {
			log.Fatal(err)
		}
	}

	ns, err := netcast.ServeOptions(srv, "127.0.0.1:0", "127.0.0.1:0", netcast.Options{RefreshEvery: refresh})
	if err != nil {
		log.Fatal(err)
	}
	defer ns.Close()
	fmt.Printf("broadcasting on %s (uplink %s), each column in full every %d cycles\n",
		ns.BroadcastAddr(), ns.UplinkAddr(), refresh)

	tuner, err := broadcastcc.Tune(ns.BroadcastAddr())
	if err != nil {
		log.Fatal(err)
	}
	defer tuner.Close()
	cli := broadcastcc.NewClient(broadcastcc.ClientConfig{Algorithm: broadcastcc.FMatrix}, tuner.Subscribe(64))
	uplink, err := broadcastcc.DialUplink(ns.UplinkAddr())
	if err != nil {
		log.Fatal(err)
	}
	defer uplink.Close()

	// Wait for the subscription to register, then run the cycles with a
	// server-side update every third one.
	for ns.Subscribers() == 0 {
		time.Sleep(time.Millisecond)
	}
	for c := 1; c <= cycles; c++ {
		if _, err := ns.Step(); err != nil {
			log.Fatal(err)
		}
		if c%3 == 0 {
			txn := srv.Begin()
			if _, err := txn.Read(c % objects); err != nil {
				log.Fatal(err)
			}
			txn.Write((c+1)%objects, []byte(fmt.Sprintf("item-%02d v%d", (c+1)%objects, c)))
			if err := txn.Commit(); err != nil {
				log.Fatal(err)
			}
		}
	}

	// The client reads a consistent pair off the air (columns rebuilt
	// from deltas) and pushes one write up the uplink.
	readSet, err := cli.RunReadOnly(10, func(txn *broadcastcc.ReadTxn) error {
		for cli.PollCycle(); cli.Current() == nil || cli.Current().Number < cycles; cli.PollCycle() {
			time.Sleep(time.Millisecond) // the tuner is still assembling the last cycle
		}
		v3, err := txn.Read(3)
		if err != nil {
			return err
		}
		v4, err := txn.Read(4)
		if err != nil {
			return err
		}
		fmt.Printf("consistent read at cycle %d: %q / %q\n", cli.Current().Number, trim(v3), trim(v4))
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read-set: %v (no uplink traffic)\n", readSet)

	upd := cli.BeginUpdate()
	if _, err := upd.Read(5); err != nil {
		log.Fatal(err)
	}
	if err := upd.Write(5, []byte("item-05 rewritten")); err != nil {
		log.Fatal(err)
	}
	if err := upd.Commit(uplink); err != nil {
		log.Fatal(err)
	}
	fmt.Println("client write committed over the uplink")

	// The flat program sends every object once a cycle: its column in
	// full at cycles 1, 1+refresh, ..., as a delta the other times.
	reg := ns.Obs()
	full, delta := reg.Counter("netcast_full_bytes").Load(), reg.Counter("netcast_delta_bytes").Load()
	fullBuckets := int64(objects * ((cycles + refresh - 1) / refresh))
	deltaBuckets := int64(objects*cycles) - fullBuckets
	fmt.Printf("transmitted: %d bytes in %d full buckets (%d B avg), %d bytes in %d delta buckets (%d B avg)\n",
		full, fullBuckets, full/fullBuckets, delta, deltaBuckets, delta/deltaBuckets)
}

func trim(v []byte) string {
	for i, b := range v {
		if b == 0 {
			return string(v[:i])
		}
	}
	return string(v)
}
