// Quickstart: one broadcast server, one client, reads validated "off
// the air" and an update shipped over the uplink.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"broadcastcc"
)

func main() {
	// A server broadcasting 8 objects of 1 KB each under the F-Matrix
	// protocol, so clients get the full control matrix every cycle.
	srv, err := broadcastcc.NewServer(broadcastcc.ServerConfig{
		Objects:    8,
		ObjectBits: 8192,
		Algorithm:  broadcastcc.FMatrix,
		InitialValues: [][]byte{
			[]byte("alpha"), []byte("bravo"), []byte("charlie"), []byte("delta"),
			[]byte("echo"), []byte("foxtrot"), []byte("golf"), []byte("hotel"),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// A client tuned in to the broadcast.
	cli := broadcastcc.NewClient(broadcastcc.ClientConfig{Algorithm: broadcastcc.FMatrix}, srv.Subscribe(16))

	// Cycle 1 goes on the air; the client picks it up.
	srv.StartCycle()
	if _, ok := cli.AwaitCycle(); !ok {
		log.Fatal("broadcast ended unexpectedly")
	}

	// A read-only transaction reads two objects with zero uplink
	// traffic; every read is validated against the broadcast control
	// matrix, so the values are guaranteed mutually consistent and
	// current to the cycle they were read in.
	read := cli.BeginReadOnly()
	v0, err := read.Read(0)
	if err != nil {
		log.Fatal(err)
	}
	v1, err := read.Read(1)
	if err != nil {
		log.Fatal(err)
	}
	readSet, _ := read.Commit()
	fmt.Printf("read off the air: obj0=%q obj1=%q (read-set %v, no server contact)\n", v0, v1, readSet)

	// An update transaction: reads validate the same way; writes are
	// buffered locally and shipped up the uplink at commit, where the
	// server revalidates and commits.
	upd := cli.BeginUpdate()
	cur, err := upd.Read(2)
	if err != nil {
		log.Fatal(err)
	}
	if err := upd.Write(2, append(cur, []byte(" (updated)")...)); err != nil {
		log.Fatal(err)
	}
	if err := upd.Commit(srv); err != nil {
		log.Fatal(err)
	}
	fmt.Println("update committed via the uplink")

	// The new value is on the air from the next cycle.
	srv.StartCycle()
	cli.AwaitCycle()
	read2 := cli.BeginReadOnly()
	v2, err := read2.Read(2)
	if err != nil {
		log.Fatal(err)
	}
	read2.Commit()
	fmt.Printf("next cycle broadcasts obj2=%q\n", v2)

	reg := srv.Obs()
	fmt.Printf("server: %d cycles, %d commits, %d uplink requests\n", reg.Counter("server_cycles").Load(),
		reg.Counter("server_commits").Load(), reg.Counter("server_uplink_requests").Load())
}
