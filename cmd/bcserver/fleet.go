package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"broadcastcc"
	"broadcastcc/internal/netcast"
	"broadcastcc/internal/obs"
)

// fleetOptions carries the parsed flags the sharded serving path needs.
type fleetOptions struct {
	shards          int
	vnodes          int
	ringSeed        int64
	broadcastAddr   string
	uplinkAddr      string
	coordinatorAddr string
	base            broadcastcc.ServerConfig
	sparseGrouped   bool
	interval        time.Duration
	workload        float64
	workloadLen     int
	workloadCross   float64
	seed            int64
	obsAddr         string
}

// runFleet serves a k-shard deployment: one netcast server per shard
// (its broadcast channel plus its uplink for BCU1 in shard-local ids),
// a coordinator endpoint for global-id update commits, which calls the
// shards in process, and a ticker that runs the fleet's one cycle edge
// each interval and then delivers every shard's cycle on its channel.
func runFleet(o fleetOptions) {
	fleet, err := broadcastcc.NewFleet(broadcastcc.FleetConfig{
		Base:   o.base,
		Seed:   o.ringSeed,
		Shards: o.shards,
		Vnodes: o.vnodes,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()

	// One shared registry collects the netcast-layer metrics of every
	// shard channel and the coordinator endpoint; per-shard server
	// metrics stay in the fleet's own registries and are merged into
	// scrapes by ObsSnapshot.
	netReg := broadcastcc.NewObsRegistry()
	servers := make([]*netcast.Server, o.shards)
	for s := 0; s < o.shards; s++ {
		baddr, err := broadcastcc.ShardAddr(o.broadcastAddr, s)
		if err != nil {
			log.Fatal(err)
		}
		uaddr, err := broadcastcc.ShardAddr(o.uplinkAddr, s)
		if err != nil {
			log.Fatal(err)
		}
		ns, err := netcast.ServeOptions(fleet.Node(s), baddr, uaddr, netcast.Options{
			SparseGrouped: o.sparseGrouped,
			Obs:           netReg,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer ns.Close()
		servers[s] = ns
		log.Printf("shard %d/%d: broadcasting on %s (local-id uplink %s), %d objects",
			s, o.shards, ns.BroadcastAddr(), ns.UplinkAddr(), fleet.Mapping().Size(s))
	}
	coord, err := netcast.ServeUplink(o.coordinatorAddr, fleet.Coordinator(), netReg)
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	log.Printf("coordinator uplink on %s (global object ids, ring seed %d)", coord.Addr(), o.ringSeed)

	if o.obsAddr != "" {
		ln, err := obs.ServeFunc(o.obsAddr, func() obs.Snapshot {
			return fleet.ObsSnapshot().Merge(netReg.Snapshot())
		}, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		log.Printf("observability on http://%s (/metrics aggregates all shards)", ln.Addr())
	}

	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(o.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				for s, cb := range fleet.StartCycle() {
					_, err := servers[s].Deliver(cb)
					cb.Release()
					if err != nil {
						return
					}
				}
			}
		}
	}()

	if o.workload > 0 {
		go runFleetWorkload(fleet, o, stop)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stop)
	snap := fleet.ObsSnapshot()
	log.Printf("shutting down: %d fleet commits, %d aborts (%d cross-shard submissions)",
		snap.Counters["shard_commits_total"], snap.Counters["shard_aborts_total"],
		snap.Counters["shard_cross_total"])
}

// runFleetWorkload commits synthetic blind-write transactions through
// the coordinator at the given rate: mostly single-shard, with a
// configurable fraction picking objects across the whole database so
// the cross-shard commit path stays exercised.
func runFleetWorkload(fleet *broadcastcc.Fleet, o fleetOptions, stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(o.seed))
	ticker := time.NewTicker(time.Duration(float64(time.Second) / o.workload))
	defer ticker.Stop()
	m := fleet.Mapping()
	coord := fleet.Coordinator()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		var req broadcastcc.UpdateRequest
		if rng.Float64() < o.workloadCross {
			// Scatter across the database: almost surely multi-shard.
			for op := 0; op < o.workloadLen; op++ {
				req.Writes = append(req.Writes, broadcastcc.ObjectWrite{
					Obj: rng.Intn(m.N()), Value: []byte(fmt.Sprintf("x%d", i)),
				})
			}
		} else {
			// Stay on one shard: draw from a single shard's objects.
			objs := m.Globals(rng.Intn(m.Shards()))
			for op := 0; op < o.workloadLen; op++ {
				req.Writes = append(req.Writes, broadcastcc.ObjectWrite{
					Obj: objs[rng.Intn(len(objs))], Value: []byte(fmt.Sprintf("v%d", i)),
				})
			}
		}
		// A blind write reads nothing, so no refusal is expected.
		if err := coord.SubmitUpdate(req); err != nil {
			log.Printf("fleet workload commit: %v", err)
		}
	}
}
