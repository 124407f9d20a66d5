// Command bcserver runs a broadcast concurrency-control server over
// TCP: it streams broadcast cycles (data plus control information) to
// any number of subscribers on one port and accepts update transactions
// on an uplink port. Optionally it runs a synthetic update workload so
// clients have something to watch.
//
//	bcserver -broadcast :7070 -uplink :7071 -alg f-matrix -objects 64
//	bcserver -workload 8 -interval 50ms   # plus 8 update txns/second
//
// With -disks the flat broadcast becomes an airsched multi-disk
// program — hot objects (under a zipf estimate) repeat every minor
// cycle — optionally with a (1,m) air index for selective tuners and
// delta-transmitted control columns:
//
//	bcserver -disks 3 -index-m 8 -zipf 0.95 -refresh-every 4
//
// With -alg grouped the control plane is the n×g grouped matrix
// MC(i,s) = max over j in s of C(i,j); -sparse-grouped broadcasts it as
// sparse BCG1 frames, and -regroup-every makes the partition follow the
// uplink write heat with deterministic regroup epochs:
//
//	bcserver -alg grouped -groups 16 -sparse-grouped
//	bcserver -alg grouped -groups 16 -regroup-every 50
//
// With -udp the server additionally transmits every cycle exactly once
// over connectionless UDP datagrams — to a unicast, broadcast, or
// multicast destination — with MTU sharding and XOR/parity FEC repair
// packets, so datagram audience size never costs server egress:
//
//	bcserver -udp 239.1.2.3:7072            # multicast group
//	bcserver -udp 127.0.0.1:7072 -udp-fec-repair 3
//
// With -shards k the database is hashring-partitioned across k
// broadcast channels (DESIGN.md §12): shard s streams its slice on
// broadcast-port+2s with its own uplink (BCU1 in shard-local ids) on
// uplink-port+2s, one ticker runs the fleet's cycle edge (every shard
// advances under all of the shard locks) and delivers each cycle, and a
// coordinator uplink accepts update transactions in global object ids,
// committing one that spans shards in one critical section over them:
//
//	bcserver -shards 4 -objects 4096 -ring-seed 7
//	bcserver -shards 4 -workload 8 -workload-cross 0.2
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"broadcastcc"
	"broadcastcc/internal/netcast"
)

func main() {
	broadcastAddr := flag.String("broadcast", "127.0.0.1:7070", "broadcast listen address")
	uplinkAddr := flag.String("uplink", "127.0.0.1:7071", "uplink listen address")
	algName := flag.String("alg", "f-matrix", "algorithm: datacycle, r-matrix, f-matrix, grouped")
	objects := flag.Int("objects", 64, "number of objects")
	objectBits := flag.Int64("object-bits", 8192, "object slot size in bits")
	tsBits := flag.Int("ts-bits", 8, "control timestamp size in bits")
	groups := flag.Int("groups", 8, "groups for -alg grouped")
	sparseGrouped := flag.Bool("sparse-grouped", false, "broadcast grouped control as sparse BCG1 frames (requires -alg grouped)")
	regroupEvery := flag.Int("regroup-every", 0, "re-derive the grouped partition from write heat every N cycles (implies -sparse-grouped; 0 = fixed uniform partition)")
	interval := flag.Duration("interval", 100*time.Millisecond, "broadcast cycle interval")
	workload := flag.Float64("workload", 0, "synthetic update transactions per second (0 = none)")
	workloadLen := flag.Int("workload-len", 8, "operations per synthetic transaction")
	seed := flag.Int64("seed", 1, "workload seed")
	disks := flag.Int("disks", 0, "broadcast disks for an airsched program (0 = flat broadcast, 1 = flat program)")
	indexM := flag.Int("index-m", 0, "(1,m) air-index segments per major cycle (requires -disks >= 1)")
	zipf := flag.Float64("zipf", 0, "zipf θ of the access-frequency estimate driving the disk partition")
	refreshEvery := flag.Int("refresh-every", 0, "full control-column refresh period for program-mode deltas (0 = always full)")
	udpDest := flag.String("udp", "", "also broadcast each cycle once over UDP datagrams to this host:port (unicast, broadcast, or multicast group; empty = off)")
	udpChannel := flag.Uint("udp-channel", 1, "datagram channel id stamped on -udp packets")
	udpMTU := flag.Int("udp-mtu", 0, "datagram payload budget in bytes for -udp (0 = default)")
	udpFECData := flag.Int("udp-fec-data", 0, "data packets per FEC group for -udp (0 = default)")
	udpFECRepair := flag.Int("udp-fec-repair", 0, "repair packets per FEC group for -udp (0 = default, -1 = no repair)")
	shards := flag.Int("shards", 0, "serve a k-shard fleet: each shard broadcasts its slice of the database on its own channel (ports derived from -broadcast/-uplink), with a coordinator uplink for cross-shard commits (0 = unsharded)")
	vnodes := flag.Int("vnodes", 0, "hashring virtual nodes per shard for -shards (0 = default)")
	ringSeed := flag.Int64("ring-seed", 1, "hashring placement seed for -shards (clients must tune with the same seed)")
	coordinatorAddr := flag.String("coordinator", "127.0.0.1:7069", "coordinator uplink listen address for -shards (global object ids)")
	workloadCross := flag.Float64("workload-cross", 0.2, "fraction of -workload transactions scattered across the whole database (with -shards; the rest stay on one shard)")
	obsAddr := flag.String("obs-addr", "", "serve /metrics, /trace and /debug/pprof on this address (empty = off)")
	traceCap := flag.Int("trace-cap", 4096, "cycle-clock trace ring capacity (with -obs-addr)")
	verifySample := flag.Int("verify-sample", 0, "run the control-state integrity check every Nth cycle, timing it into server_verify_ns (0 = off)")
	flag.Parse()

	alg, err := broadcastcc.ParseAlgorithm(*algName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := broadcastcc.ServerConfig{
		Objects:       *objects,
		ObjectBits:    *objectBits,
		TimestampBits: *tsBits,
		Algorithm:     alg,
		Groups:        *groups,
		RegroupEvery:  *regroupEvery,
		Obs:           broadcastcc.NewObsRegistry(),
		VerifySample:  *verifySample,
		// VerifyControl rebuilds from the audit log, so sampling it
		// implies auditing.
		Audit: *verifySample > 0,
	}
	if *shards > 1 {
		if *disks > 0 || *indexM > 0 || *refreshEvery > 0 {
			log.Fatal("bcserver: -shards builds each shard's flat broadcast; air programs (-disks/-index-m/-refresh-every) are unsharded-only")
		}
		if *udpDest != "" {
			log.Fatal("bcserver: -udp is unsharded-only (datagram channels are not yet per-shard)")
		}
		cfg.Obs = nil // the fleet builds per-shard registries
		runFleet(fleetOptions{
			shards:          *shards,
			vnodes:          *vnodes,
			ringSeed:        *ringSeed,
			broadcastAddr:   *broadcastAddr,
			uplinkAddr:      *uplinkAddr,
			coordinatorAddr: *coordinatorAddr,
			base:            cfg,
			sparseGrouped:   *sparseGrouped || *regroupEvery > 0,
			interval:        *interval,
			workload:        *workload,
			workloadLen:     *workloadLen,
			workloadCross:   *workloadCross,
			seed:            *seed,
			obsAddr:         *obsAddr,
		})
		return
	}
	var trace *broadcastcc.ObsTracer
	if *obsAddr != "" {
		trace = broadcastcc.NewObsTracer(*traceCap)
		cfg.Trace = trace
	}
	if *disks > 0 {
		prog, err := broadcastcc.BuildProgram(cfg, broadcastcc.ZipfWeights(*objects, *zipf), *disks, *indexM)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Program = prog
	} else if *indexM > 0 || *refreshEvery > 0 {
		log.Fatal("bcserver: -index-m and -refresh-every require -disks >= 1")
	}
	srv, err := broadcastcc.NewServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	ns, err := netcast.ServeOptions(srv, *broadcastAddr, *uplinkAddr, netcast.Options{
		RefreshEvery: *refreshEvery,
		// A regrouping server must ship BCG1 frames: only they carry
		// the partition and its epoch to the tuners.
		SparseGrouped: *sparseGrouped || *regroupEvery > 0,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ns.Close()
	if *udpDest != "" {
		car, err := broadcastcc.DialUDPCarrier(*udpDest)
		if err != nil {
			log.Fatal(err)
		}
		defer car.Close()
		dcfg := broadcastcc.DatagramConfig{
			Channel:   uint32(*udpChannel),
			MTU:       *udpMTU,
			FECData:   *udpFECData,
			FECRepair: *udpFECRepair,
		}
		sender, err := broadcastcc.NewDatagramSender(car, dcfg, srv.Obs())
		if err != nil {
			log.Fatal(err)
		}
		ns.AttachDatagram(sender)
		c := sender.Config()
		log.Printf("datagram broadcast to %s (channel %d, mtu %d, fec %d+%d)",
			*udpDest, c.Channel, c.MTU, c.FECData, c.FECRepair)
	}
	log.Printf("broadcasting %v on %s (uplink %s): %d objects, cycle = %d bit-units, control overhead %.2f%%",
		alg, ns.BroadcastAddr(), ns.UplinkAddr(), *objects,
		srv.Layout().CycleBits(), 100*srv.Layout().ControlOverhead())
	if p := srv.Program(); p != nil {
		log.Printf("air program: %s, zipf θ=%.2f, refresh every %d", p, *zipf, *refreshEvery)
	}
	if *obsAddr != "" {
		// The netcast layer shares the server's registry, so /metrics
		// covers server_* and netcast_* series in one document.
		ln, err := broadcastcc.ServeObs(*obsAddr, srv.Obs(), trace)
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		log.Printf("observability on http://%s (/metrics, /trace, /debug/pprof/)", ln.Addr())
	}

	stop := make(chan struct{})
	go ns.RunTicker(*interval, stop)

	if *workload > 0 {
		go runWorkload(srv, *workload, *workloadLen, *seed, stop)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stop)
	snap := srv.Obs().Snapshot()
	log.Printf("shutting down: %d cycles, %d commits, %d conflicts, %d uplink requests", snap.Counters["server_cycles"],
		snap.Counters["server_commits"], snap.Counters["server_conflict_aborts"], snap.Counters["server_uplink_requests"])
}

// runWorkload commits synthetic update transactions at the given rate,
// mirroring the simulator's server workload generator.
func runWorkload(srv *broadcastcc.Server, perSecond float64, length int, seed int64, stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(seed))
	ticker := time.NewTicker(time.Duration(float64(time.Second) / perSecond))
	defer ticker.Stop()
	layout := srv.Layout()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		txn := srv.Begin()
		for op := 0; op < length; op++ {
			obj := rng.Intn(layout.Objects)
			if rng.Float64() < 0.5 {
				if _, err := txn.Read(obj); err != nil {
					break
				}
			} else {
				val := []byte(fmt.Sprintf("v%d", i))
				if err := txn.Write(obj, val); err != nil {
					break
				}
			}
		}
		// Conflicts are expected under concurrency; anything else is not.
		if err := txn.Commit(); err != nil && !errors.Is(err, broadcastcc.ErrConflict) {
			log.Printf("workload commit: %v", err)
		}
	}
}
