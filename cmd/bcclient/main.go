// Command bcclient tunes in to a bcserver broadcast and runs read-only
// transactions off the air, printing values and consistency statistics.
// With -write it instead runs update transactions over the uplink.
//
//	bcclient -broadcast 127.0.0.1:7070 -read 0,1,2
//	bcclient -broadcast 127.0.0.1:7070 -uplink 127.0.0.1:7071 -write 3=hello
//
// With -loss/-doze the client listens through a simulated lossy air
// (seeded by -fault-seed): each cycle is lost or dozed through, or
// delivered whole. The client recovers from the induced reception gaps
// and prints a faults: line (frames delivered, dozed and dropped — the
// faultair_frames_* counters -obs-addr also serves):
//
//	bcclient -broadcast 127.0.0.1:7070 -read 0,1 -txns 20 -loss 0.2 -fault-seed 7
//
// Against a program-mode server (bcserver -disks ... -index-m ...),
// -selective tunes via the (1,m) air index — dozing between exactly the
// frames the transaction needs — and reports tuning time (frames
// listened) separately from the values read:
//
//	bcclient -broadcast 127.0.0.1:7070 -read 0,5 -txns 10 -selective
//
// With -udp the client receives the broadcast over connectionless UDP
// datagrams instead of TCP — bind the address the server's -udp flag
// transmits to (joining the group when it is multicast). Updates still
// travel up the TCP uplink; -loss/-doze compose with the datagram
// tuner unchanged:
//
//	bcclient -udp 127.0.0.1:7072 -read 0,1,2
//	bcclient -udp 239.1.2.3:7072 -read 0,1 -txns 20 -loss 0.2
//
// With -cache-currency T reads may be served from the client's
// weak-currency cache (items at most T cycles old). -cache-dir makes
// that cache a persistent tier: the inventory survives restarts (and
// kill -9 — torn tails are discarded on recovery) and is revalidated
// against the live control information before serving, so a restarted
// client gets warm hits without re-listening to data frames:
//
//	bcclient -read 0,1 -txns 20 -cache-currency 4 -cache-dir /tmp/qc
//
// Against a sharded fleet (bcserver -shards k), -shards tunes all k
// broadcast channels at once and runs transactions over global object
// ids: reads validate per shard plus the cross-shard alignment check,
// writes commit through the fleet's coordinator uplink. The mapping
// flags (-ring-seed, -vnodes, -objects) must match the server's:
//
//	bcclient -shards 4 -objects 4096 -ring-seed 7 -read 0,1000,3000
//	bcclient -shards 4 -objects 4096 -write 0=a,3000=b
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"broadcastcc"
)

func main() {
	broadcastAddr := flag.String("broadcast", "127.0.0.1:7070", "server broadcast address")
	uplinkAddr := flag.String("uplink", "127.0.0.1:7071", "server uplink address (for -write)")
	algName := flag.String("alg", "f-matrix", "algorithm (must match the server)")
	readList := flag.String("read", "", "comma-separated object ids to read in one transaction")
	writeSpec := flag.String("write", "", "obj=value[,obj=value...] to write in one update transaction")
	txns := flag.Int("txns", 1, "how many transactions to run")
	cacheT := flag.Int64("cache-currency", 0, "client cache currency bound in cycles (0 = off)")
	cacheDir := flag.String("cache-dir", "", "persist the cache in this directory: the inventory survives restarts and is revalidated off the air before serving (requires -cache-currency > 0)")
	loss := flag.Float64("loss", 0, "inject per-cycle frame loss with this probability [0,1]")
	doze := flag.Float64("doze", 0, "per-cycle probability a doze window starts [0,1]")
	dozeLen := flag.Int("doze-len", 0, "doze window length in cycles (default 1 when -doze > 0)")
	faultSeed := flag.Int64("fault-seed", 0, "fault schedule seed (same seed = identical drop/doze trace)")
	selective := flag.Bool("selective", false, "tune selectively via the (1,m) air index (requires a program-mode server; read-only)")
	shards := flag.Int("shards", 0, "tune a bcserver -shards fleet: all k broadcast channels (ports derived from -broadcast), transactions over global object ids (0 = unsharded)")
	vnodes := flag.Int("vnodes", 0, "hashring virtual nodes per shard (must match the server)")
	ringSeed := flag.Int64("ring-seed", 1, "hashring placement seed (must match the server)")
	objects := flag.Int("objects", 64, "database size n for the shard mapping (with -shards; must match the server)")
	coordinatorAddr := flag.String("coordinator", "127.0.0.1:7069", "fleet coordinator uplink for -shards writes (global object ids)")
	obsAddr := flag.String("obs-addr", "", "serve client /metrics, /trace and /debug/pprof on this address (empty = off)")
	udpAddr := flag.String("udp", "", "receive the broadcast over UDP datagrams bound to this host:port instead of TCP (the server's -udp destination; empty = TCP)")
	udpChannel := flag.Uint("udp-channel", 1, "datagram channel id to accept (must match the server)")
	udpMTU := flag.Int("udp-mtu", 0, "datagram payload budget in bytes (0 = default; must match the server)")
	udpFECData := flag.Int("udp-fec-data", 0, "data packets per FEC group (0 = default; must match the server)")
	udpFECRepair := flag.Int("udp-fec-repair", 0, "repair packets per FEC group (0 = default, -1 = none; must match the server)")
	flag.Parse()

	alg, err := broadcastcc.ParseAlgorithm(*algName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *readList == "" && *writeSpec == "" {
		fmt.Fprintln(os.Stderr, "nothing to do: pass -read and/or -write")
		os.Exit(2)
	}
	if *cacheDir != "" && *cacheT <= 0 {
		fmt.Fprintln(os.Stderr, "-cache-dir persists the weak-currency cache; give it a bound with -cache-currency > 0")
		os.Exit(2)
	}
	if *shards > 1 {
		if *selective || *udpAddr != "" || *loss > 0 || *doze > 0 || *cacheT > 0 {
			fmt.Fprintln(os.Stderr, "-shards composes with plain TCP tuning only (no -selective/-udp/-loss/-doze/-cache-currency)")
			os.Exit(2)
		}
		reads, err := parseReads(*readList)
		if err != nil {
			log.Fatal(err)
		}
		writes, err := parseWrites(*writeSpec)
		if err != nil {
			log.Fatal(err)
		}
		runFleetClient(alg, *broadcastAddr, *coordinatorAddr,
			*shards, *vnodes, *objects, *ringSeed, reads, writes, *txns)
		return
	}
	if *selective {
		if *writeSpec != "" || *loss > 0 || *doze > 0 {
			fmt.Fprintln(os.Stderr, "-selective supports read-only transactions over a clean air (no -write/-loss/-doze)")
			os.Exit(2)
		}
		if *udpAddr != "" {
			fmt.Fprintln(os.Stderr, "-selective needs the TCP frame stream; it does not compose with -udp")
			os.Exit(2)
		}
		reads, err := parseReads(*readList)
		if err != nil {
			log.Fatal(err)
		}
		runSelective(*broadcastAddr, reads, *txns)
		return
	}

	// One registry, created up front, so the datagram tuner's reception
	// counters (dgram_packets_rx, dgram_frames_repaired, ...) and the
	// lossy air's (faultair_frames_dropped, ...) land on the same
	// /metrics document as the client's.
	reg := broadcastcc.NewObsRegistry()

	// The broadcast source: a TCP tuner by default, or the datagram
	// tuner (ingress filter + FEC reassembly) with -udp. Both publish
	// decoded cycles through the same Subscription interface, so
	// everything downstream — the lossy air, the client — is
	// transport-blind.
	var tuner interface {
		Subscribe(buffer int) *broadcastcc.Subscription
		Close() error
	}
	if *udpAddr != "" {
		src, err := broadcastcc.ListenUDPSource(*udpAddr)
		if err != nil {
			log.Fatal(err)
		}
		dcfg := broadcastcc.DatagramConfig{
			Channel:   uint32(*udpChannel),
			MTU:       *udpMTU,
			FECData:   *udpFECData,
			FECRepair: *udpFECRepair,
		}
		dt, err := broadcastcc.TuneDatagram(src, dcfg, reg)
		if err != nil {
			src.Close()
			log.Fatal(err)
		}
		tuner = dt
	} else {
		tcp, err := broadcastcc.Tune(*broadcastAddr)
		if err != nil {
			log.Fatal(err)
		}
		tuner = tcp
	}
	defer tuner.Close()

	// With faults configured, interpose the lossy air between the tuner
	// and the client. After a gap the next cycle heard is all it needs:
	// each read is judged by its own cycle's control (R-Matrix included).
	profile := broadcastcc.FaultProfile{Loss: *loss, Doze: *doze, DozeLen: *dozeLen, Seed: *faultSeed}
	if err := profile.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	faulty := !profile.Zero()
	var sub *broadcastcc.Subscription
	if faulty {
		lossy := broadcastcc.ListenLossy(tuner, broadcastcc.NewFaultSchedule(profile), 0, 64, reg)
		defer lossy.Close()
		sub = lossy.Subscribe(64)
	} else {
		sub = tuner.Subscribe(64)
	}
	ccfg := broadcastcc.ClientConfig{
		Algorithm:     alg,
		CacheCurrency: broadcastcc.Cycle(*cacheT),
		Obs:           reg,
	}
	// The persistent cache tier: recovered inventory seeds the cache and
	// is revalidated against the first cycle heard off the air, so a
	// restarted client serves warm hits without re-listening to the data
	// frames it already holds.
	var store *broadcastcc.CacheStore
	if *cacheDir != "" {
		store, err = broadcastcc.OpenCacheStore(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		defer store.Close()
		ccfg.Store = store
		log.Printf("cache store %s: %d entries recovered, pending revalidation", *cacheDir, store.Len())
	}
	if *obsAddr != "" {
		ccfg.Trace = broadcastcc.NewObsTracer(4096)
		ln, err := broadcastcc.ServeObs(*obsAddr, ccfg.Obs, ccfg.Trace)
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		log.Printf("observability on http://%s (/metrics, /trace, /debug/pprof/)", ln.Addr())
	}
	cli := broadcastcc.NewClient(ccfg, sub)

	var uplink *broadcastcc.NetUplink
	if *writeSpec != "" {
		uplink, err = broadcastcc.DialUplink(*uplinkAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer uplink.Close()
	}

	reads, err := parseReads(*readList)
	if err != nil {
		log.Fatal(err)
	}
	writes, err := parseWrites(*writeSpec)
	if err != nil {
		log.Fatal(err)
	}

	aborts := 0
	for done := 0; done < *txns; {
		if _, ok := cli.AwaitCycle(); !ok {
			log.Fatal("broadcast stream closed")
		}
		if len(writes) == 0 {
			txn := cli.BeginReadOnly()
			vals, err := readAll(txn, reads)
			if errors.Is(err, broadcastcc.ErrInconsistentRead) {
				aborts++
				continue
			}
			if err != nil {
				log.Fatal(err)
			}
			rs, err := txn.Commit()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("txn %d (cycle %d):", done+1, cli.Current().Number)
			for i, obj := range reads {
				fmt.Printf(" obj%d=%q", obj, strings.TrimRight(string(vals[i]), "\x00"))
			}
			fmt.Printf("  [read-set %v]\n", rs)
		} else {
			txn := cli.BeginUpdate()
			if _, err := readAll(txn, reads); errors.Is(err, broadcastcc.ErrInconsistentRead) {
				aborts++
				continue
			} else if err != nil {
				log.Fatal(err)
			}
			for obj, val := range writes {
				if err := txn.Write(obj, []byte(val)); err != nil {
					log.Fatal(err)
				}
			}
			if err := txn.Commit(uplink); err != nil {
				fmt.Printf("txn %d: rejected: %v\n", done+1, err)
				aborts++
				done++
				continue
			}
			fmt.Printf("txn %d: committed %d write(s) via uplink\n", done+1, len(writes))
		}
		done++
	}
	st := cli.Stats()
	fmt.Printf("stats: %d validated reads, %d cache hits, %d aborts (%d observed here)\n",
		st.Reads, st.CacheHits, st.ReadAborts, aborts)
	snap := reg.Snapshot()
	if store != nil {
		fmt.Printf("cache store: %d revalidated, %d dropped on revalidation, %d entries persisted\n",
			snap.Counters["client_cache_revalidated"], snap.Counters["client_cache_dropped"], store.Len())
	}
	if faulty {
		fmt.Printf("faults: %d delivered, %d dozed, %d dropped; %d cycle gaps (%d cycles missed)\n",
			snap.Counters["faultair_frames_delivered"], snap.Counters["faultair_frames_dozed"],
			snap.Counters["faultair_frames_dropped"], st.Gaps, st.CyclesMissed)
	}
}

// runSelective reads via the (1,m) air index: probe, doze to the index,
// doze to each object's frame, decoding only what the transaction
// needs. Every bucket carries the object's control column, so reads are
// validated with the snapshot (F-Matrix) read-condition even though the
// client never sees a whole cycle.
func runSelective(addr string, reads []int, txns int) {
	st, err := broadcastcc.TuneSelective(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	aborts := 0
	for done := 0; done < txns; {
		v := &broadcastcc.SnapshotValidator{}
		vals := make([][]byte, 0, len(reads))
		cycles := make([]broadcastcc.Cycle, 0, len(reads))
		ok := true
		for _, obj := range reads {
			b, err := st.ReadObject(obj)
			if err != nil {
				log.Fatal(err)
			}
			if len(b.Column) != b.Layout.Objects {
				log.Fatal("selective validation needs the F-Matrix layout (per-object control columns)")
			}
			if !v.TryRead(broadcastcc.ColumnSnapshot{Obj: obj, Col: b.Column}, obj, b.Number) {
				ok = false
				break
			}
			vals = append(vals, b.Value)
			cycles = append(cycles, b.Number)
		}
		if !ok {
			aborts++
			continue
		}
		fmt.Printf("txn %d:", done+1)
		for i, obj := range reads {
			fmt.Printf(" obj%d=%q@%d", obj, strings.TrimRight(string(vals[i]), "\x00"), cycles[i])
		}
		fmt.Printf("  [read-set %v]\n", v.ReadSet())
		done++
	}
	s := st.Stats()
	fmt.Printf("stats: %d txns, %d aborts\n", txns, aborts)
	fmt.Printf("tuning: %d frames listened, %d dozed, %d index misses (%.1f%% awake)\n",
		s.FramesListened, s.FramesDozed, s.IndexMisses,
		100*float64(s.FramesListened)/float64(max(s.FramesListened+s.FramesDozed, 1)))
}

func parseReads(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -read entry %q: %v", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseWrites(s string) (map[int]string, error) {
	out := map[int]string{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		obj, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad -write entry %q: want obj=value", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(obj))
		if err != nil {
			return nil, fmt.Errorf("bad -write object %q: %v", obj, err)
		}
		out[n] = val
	}
	return out, nil
}

// reader is satisfied by both transaction kinds.
type reader interface {
	Read(obj int) ([]byte, error)
}

func readAll(txn reader, objs []int) ([][]byte, error) {
	vals := make([][]byte, 0, len(objs))
	for _, obj := range objs {
		v, err := txn.Read(obj)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}
