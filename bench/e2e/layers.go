package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/dgram"
	"broadcastcc/internal/netcast"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/qcache"
	"broadcastcc/internal/server"
	"broadcastcc/internal/sim"
	"broadcastcc/internal/wire"
)

// The replay walks the path one cycle travels, stage by stage, on the
// inputs the workload's generator produces: every stage is a public
// function of one internal package, timed call by call from outside,
// with bytes and mallocs per call taken from MemStats around the loop
// (testing.AllocsPerRun's method). Nothing else runs in the process
// while it does, so the deltas belong to the stage.

// stageStat is one stage's median time per operation and its
// allocation cost per operation.
type stageStat struct {
	ns, bytes, allocs float64
}

func (s stageStat) us() float64 { return s.ns / 1e3 }

// stageMaxCalls bounds one stage loop however fast the call is.
const stageMaxCalls = 20000

// stage calls fn, each call doing per operations, for about budget (at
// least minCalls times) and reports per-operation figures.
func stage(budget time.Duration, minCalls, per int, fn func()) stageStat {
	durs := make([]float64, 0, stageMaxCalls)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := now() + int64(budget)
	for len(durs) < stageMaxCalls && (len(durs) < minCalls || now() < deadline) {
		t0 := now()
		fn()
		durs = append(durs, float64(now()-t0))
	}
	runtime.ReadMemStats(&m1)
	ops := float64(len(durs) * per)
	return stageStat{
		ns:     medianOf(durs) / float64(per),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / ops,
		allocs: float64(m1.Mallocs-m0.Mallocs) / ops,
	}
}

// acc accumulates per-call times and the MemStats deltas of the groups
// of calls they were made in, for stages that mutate server state and
// so cannot be looped on one input.
type acc struct {
	durs          []float64 // preallocated: growing it would be charged to the stage
	calls         int
	bytes, allocs uint64
}

const accCap = 1 << 16

func newAcc() acc { return acc{durs: make([]float64, 0, accCap)} }

// add records one call's time; past accCap calls only the count grows.
func (a *acc) add(ns float64) {
	a.calls++
	if len(a.durs) < cap(a.durs) {
		a.durs = append(a.durs, ns)
	}
}

func (a *acc) alloc(m0, m1 *runtime.MemStats) {
	a.bytes += m1.TotalAlloc - m0.TotalAlloc
	a.allocs += m1.Mallocs - m0.Mallocs
}

func (a *acc) stat() stageStat {
	n := float64(max(a.calls, 1))
	return stageStat{ns: medianOf(a.durs), bytes: float64(a.bytes) / n, allocs: float64(a.allocs) / n}
}

// newControl returns the standalone control state of the workload's
// kind: dense for the matrix layouts, vector, or grouped.
func newControl(sp *spec) cmatrix.Control {
	switch bcast.ControlKindFor(sp.alg) {
	case bcast.ControlGrouped:
		return cmatrix.NewGroupedControl(cmatrix.UniformPartition(sp.objects, sp.groups))
	case bcast.ControlVector:
		return cmatrix.NewVectorControl(sp.objects)
	default:
		return cmatrix.NewDenseControl(sp.objects)
	}
}

// twinStats is what the twin-server pass measures.
type twinStats struct {
	submit, reject, start, apply, snapshot stageStat
	cb                                     *bcast.CycleBroadcast
	req                                    protocol.UpdateRequest
}

// runTwin feeds a server that is not attached to netcast the same
// update stream the live one saw, timing SubmitUpdate and StartCycle,
// and a standalone control of the same kind the same commits, timing
// Apply and Snapshot. Verdicts are checked against the same prediction
// the live driver uses.
func runTwin(sp *spec, seed int64, budget time.Duration, minCycles int) (*twinStats, error) {
	tw, err := server.New(serverConfig(sp))
	if err != nil {
		return nil, err
	}
	defer tw.Close()
	g := newGen(sp, seed)
	sh := newShadow(sp.objects)
	ctl := newControl(sp)
	submit, reject, start, apply, snap := newAcc(), newAcc(), newAcc(), newAcc(), newAcc()
	var m [5]runtime.MemStats
	accepted := make([]int, 0, sp.updates)
	readSet := make([]int, 0, sp.updReads)
	writeSet := make([]int, 0, sp.updWrites)

	cb := tw.StartCycle()
	deadline := now() + int64(budget)
	for n := 0; n < minCycles || (now() < deadline && n < stageMaxCalls); n++ {
		cycle := cb.Number
		g.next(cycle)
		accepted = accepted[:0]
		runtime.ReadMemStats(&m[0])
		for u := range g.reqs {
			req := &g.reqs[u]
			wantReject := sh.predictReject(req)
			t0 := now()
			err := tw.SubmitUpdate(*req)
			dt := float64(now() - t0)
			switch {
			case err == nil:
				submit.add(dt)
				accepted = append(accepted, u)
				for _, w := range req.Writes {
					sh.lastWrite[w.Obj] = cycle
				}
			case errors.Is(err, server.ErrConflict):
				reject.add(dt)
			default:
				return nil, err
			}
			if (err != nil) != wantReject {
				return nil, fmt.Errorf("twin cycle %d update %d: verdict %v, predicted reject=%v", cycle, u, err, wantReject)
			}
		}
		runtime.ReadMemStats(&m[1])
		for _, u := range accepted {
			readSet, writeSet = readSet[:0], writeSet[:0]
			for _, r := range g.reqs[u].Reads {
				readSet = append(readSet, r.Obj)
			}
			for _, w := range g.reqs[u].Writes {
				writeSet = append(writeSet, w.Obj)
			}
			t0 := now()
			ctl.Apply(readSet, writeSet, cycle)
			apply.add(float64(now() - t0))
		}
		runtime.ReadMemStats(&m[2])
		t0 := now()
		view := ctl.Snapshot()
		snap.add(float64(now() - t0))
		runtime.ReadMemStats(&m[3])
		t0 = now()
		cb = tw.StartCycle()
		start.add(float64(now() - t0))
		runtime.ReadMemStats(&m[4])
		if view.N() != sp.objects {
			return nil, fmt.Errorf("control snapshot covers %d objects, want %d", view.N(), sp.objects)
		}
		// One MemStats group covers accepts and rejects alike; charge it
		// to the accepts, which do the allocating.
		submit.alloc(&m[0], &m[1])
		apply.alloc(&m[1], &m[2])
		snap.alloc(&m[2], &m[3])
		start.alloc(&m[3], &m[4])
	}
	return &twinStats{
		submit: submit.stat(), reject: reject.stat(), start: start.stat(),
		apply: apply.stat(), snapshot: snap.stat(), cb: cb, req: g.reqs[0],
	}, nil
}

// stampReader notes when the first bytes of a frame came off the socket.
type stampReader struct {
	r     io.Reader
	first int64
}

func (s *stampReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if s.first == 0 && n > 0 {
		s.first = now()
	}
	return n, err
}

// socketStats is one frame's trip over a loopback TCP connection.
type socketStats struct {
	write, read, transfer float64 // median ns
}

// runSocket sends frame through netcast.WriteFrame → loopback TCP →
// netcast.ReadFrame with the reader draining concurrently, as a tuner
// does: write is the WriteFrame call, read is first byte off the socket
// to frame complete, transfer is WriteFrame start to frame complete.
func runSocket(frame []byte, budget time.Duration, minCalls int) (socketStats, error) {
	var st socketStats
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	defer ln.Close()
	wc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return st, err
	}
	defer wc.Close()
	rc, err := ln.Accept()
	if err != nil {
		return st, err
	}
	defer rc.Close()

	type arrival struct {
		first, done int64
		n           int
		err         error
	}
	// The writer sends the next frame only after taking the previous
	// arrival, so at most one arrival and the final error are ever
	// queued: with room for two the reader never blocks on the channel
	// and always ends when its connection closes.
	arrivals := make(chan arrival, 2)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		sr := &stampReader{r: rc}
		for {
			sr.first = 0
			data, err := netcast.ReadFrame(sr)
			arrivals <- arrival{first: sr.first, done: now(), n: len(data), err: err}
			if err != nil {
				return
			}
		}
	}()
	defer func() {
		wc.Close()
		rc.Close()
		<-readerDone
	}()
	var writes, reads, transfers []float64
	deadline := now() + int64(budget)
	for len(writes) < stageMaxCalls && (len(writes) < minCalls || now() < deadline) {
		t0 := now()
		if err := netcast.WriteFrame(wc, frame); err != nil {
			return st, err
		}
		t1 := now()
		a := <-arrivals
		if a.err != nil || a.n != len(frame) {
			return st, fmt.Errorf("socket replay: read %d of %d bytes: %v", a.n, len(frame), a.err)
		}
		writes = append(writes, float64(t1-t0))
		reads = append(reads, float64(a.done-a.first))
		transfers = append(transfers, float64(a.done-t0))
	}
	return socketStats{write: medianOf(writes), read: medianOf(reads), transfer: medianOf(transfers)}, nil
}

// probeUplink measures the TCP uplink round trip for a workload whose
// live pass submits in-process: a second server behind netcast, the same
// update stream, one connection.
func probeUplink(sp *spec, seed int64, budget time.Duration, minCalls int) (rttUs, p50 float64, err error) {
	srv, err := server.New(serverConfig(sp))
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	ns, err := netcast.Serve(srv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer ns.Close()
	up, err := netcast.DialUplink(ns.UplinkAddr())
	if err != nil {
		return 0, 0, err
	}
	defer up.Close()
	g := newGen(sp, seed)
	var durs []float64
	deadline := now() + int64(budget)
	for len(durs) < stageMaxCalls && (len(durs) < minCalls || now() < deadline) {
		if _, err := ns.Step(); err != nil {
			return 0, 0, err
		}
		g.next(srv.CurrentCycle())
		for _, req := range g.reqs {
			t0 := now()
			err := up.SubmitUpdate(req)
			durs = append(durs, float64(now()-t0))
			if err != nil && !isReject(err) {
				return 0, 0, err
			}
		}
	}
	return medianOf(durs) / 1e3, histogramP50(ns), nil
}

// histogramP50 reads the median bucket's upper bound out of the
// program's own netcast_uplink_ns histogram — a cross-check on the
// harness's round-trip figure, from the other end of the socket.
func histogramP50(ns *netcast.Server) float64 {
	h, ok := ns.Obs().Snapshot().Histograms["netcast_uplink_ns"]
	if !ok {
		return 0
	}
	_, hi := h.Quantile(0.5)
	return float64(hi)
}

// table1Cycles returns two consecutive cycles of the paper's Table 1
// database with one cycle's worth of commits between them — the fixed
// input of the delta and datagram stages, whatever the workload.
func table1Cycles(seed int64) (prev, cur *bcast.CycleBroadcast, err error) {
	sp := specByName("air-table1")
	srv, err := server.New(serverConfig(sp))
	if err != nil {
		return nil, nil, err
	}
	defer srv.Close()
	g := newGen(sp, seed)
	prev = srv.StartCycle()
	g.next(prev.Number)
	for _, req := range g.reqs {
		if err := srv.SubmitUpdate(req); err != nil && !errors.Is(err, server.ErrConflict) {
			return nil, nil, err
		}
	}
	return prev, srv.StartCycle(), nil
}

// datagramStats is one Table 1 frame's trip through the connectionless
// datapath over a lossless simulated carrier.
type datagramStats struct {
	send              stageStat
	reassembleNs, pkt float64
}

func runDatagram(frame []byte, budget time.Duration, minCalls int) (datagramStats, error) {
	var st datagramStats
	car := dgram.NewSimCarrier()
	defer car.Close()
	tap := car.Tap(0, nil, 0)
	sender, err := dgram.NewSender(car, dgram.Config{}, nil)
	if err != nil {
		return st, err
	}
	reasm, err := dgram.NewReassembler(dgram.Config{}, nil)
	if err != nil {
		return st, err
	}
	send := newAcc()
	var reassemble []float64
	var m0, m1 runtime.MemStats
	var pkts [][]byte
	deadline := now() + int64(budget)
	for n := 0; n < minCalls || (now() < deadline && n < stageMaxCalls); n++ {
		runtime.ReadMemStats(&m0)
		t0 := now()
		if err := sender.SendCycle(int64(n+1), [][]byte{frame}); err != nil {
			return st, err
		}
		send.add(float64(now() - t0))
		runtime.ReadMemStats(&m1)
		send.alloc(&m0, &m1)
		pkts = pkts[:0]
		for {
			p, ok := tap.TryRecv()
			if !ok {
				break
			}
			pkts = append(pkts, p)
		}
		st.pkt = float64(len(pkts))
		t0 = now()
		var got []dgram.Frame
		for _, p := range pkts {
			got = append(got, reasm.Ingest(p)...)
		}
		got = append(got, reasm.Flush()...)
		reassemble = append(reassemble, float64(now()-t0))
		if len(got) != 1 || !bytes.Equal(got[0].Data, frame) {
			return st, fmt.Errorf("datagram replay: %d frames reassembled from %d packets, want the one sent", len(got), len(pkts))
		}
	}
	st.send = send.stat()
	st.reassembleNs = medianOf(reassemble)
	return st, nil
}

// qcacheStats is the persistent tier on the workload's record shape.
type qcacheStats struct {
	put                      stageStat
	getNs, compactMs, openMs float64
	logBytesPerLiveByte      float64
}

// runQcache writes a fixed number of records (so the log's size, and
// with it bytes-per-live-byte, repeats exactly), then times lookups,
// compaction and a recovering open.
func runQcache(sp *spec, dir string, quick bool) (qcacheStats, error) {
	var st qcacheStats
	live := sp.objects
	if sp.cacheSize > 0 {
		live = sp.cacheSize
	}
	puts, reps := min(max(4*live, 256), 4096), 3
	if quick {
		puts, reps = live, 1
	}
	store, err := qcache.Open(dir)
	if err != nil {
		return st, err
	}
	defer func() { store.Close() }()
	value := make([]byte, sp.objBytes)
	col := make([]cmatrix.Cycle, sp.objects)
	for i := range col {
		col[i] = cmatrix.Cycle(i)
	}
	put := newAcc()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < puts; i++ {
		obj := i % live
		stamp(value, obj, uint64(i))
		t0 := now()
		err := store.Put(obj, value, cmatrix.Cycle(i+1), col)
		put.add(float64(now() - t0))
		if err != nil {
			return st, err
		}
	}
	runtime.ReadMemStats(&m1)
	put.alloc(&m0, &m1)
	st.put = put.stat()

	get := stage(0, 50, 100, func() {
		for i := 0; i < 100; i++ {
			if e, ok := store.Get(i % live); !ok || len(e.Value) != sp.objBytes {
				err = fmt.Errorf("qcache replay: object %d missing from the store", i%live)
			}
		}
	})
	if err != nil {
		return st, err
	}
	st.getNs = get.ns

	var logBytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return st, err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			logBytes += info.Size()
		}
	}
	st.logBytesPerLiveByte = float64(logBytes) / float64(live*(sp.objBytes+8*sp.objects))

	var compacts, opens []float64
	for r := 0; r < reps; r++ {
		t0 := now()
		if err := store.Compact(); err != nil {
			return st, err
		}
		compacts = append(compacts, float64(now()-t0)/1e6)
	}
	st.compactMs = medianOf(compacts)
	for r := 0; r < reps; r++ {
		if err := store.Close(); err != nil {
			return st, err
		}
		t0 := now()
		if store, err = qcache.Open(dir); err != nil {
			return st, err
		}
		opens = append(opens, float64(now()-t0)/1e6)
		if store.Len() != live {
			return st, fmt.Errorf("qcache replay: %d records recovered, want %d", store.Len(), live)
		}
	}
	st.openMs = medianOf(opens)
	return st, nil
}

// runSim times the two simulator entry points the ledger tracks: the
// paper's Table 1 single-client run and the event-wheel engine.
func runSim(seed int64, quick bool) (table1Ms, wheelEventsPerS float64, err error) {
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	cfg.ClientTxns, cfg.MeasureFrom = 120, 20
	wheel := sim.DefaultConfig()
	wheel.Seed = seed
	wheel.Objects, wheel.Clients, wheel.ClientTxns, wheel.MeasureFrom, wheel.CompactRNG = 1000, 10000, 3, 1, true
	reps := 3
	if quick {
		cfg.ClientTxns, cfg.MeasureFrom = 20, 5
		wheel.Clients = 200
		reps = 1
	}
	var runs, rates []float64
	for r := 0; r < reps; r++ {
		t0 := now()
		if _, err := sim.Run(cfg); err != nil {
			return 0, 0, err
		}
		runs = append(runs, float64(now()-t0)/1e6)
		t0 = now()
		if _, err := sim.Run(wheel); err != nil {
			return 0, 0, err
		}
		// An event is one client read completion or uplink arrival.
		events := float64(wheel.Clients * wheel.ClientTxns * (wheel.ClientTxnLength + 1))
		rates = append(rates, events/(float64(now()-t0)/1e9))
	}
	return medianOf(runs), medianOf(rates), nil
}

// replay measures every per-layer metric that does not come from the
// live spans and adds them to res.
func replay(o runOpts, live liveInfo, res *runResult) error {
	sp := o.sp
	// The replay's share of a traced run's seconds, spread over its
	// time-boxed stages (about 24 budgets' worth).
	budget := time.Duration(o.seconds * (1 - liveShare) / 24 * float64(time.Second))
	minCalls, minCycles := 5, 3
	if o.quick {
		budget, minCalls, minCycles = 0, 2, 2
	}
	set := func(name string, v float64) { res.set(perLayer, name, v) }

	tw, err := runTwin(sp, o.seed, 4*budget, minCycles)
	if err != nil {
		return err
	}
	set("server.submit_update_us", tw.submit.us())
	set("server.submit_update_B", tw.submit.bytes)
	set("server.submit_update_allocs", tw.submit.allocs)
	set("server.reject_us", tw.reject.us())
	set("server.start_cycle_us", tw.start.us())
	set("server.start_cycle_B", tw.start.bytes)
	set("server.start_cycle_allocs", tw.start.allocs)
	set("cmatrix.apply_us", tw.apply.us())
	set("cmatrix.apply_B", tw.apply.bytes)
	set("cmatrix.apply_allocs", tw.apply.allocs)
	set("cmatrix.snapshot_us", tw.snapshot.us())
	set("cmatrix.snapshot_B", tw.snapshot.bytes)
	set("cmatrix.snapshot_allocs", tw.snapshot.allocs)

	// wire: the workload's own cycle through the encoder Step uses for it.
	cb := tw.cb
	frame, err := wire.EncodeCycle(cb)
	if err != nil {
		return err
	}
	enc := stage(budget, minCalls, 1, func() { _, err = wire.EncodeCycle(cb) })
	if err != nil {
		return err
	}
	var decoded *bcast.CycleBroadcast
	dec := stage(budget, minCalls, 1, func() { decoded, err = wire.DecodeCycle(frame) })
	if err != nil {
		return err
	}
	set("wire.encode_cycle_us", enc.us())
	set("wire.encode_cycle_B", enc.bytes)
	set("wire.encode_cycle_allocs", enc.allocs)
	set("wire.encode_cycle_MBps", float64(len(frame))/(enc.ns/1e9)/1e6)
	set("wire.decode_cycle_us", dec.us())
	set("wire.decode_cycle_B", dec.bytes)
	set("wire.decode_cycle_allocs", dec.allocs)

	reqFrame := wire.EncodeUpdateRequest(tw.req)
	encU := stage(budget/2, minCalls, 100, func() {
		for i := 0; i < 100; i++ {
			reqFrame = wire.EncodeUpdateRequest(tw.req)
		}
	})
	decU := stage(budget/2, minCalls, 100, func() {
		for i := 0; i < 100; i++ {
			_, err = wire.DecodeUpdateRequest(reqFrame)
		}
	})
	if err != nil {
		return err
	}
	set("wire.encode_update_us", encU.us())
	set("wire.decode_update_us", decU.us())
	rec := wire.CacheRecord{Kind: wire.CachePut, Obj: 1, Cycle: cb.Number, Value: cb.Values[1], Col: make([]cmatrix.Cycle, sp.objects)}
	var recBytes []byte
	encR := stage(budget/2, minCalls, 100, func() {
		for i := 0; i < 100; i++ {
			recBytes = wire.EncodeCacheRecord(rec)
		}
	})
	if _, err := wire.DecodeCacheRecord(recBytes); err != nil {
		return err
	}
	set("wire.encode_cache_record_us", encR.us())

	// netcast: the frame over a real loopback socket, then the tuner's decoder.
	sock, err := runSocket(frame, budget, minCalls)
	if err != nil {
		return err
	}
	framed := make([]byte, 0, len(frame)+4)
	var hdr bytes.Buffer
	if err := netcast.WriteFrame(&hdr, frame); err != nil {
		return err
	}
	framed = append(framed, hdr.Bytes()...)
	rd := bytes.NewReader(framed)
	readMem := stage(budget/2, minCalls, 1, func() {
		rd.Reset(framed)
		_, err = netcast.ReadFrame(rd)
	})
	if err != nil {
		return err
	}
	fd := netcast.NewFrameDecoder()
	fdec := stage(budget, minCalls, 1, func() { decoded, err = fd.Decode(frame) })
	if err != nil || decoded == nil || decoded.Number != cb.Number {
		return fmt.Errorf("frame decoder returned %v, %v", decoded, err)
	}
	set("netcast.write_frame_us", sock.write/1e3)
	set("netcast.read_frame_us", sock.read/1e3)
	set("netcast.read_frame_B", readMem.bytes)
	set("netcast.read_frame_allocs", readMem.allocs)
	set("netcast.frame_transfer_us", sock.transfer/1e3)
	set("netcast.frame_decode_us", fdec.us())
	fanout := live.stepUs - tw.start.us() - enc.us()
	set("netcast.fanout_self_us", fanout)
	set("netcast.fanout_us_per_sub", fanout/float64(sp.tuners))

	rtt, p50 := live.uplinkRTTUs, live.uplinkP50
	if !sp.tcpUplink {
		if rtt, p50, err = probeUplink(sp, o.seed, budget, minCalls); err != nil {
			return err
		}
	}
	set("netcast.uplink_rtt_us", rtt)
	set("netcast.uplink_overhead_us", rtt-tw.submit.us())
	set("netcast.uplink_ns_p50", p50)

	// bcast: Medium.Publish to the subscriber's receive.
	medium := bcast.NewMedium()
	sub := medium.Subscribe(1)
	pub := stage(budget/2, minCalls, 1, func() {
		medium.Publish(decoded)
		<-sub.C
	})
	medium.Close()
	set("bcast.publish_us", pub.us())

	// protocol: the read-condition on the decoded cycle, with the
	// validator and the snapshots the workload's client uses.
	snaps := make([]protocol.Snapshot, sp.txnReads)
	for k := range snaps {
		if sp.cacheCurrency > 0 && decoded.Matrix != nil {
			snaps[k] = decoded.Column(k % sp.objects)
		} else {
			snaps[k] = decoded.Snapshot()
		}
	}
	var val protocol.Validator = &protocol.SnapshotValidator{}
	if sp.cacheCurrency == 0 {
		val = protocol.NewValidator(sp.alg)
	}
	refused := false
	try := stage(budget/2, minCalls, sp.txnReads, func() {
		val.Reset()
		for k, snap := range snaps {
			if !val.TryRead(snap, k%sp.objects, decoded.Number) {
				refused = true
			}
		}
	})
	if refused {
		return errors.New("read-condition refused a single-cycle transaction")
	}
	set("protocol.try_read_ns", try.ns)
	set("protocol.try_read_allocs", try.allocs)

	qc, err := runQcache(sp, filepath.Join(o.outDir, fmt.Sprintf("tmp-%d", os.Getpid()), "qc-replay"), o.quick)
	if err != nil {
		return err
	}
	set("qcache.put_us", qc.put.us())
	set("qcache.put_B", qc.put.bytes)
	set("qcache.put_allocs", qc.put.allocs)
	set("qcache.get_us", qc.getNs/1e3)
	set("qcache.compact_ms", qc.compactMs)
	set("qcache.open_ms", qc.openMs)
	set("qcache.log_bytes_per_live_byte", qc.logBytesPerLiveByte)

	// Ledger-only layers, always on Table 1 inputs.
	prev, cur, err := table1Cycles(o.seed)
	if err != nil {
		return err
	}
	var delta []byte
	encD := stage(budget, minCalls, 1, func() { delta, err = wire.EncodeCycleDelta(prev, cur) })
	if err != nil {
		return err
	}
	decD := stage(budget, minCalls, 1, func() { _, err = wire.DecodeCycleDelta(delta, prev) })
	if err != nil {
		return err
	}
	set("wire.encode_delta_us", encD.us())
	set("wire.decode_delta_us", decD.us())
	t1frame, err := wire.EncodeCycle(cur)
	if err != nil {
		return err
	}
	dg, err := runDatagram(t1frame, budget, minCalls)
	if err != nil {
		return err
	}
	set("dgram.send_cycle_us", dg.send.us())
	set("dgram.send_cycle_allocs", dg.send.allocs)
	set("dgram.packets_per_cycle", dg.pkt)
	set("dgram.reassemble_us", dg.reassembleNs/1e3)
	simMs, wheelRate, err := runSim(o.seed, o.quick)
	if err != nil {
		return err
	}
	set("sim.table1_run_ms", simMs)
	set("sim.wheel_events_per_s", wheelRate)

	// The ledger: what the stage medians add up to along the blocking
	// path of one cycle, as a share of the cycle the live pass measured.
	commitUs := tw.submit.us()
	if sp.tcpUplink {
		commitUs = rtt
	}
	readsPerCycle := float64(sp.tuners * sp.readTxns * sp.txnReads / sp.txnSpan)
	sum := float64(sp.updates)*commitUs + tw.start.us() + enc.us() +
		float64(sp.tuners-1)*sock.write/1e3 + sock.transfer/1e3 + fdec.us() + pub.us() +
		readsPerCycle*try.ns/1e3
	if sp.store {
		sum += live.missesPerCycle * qc.put.us()
	}
	set("harness.ledger_coverage", sum/(live.cycleMs*1e3))
	return nil
}
