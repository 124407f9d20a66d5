// Differential conformance: the connectionless datapath must be
// invisible. A TCP tuner and a datagram tuner attached to the same
// server decode byte-identical cycle streams — across every wire mode
// (classic full, sparse grouped, broadcast program with and without
// per-column deltas), a thousand generator-seeded workloads, and every
// pinned conformance counterexample.
//
// This lives in package netcast_test (not netcast) so it can import
// internal/conformance, which sits above netcast via faultair.
package netcast_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"broadcastcc/internal/airsched"
	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/conformance"
	"broadcastcc/internal/dgram"
	"broadcastcc/internal/netcast"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
	"broadcastcc/internal/wire"
)

// diffModes names the wire-mode rotation.
const (
	modeFull = iota
	modeDelta
	modeGrouped
	modeProgram
	diffModeCount
)

// diffCycleCap bounds the per-workload run length so a thousand seeds
// stay fast; the generator's own cycle counts (4..15) mostly fit.
const diffCycleCap = 10

// runDifferential replays a workload's commit schedule through one
// server broadcasting over both transports at once and asserts the two
// decoded cycle streams are byte-identical under canonical re-encoding
// (and deeply equal as structures).
func runDifferential(t *testing.T, w *conformance.Workload, mode int) {
	t.Helper()
	n := w.Objects
	cycles := int(w.Cycles)
	if cycles > diffCycleCap {
		cycles = diffCycleCap
	}

	cfg := server.Config{Objects: n, ObjectBits: 64}
	var opts netcast.Options
	switch mode {
	case modeFull:
		cfg.Algorithm = protocol.FMatrix
	case modeGrouped:
		cfg.Algorithm = protocol.Grouped
		cfg.Groups = w.GroupsOrDefault()
		cfg.RegroupEvery = w.RegroupEvery
		if cfg.RegroupEvery == 0 {
			cfg.RegroupEvery = 3 // exercise partition movement by default
		}
		opts.SparseGrouped = true
	case modeDelta, modeProgram:
		// modeDelta is the flat program (one disk, no index) with
		// per-column bucket deltas; modeProgram a multi-disk, indexed
		// program sending every column in full.
		cfg.Algorithm = protocol.FMatrix
		layout := bcast.LayoutFor(protocol.FMatrix, n, 64, 8, 0)
		disks, indexM := 1, 0
		if mode == modeDelta {
			opts.RefreshEvery = 3
		} else {
			indexM = min(2, n)
			if n >= 4 {
				disks = 2
			}
		}
		prog, err := airsched.Build(layout, airsched.ZipfWeights(n, 0.9), disks, indexM)
		if err != nil {
			t.Fatalf("airsched.Build(n=%d): %v", n, err)
		}
		cfg.Program = prog
	}
	bsrv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bsrv.Close()
	ns, err := netcast.ServeOptions(bsrv, "127.0.0.1:0", "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	// Transport 1: the TCP conformance reference.
	tuner, err := netcast.Tune(ns.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()
	tcpSub := tuner.Subscribe(cycles + 8)

	// Transport 2: the connectionless datapath over a perfect
	// UDP-loopback medium.
	car := dgram.NewSimCarrier()
	defer car.Close()
	dcfg := dgram.Config{Channel: uint32(mode + 1)}
	sender, err := dgram.NewSender(car, dcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ns.AttachDatagram(sender)
	tap := car.Tap(0, nil, 1<<14)
	dt, err := netcast.TuneDatagram(tap, dcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	udpSub := dt.Subscribe(cycles + 8)

	deadline := time.Now().Add(20 * time.Second)
	for ns.Subscribers() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("TCP subscriber never connected")
		}
		time.Sleep(time.Millisecond)
	}

	// Replay the workload's background commits at their planned cycles.
	for c := cmatrix.Cycle(1); int(c) <= cycles; c++ {
		for _, pc := range w.Commits {
			if pc.At != c {
				continue
			}
			txn := bsrv.Begin()
			for _, o := range pc.ReadSet {
				txn.Read(o)
			}
			ok := true
			for _, o := range pc.WriteSet {
				if err := txn.Write(o, []byte{byte(c), byte(o)}); err != nil {
					ok = false
					break
				}
			}
			// A conflict abort is part of the workload, not a transport
			// concern: both carriers see whatever the server broadcast.
			if err := txn.Commit(); ok && err != nil && !errors.Is(err, server.ErrConflict) {
				t.Fatal(err)
			}
		}
		if _, err := ns.Step(); err != nil {
			t.Fatal(err)
		}
	}

	recv := func(name string, sub *bcast.Subscription) []*bcast.CycleBroadcast {
		out := make([]*bcast.CycleBroadcast, 0, cycles)
		for len(out) < cycles {
			select {
			case cb, ok := <-sub.C:
				if !ok {
					t.Fatalf("%s stream closed after %d of %d cycles", name, len(out), cycles)
				}
				out = append(out, cb)
			case <-time.After(20 * time.Second):
				t.Fatalf("%s delivered %d of %d cycles", name, len(out), cycles)
			}
		}
		return out
	}
	tcp := recv("tcp", tcpSub)
	udp := recv("udp", udpSub)
	if d := ns.Obs().Counter("netcast_delta_bytes").Load(); mode == modeDelta && cycles > 1 && d == 0 {
		t.Fatalf("%d cycles with RefreshEvery 3 sent no delta bucket", cycles)
	}

	for i := range tcp {
		if tcp[i].Number != udp[i].Number {
			t.Fatalf("cycle %d: tcp decoded #%d, udp decoded #%d", i+1, tcp[i].Number, udp[i].Number)
		}
		if !reflect.DeepEqual(bare(t, tcp[i]), udp[i]) {
			t.Fatalf("cycle %d: decoded broadcasts differ structurally\ntcp: %+v\nudp: %+v",
				tcp[i].Number, tcp[i], udp[i])
		}
		tb, err := wire.EncodeCycle(tcp[i])
		if err != nil {
			t.Fatalf("re-encode tcp cycle %d: %v", tcp[i].Number, err)
		}
		ub, err := wire.EncodeCycle(udp[i])
		if err != nil {
			t.Fatalf("re-encode udp cycle %d: %v", udp[i].Number, err)
		}
		if !bytes.Equal(tb, ub) {
			t.Fatalf("cycle %d: canonical re-encodings differ (%d vs %d bytes)",
				tcp[i].Number, len(tb), len(ub))
		}
	}
}

// bare is cb without the count of its frame's holders (bcast.Frame),
// which the TCP tuner's cycles carry and the datagram tuner's do not:
// bookkeeping, not content. A view is re-read from the same frame bytes
// without one; the canonical re-encoding compares the original views.
func bare(t *testing.T, cb *bcast.CycleBroadcast) *bcast.CycleBroadcast {
	t.Helper()
	if cb.Frame == nil {
		return cb
	}
	c := *cb
	c.Frame = nil
	if c.View != nil {
		v, err := wire.ViewCycle(cb.Frame.Data)
		if err != nil {
			t.Fatal(err)
		}
		c.View = v.View
	}
	return &c
}

// TestDifferentialSeededWorkloads pins UDP-decoded == TCP-decoded over
// 1000 generator-seeded workloads, rotating through all four wire
// modes by seed.
func TestDifferentialSeededWorkloads(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 64
	}
	params := conformance.DefaultParams()
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%04d", seed), func(t *testing.T) {
			t.Parallel()
			w := conformance.Generate(int64(seed), params)
			runDifferential(t, w, seed%diffModeCount)
		})
	}
}

// TestDifferentialCorpusReplay replays every pinned conformance
// counterexample through the datagram carrier, in every wire mode: the
// shrunk workloads that once broke a protocol participant are exactly
// the traffic shapes that must not expose a transport divergence.
func TestDifferentialCorpusReplay(t *testing.T) {
	corpus, err := conformance.LoadCorpus("../conformance/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Skip("no corpus entries")
	}
	for name, ce := range corpus {
		for mode := 0; mode < diffModeCount; mode++ {
			name, ce, mode := name, ce, mode
			t.Run(fmt.Sprintf("%s/mode%d", name, mode), func(t *testing.T) {
				t.Parallel()
				runDifferential(t, ce.Workload, mode)
			})
		}
	}
}
