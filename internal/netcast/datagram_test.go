package netcast

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"broadcastcc/internal/airsched"
	"broadcastcc/internal/bcast"
	"broadcastcc/internal/client"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/dgram"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
)

// TestDatagramBroadcastEndToEnd runs the full connectionless datapath:
// server cycles ride dgram packets over a simulated medium, a
// DatagramTuner reassembles and decodes them, and an ordinary client
// reads the result — no TCP connection anywhere on the client side.
func TestDatagramBroadcastEndToEnd(t *testing.T) {
	bsrv, ns := newNetServer(t, protocol.FMatrix, 4)

	car := dgram.NewSimCarrier()
	defer car.Close()
	cfg := dgram.Config{Channel: 3}
	sender, err := dgram.NewSender(car, cfg, ns.Obs())
	if err != nil {
		t.Fatal(err)
	}
	ns.AttachDatagram(sender)

	tap := car.Tap(0, nil, 0)
	dt, err := TuneDatagram(tap, cfg, ns.Obs())
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	cli := client.New(client.Config{Algorithm: protocol.FMatrix}, dt.Subscribe(64))

	txn := bsrv.Begin()
	if err := txn.Write(0, []byte("dgram-hi")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	for c := 1; c <= 10; c++ {
		if _, err := ns.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Ten consecutive cycles must come out of the air in order.
	for c := 1; c <= 10; c++ {
		cb, ok := cli.AwaitCycle()
		if !ok {
			t.Fatalf("stream closed before cycle %d", c)
		}
		if int(cb.Number) != c {
			t.Fatalf("cycle %d, want %d", cb.Number, c)
		}
	}
	rd := cli.BeginReadOnly()
	v, err := rd.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(v), "dgram-hi") {
		t.Fatalf("read %q over the datagram path", v)
	}
	if _, err := rd.Commit(); err != nil {
		t.Fatal(err)
	}

	if n := ns.Obs().Counter(dgram.CtrPacketsTx).Load(); n == 0 {
		t.Error("no datagram packets transmitted")
	}
	if n := ns.Obs().Counter(dgram.CtrFramesRx).Load(); n < 10 {
		t.Errorf("frames_rx = %d, want >= 10", n)
	}
	if n := ns.Obs().Counter(dgram.CtrFilterDrops).Load(); n != 0 {
		t.Errorf("filter_drops = %d on a clean medium", n)
	}
}

// eraseWindow is a dgram.PacketFates that erases every packet whose
// transmit index lies in [from, to) and delivers the rest once, in
// order. The carrier consults it inside Send, on the goroutine that
// calls Step, so a test that steps the server itself may move the
// bounds between steps.
type eraseWindow struct{ from, to uint64 }

func (w *eraseWindow) Dropped(_ int, idx uint64) bool { return idx >= w.from && idx < w.to }
func (w *eraseWindow) Duplicated(int, uint64) bool    { return false }
func (w *eraseWindow) Lag(int, uint64) int            { return 0 }

// TestDatagramResyncsAfterLostBurst: every packet of cycles 2-6 is
// erased in the air, and the datagram tuner resynchronizes on the
// traffic after the burst — full frames are self-contained, so the
// next cycle whose packets arrive decodes, and it leaves as soon as the
// erased packets can no longer arrive (dgram's reorder slack), not once
// they are a whole reorder window stale.
func TestDatagramResyncsAfterLostBurst(t *testing.T) {
	bsrv, ns := newNetServer(t, protocol.FMatrix, 4)
	car := dgram.NewSimCarrier()
	defer car.Close()
	cfg := dgram.Config{Channel: 1}
	sender, err := dgram.NewSender(car, cfg, ns.Obs())
	if err != nil {
		t.Fatal(err)
	}
	ns.AttachDatagram(sender)
	sent := func() uint64 {
		snap := ns.Obs().Snapshot()
		return uint64(snap.Counters[dgram.CtrPacketsTx] + snap.Counters[dgram.CtrRepairTx])
	}

	fates := new(eraseWindow)
	dt, err := TuneDatagram(car.Tap(0, fates, 0), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	sub := dt.Subscribe(64)

	if _, err := ns.Step(); err != nil {
		t.Fatal(err)
	}
	select {
	case cb := <-sub.C:
		if cb.Number != 1 {
			t.Fatalf("cycle %d, want 1", cb.Number)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cycle 1 never arrived")
	}

	// Erase the whole burst: the window opens at the first packet of
	// cycle 2 and closes after the last packet of cycle 6.
	fates.from, fates.to = sent(), ^uint64(0)
	for c := 2; c <= 6; c++ {
		txn := bsrv.Begin()
		txn.Write(0, []byte{byte(c)})
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, err := ns.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if fates.to = sent(); fates.to <= fates.from {
		t.Fatal("the burst sent no packets")
	}

	// The reassembler holds cycle 7 back only until the newest packet
	// has passed the erased ones by the reorder slack: at 3 packets a
	// cycle that is a few Steps, and the first cycle out is 7.
	const maxSteps = 4
	for step := 1; step <= maxSteps; step++ {
		if _, err := ns.Step(); err != nil {
			t.Fatal(err)
		}
		wait := 5 * time.Millisecond
		if step == maxSteps {
			wait = 5 * time.Second
		}
		select {
		case cb := <-sub.C:
			if cb.Number != 7 {
				t.Fatalf("first cycle after the lost burst = %d, want 7", cb.Number)
			}
			return
		case <-time.After(wait):
		}
	}
	t.Fatalf("tuner did not resynchronize within %d Steps after the lost burst", maxSteps)
}

// TestOverflowReapThenRetune is the regression for the slow-subscriber
// reap path: a TCP subscriber that never reads must be reaped (counter
// + trace event), and the server must keep serving — a fresh tuner
// connecting afterwards receives cycles normally. Both transmission
// modes run through the one fan-out; the program row also needs the
// fresh tuner to outlast the delta chains it joined mid-way.
func TestOverflowReapThenRetune(t *testing.T) {
	const n = 256
	for _, tc := range []struct {
		name    string
		program bool
		opts    Options
		// resync is how many cycles a fresh tuner may need before it can
		// assemble one: every object's next full column.
		resync int
	}{
		{name: "classic", resync: 1},
		{name: "program", program: true, opts: Options{RefreshEvery: 2}, resync: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := server.Config{
				Objects: n, ObjectBits: 64, Algorithm: protocol.FMatrix,
				Trace: obs.NewTracer(512),
			}
			if tc.program {
				prog, err := airsched.Build(bcast.LayoutFor(protocol.FMatrix, n, 64, 8, 0), airsched.ZipfWeights(n, 0.95), 2, 4)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Program = prog
			}
			bsrv, err := server.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer bsrv.Close()
			tc.opts.WriteTimeout = 50 * time.Millisecond
			ns, err := ServeOptions(bsrv, "127.0.0.1:0", "127.0.0.1:0", tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ns.Close()

			// A subscriber that never reads: the kernel buffer fills and the
			// write deadline reaps it.
			conn, err := net.Dial("tcp", ns.BroadcastAddr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			awaitSubscribers(t, ns, 1)

			deadline := time.Now().Add(30 * time.Second)
			for ns.Subscribers() > 0 {
				if time.Now().After(deadline) {
					t.Fatal("unread subscriber never reaped")
				}
				if _, err := ns.Step(); err != nil {
					t.Fatal(err)
				}
			}

			reg := ns.Obs()
			if n := reg.Counter("netcast_overflow_reaps").Load(); n < 1 {
				t.Fatalf("netcast_overflow_reaps = %d, want >= 1", n)
			}
			if n := reg.Counter("netcast_tx_bytes").Load(); n == 0 {
				t.Fatal("netcast_tx_bytes never moved while a subscriber was attached")
			}
			found := false
			for _, ev := range bsrv.Tracer().Events() {
				if ev.Kind == obs.EvSubReap {
					found = true
					if ev.Arg != 0 {
						t.Fatalf("EvSubReap arg = %d subscribers left, want 0", ev.Arg)
					}
				}
			}
			if !found {
				t.Fatal("no EvSubReap event in the trace")
			}

			// The server must still be fully serviceable: a fresh tuner
			// retunes and receives whole cycles, one per Step once it has
			// resynchronized.
			tuner, err := Tune(ns.BroadcastAddr())
			if err != nil {
				t.Fatal(err)
			}
			defer tuner.Close()
			sub := tuner.Subscribe(8)
			awaitSubscribers(t, ns, 1)
			// A failure below says what the server and the fresh tuner saw.
			var heard cmatrix.Cycle
			state := func() string {
				var reaps []string
				for _, ev := range bsrv.Tracer().Events() {
					if ev.Kind == obs.EvSubReap {
						reaps = append(reaps, fmt.Sprintf("cycle %d (%d left)", ev.Cycle, ev.Arg))
					}
				}
				return fmt.Sprintf("fresh tuner last heard cycle %d; netcast_overflow_reaps %d, netcast_subs_dropped %d, %d subscribers; EvSubReap at %v",
					heard, reg.Counter("netcast_overflow_reaps").Load(), reg.Counter("netcast_subs_dropped").Load(), ns.Subscribers(), reaps)
			}
			await := func(after cmatrix.Cycle) cmatrix.Cycle {
				t.Helper()
				timeout := time.After(5 * time.Second)
				for {
					select {
					case cb := <-sub.C:
						heard = cb.Number
						if len(cb.Values) != n || cb.Matrix == nil && cb.View == nil {
							t.Fatalf("cycle %d arrived incomplete: %d values, matrix %v, view %v; %s", cb.Number, len(cb.Values), cb.Matrix != nil, cb.View != nil, state())
						}
						if cb.Number > after {
							return cb.Number
						}
					case <-timeout:
						t.Fatalf("retuned subscriber received no cycle past %d after the reap; %s", after, state())
					}
				}
			}
			for i := 0; i < tc.resync; i++ {
				if _, err := ns.Step(); err != nil {
					t.Fatalf("%v; %s", err, state())
				}
			}
			first := await(0)
			if _, err := ns.Step(); err != nil {
				t.Fatalf("%v; %s", err, state())
			}
			await(first)
		})
	}
}
