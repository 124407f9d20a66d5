package netcast

import (
	"encoding/hex"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
	"broadcastcc/internal/shard"
	"broadcastcc/internal/wire"
)

// retiredShots are the cross-shard shot frames an uplink port once
// dispatched, built from raw bytes as they were framed: prepare "BCP1"
// (token 8, remote flag 1, then a BCU1 body) and decision "BCT1"
// (token 8, commit flag 1).
func retiredShots() [][]byte {
	body := wire.EncodeUpdateRequest(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: 0, Value: []byte("x")}}})[4:]
	return [][]byte{
		append([]byte("BCP1\x00\x00\x00\x00\x00\x00\x00\x07\x01"), body...),
		[]byte("BCT1\x00\x00\x00\x00\x00\x00\x00\x07\x01"),
	}
}

// TestServeUplinkRejectsTwoShot: the fleet commits cross-shard
// transactions in process, so a BCP1 or BCT1 frame is outside input on
// every uplink port — a shard's own (Serve) and the coordinator's
// (ServeUplink). Each comes back refused as an unknown frame, not
// crashing or hanging the port, and the same connection then commits a
// BCU1. The frame decoder refuses both as unknown too.
func TestServeUplinkRejectsTwoShot(t *testing.T) {
	f, err := shard.NewFleet(shard.FleetConfig{
		Base:   server.Config{Objects: 16, ObjectBits: 64, Algorithm: protocol.FMatrix},
		Seed:   7,
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.StartCycle()
	ns, err := Serve(f.Node(0), "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	us, err := ServeUplink("127.0.0.1:0", f.Coordinator(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()

	for _, port := range []struct{ name, addr string }{
		{"shard", ns.UplinkAddr()},
		{"coordinator", us.Addr()},
	} {
		t.Run(port.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", port.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			roundTrip := func(frame []byte) error {
				t.Helper()
				if err := WriteFrame(conn, frame); err != nil {
					t.Fatal(err)
				}
				reply, err := ReadFrame(conn)
				if err != nil {
					t.Fatal(err)
				}
				verdict, wireErr := wire.DecodeUpdateReply(reply)
				if wireErr != nil {
					t.Fatal(wireErr)
				}
				return verdict
			}
			for _, frame := range retiredShots() {
				if err := roundTrip(frame); err == nil || !strings.Contains(err.Error(), "unknown frame on the uplink") {
					t.Fatalf("%.4s frame: %v, want a refusal", frame, err)
				}
			}
			req := protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: 0, Value: []byte(port.name[:5])}}}
			if err := roundTrip(wire.EncodeUpdateRequest(req)); err != nil {
				t.Fatalf("BCU1 after the refusals: %v", err)
			}
		})
	}
	for _, frame := range retiredShots() {
		if _, err := NewFrameDecoder().Decode(frame); err == nil || !strings.Contains(err.Error(), "unknown frame on the broadcast stream") {
			t.Fatalf("%.4s frame fed to the frame decoder: %v", frame, err)
		}
	}
}

// TestStrayFramesRejectedAsWrongKind: the cycle-delta frame shares its
// magic with no uplink frame, so the uplink dispatch refuses it for
// what it is, before any decoder sees it. No sender puts one on the
// broadcast stream either, and the frame decoder refuses it by name.
func TestStrayFramesRejectedAsWrongKind(t *testing.T) {
	bsrv, err := server.New(server.Config{Objects: 4, ObjectBits: 64, Algorithm: protocol.FMatrix})
	if err != nil {
		t.Fatal(err)
	}
	defer bsrv.Close()
	prev := bsrv.StartCycle()
	if err := bsrv.SubmitUpdate(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: 1, Value: []byte("v")}}}); err != nil {
		t.Fatal(err)
	}
	delta, err := wire.EncodeCycleDelta(prev, bsrv.StartCycle())
	if err != nil {
		t.Fatal(err)
	}
	u := &UplinkServer{uplink: bsrv}
	if err := u.dispatch(delta, new(protocol.UpdateRequest)); err == nil || !strings.Contains(err.Error(), "cycle-delta frame on the uplink") {
		t.Fatalf("cycle-delta frame fed to the uplink dispatch: %v", err)
	}
	if err := u.dispatch(nil, new(protocol.UpdateRequest)); err == nil || !strings.Contains(err.Error(), "unknown frame on the uplink") {
		t.Fatalf("empty frame fed to the uplink dispatch: %v", err)
	}
	if _, err := NewFrameDecoder().Decode(delta); err == nil || !strings.Contains(err.Error(), "cycle-delta frame on the broadcast stream") {
		t.Fatalf("cycle-delta frame fed to the frame decoder: %v", err)
	}
}

// retiredSubsetFrames are the partial-replication frames a broadcast
// connection once carried, as the encoders last wrote them: the subset
// filter "BCQ2" (objects 1 and 3) a tuner sent up the socket, and the
// subset cycle "BCQ3" the server shipped back.
func retiredSubsetFrames(t *testing.T) (filter, cycle []byte) {
	t.Helper()
	filter, err := hex.DecodeString("42435132000000020000000100000003")
	if err != nil {
		t.Fatal(err)
	}
	cycle, err = hex.DecodeString("424351330000000000000007000000040000000208000000020000000162620003000000000003640000030505")
	if err != nil {
		t.Fatal(err)
	}
	return filter, cycle
}

// TestRetiredSubsetFilterIsReaped: every tuner hears the same frames,
// so a broadcast connection carries nothing upward. A tuner that writes
// a BCQ2 filter is reaped (one EvSubReap traced, one subscriber
// dropped, no overflow reap counted: it did not fall behind), a plain
// tuner on the same server keeps hearing every cycle, and the
// frame decoder refuses both subset magics as unknown.
func TestRetiredSubsetFilterIsReaped(t *testing.T) {
	bsrv, err := server.New(server.Config{Objects: 4, ObjectBits: 64, Algorithm: protocol.FMatrix, Trace: obs.NewTracer(64)})
	if err != nil {
		t.Fatal(err)
	}
	defer bsrv.Close()
	ns, err := Serve(bsrv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	live, err := Tune(ns.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	sub := live.Subscribe(16)
	writer, err := net.Dial("tcp", ns.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	awaitSubscribers(t, ns, 2)

	filter, cycle := retiredSubsetFrames(t)
	// One write: the first byte to arrive already gets the writer reaped.
	if _, err := writer.Write(append([]byte{0, 0, 0, byte(len(filter))}, filter...)); err != nil {
		t.Fatal(err)
	}
	// The reap closes the writer's connection (a reset: the server left
	// the rest of the frame unread), and its trace event follows.
	writer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, writer); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("writer's connection still open 5s after its BCQ2 frame")
	}
	reaps := func() (n int) {
		for _, ev := range bsrv.Tracer().Events() {
			if ev.Kind == obs.EvSubReap {
				n++
			}
		}
		return n
	}
	for deadline := time.Now().Add(5 * time.Second); reaps() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := reaps(); n != 1 {
		t.Fatalf("%d EvSubReap events, want 1", n)
	}
	if n := ns.Subscribers(); n != 1 {
		t.Fatalf("%d subscribers after the reap, want 1", n)
	}
	if n := ns.Obs().Counter("netcast_overflow_reaps").Load(); n != 0 {
		t.Fatalf("netcast_overflow_reaps = %d, want 0: a stray byte is no overflow", n)
	}
	if n := ns.Obs().Counter("netcast_subs_dropped").Load(); n != 1 {
		t.Fatalf("netcast_subs_dropped = %d, want 1", n)
	}

	for i := 0; i < 5; i++ {
		delivered, err := ns.Step()
		if err != nil {
			t.Fatal(err)
		}
		if delivered != 1 {
			t.Fatalf("step %d delivered to %d subscribers, want 1", i, delivered)
		}
		select {
		case cb := <-sub.C:
			if cb == nil || cb.Number != cmatrix.Cycle(i+1) {
				t.Fatalf("step %d: the plain tuner heard %v", i, cb)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("the plain tuner missed cycle %d", i+1)
		}
	}

	for _, frame := range [][]byte{filter, cycle} {
		if _, err := NewFrameDecoder().Decode(frame); err == nil || !strings.Contains(err.Error(), "unknown frame on the broadcast stream") {
			t.Fatalf("%.4s frame fed to the frame decoder: %v", frame, err)
		}
	}
}

// TestCloseWakesEveryReader: Close waits for each broadcast
// connection's reader, so every reader must be woken — whether its
// tuner sits idle in a read, stopped inside a frame's length prefix, or
// wrote a retired BCQ2 filter (reaped, possibly while Close runs).
func TestCloseWakesEveryReader(t *testing.T) {
	filter, _ := retiredSubsetFrames(t)
	for _, tc := range []struct {
		name  string
		write []byte
	}{
		{"blocked-mid-read", nil},
		{"half-a-prefix", []byte{0, 0}},
		{"retired-filter", append([]byte{0, 0, 0, byte(len(filter))}, filter...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bsrv, err := server.New(server.Config{Objects: 4, ObjectBits: 64, Algorithm: protocol.FMatrix})
			if err != nil {
				t.Fatal(err)
			}
			defer bsrv.Close()
			ns, err := Serve(bsrv, "127.0.0.1:0", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			tuner, err := Tune(ns.BroadcastAddr())
			if err != nil {
				t.Fatal(err)
			}
			sub := tuner.Subscribe(4)
			conn, err := net.Dial("tcp", ns.BroadcastAddr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			awaitSubscribers(t, ns, 2)
			if _, err := ns.Step(); err != nil {
				t.Fatal(err)
			}
			<-sub.C // the tuner now waits, mid-read, for a cycle that never comes
			if tc.write != nil {
				if _, err := conn.Write(tc.write); err != nil {
					t.Fatal(err)
				}
			}

			closed := make(chan struct{})
			go func() { ns.Close(); close(closed) }()
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Close still waiting on a broadcast reader after 5s")
			}
			if err := tuner.Close(); err != nil {
				t.Fatalf("tuner ended with %v", err)
			}
		})
	}
}
