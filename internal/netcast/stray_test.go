package netcast

import (
	"net"
	"strings"
	"testing"

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

// TestServeUplinkRejectsTwoShot: the fleet runs its two-shot commit in
// process, so a BCP1 or BCT1 frame is outside input on every uplink
// port — a shard's own (Serve) and the coordinator's (ServeUplink).
// Each comes back refused as an unknown frame, not crashing or hanging
// the port, and the same connection then commits a BCU1. The frame
// decoder refuses both as unknown too.
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
// what it is, before any decoder sees it.
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
}
