package netcast

import (
	"strings"
	"testing"

	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
	"broadcastcc/internal/wire"
)

// TestUplinkShardDispatch drives both shots of the cross-shard commit
// over a real TCP uplink and checks the frames reach the server's
// prepare/decide handlers (and that verdicts travel back as replies).
func TestUplinkShardDispatch(t *testing.T) {
	bsrv, err := server.New(server.Config{Objects: 8, ObjectBits: 64, Algorithm: protocol.FMatrix})
	if err != nil {
		t.Fatal(err)
	}
	defer bsrv.Close()
	ns, err := Serve(bsrv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	bsrv.StartCycle()

	up, err := DialUplink(ns.UplinkAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()

	req := protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: 2, Value: []byte("net")}}}
	if err := up.PrepareUpdate(7, req, true); err != nil {
		t.Fatalf("prepare over TCP: %v", err)
	}
	// The pin is live on the server until the decision arrives.
	if _, pinned := bsrv.PinnedBy(2); !pinned {
		t.Fatal("prepare frame did not reach the server")
	}
	if err := up.DecideUpdate(7, true); err != nil {
		t.Fatalf("decide over TCP: %v", err)
	}
	cb := bsrv.StartCycle()
	if string(cb.Values[2]) != "net" {
		t.Fatalf("committed value %q", cb.Values[2])
	}
	// Refusals travel back as reply errors: token 7 is already decided.
	if err := up.DecideUpdate(7, false); err == nil || !strings.Contains(err.Error(), "contradicts") {
		t.Fatalf("contradictory decision over TCP: %v", err)
	}
	// Plain BCU1 submissions still dispatch on the same connection.
	if err := up.SubmitUpdate(protocol.UpdateRequest{
		Writes: []protocol.ObjectWrite{{Obj: 3, Value: []byte("plain")}},
	}); err != nil {
		t.Fatal(err)
	}
	// Serve's uplink is the one UplinkServer loop, so the two-shot frames
	// are counted like any other request: prepare, two decisions, submit.
	if got := ns.Obs().Counter("netcast_uplink_requests").Load(); got != 4 {
		t.Fatalf("netcast_uplink_requests = %d after BCP1+BCT1+BCT1+BCU1, want 4", got)
	}
}

// TestStrayFramesRejectedAsWrongKind: until PR 14 the decision frame and
// the cycle-delta frame were both "BCD1", told apart only by the socket
// they arrived on. Each is now refused by the other channel's dispatch
// for what it is, before any decoder sees it.
func TestStrayFramesRejectedAsWrongKind(t *testing.T) {
	_, err := NewFrameDecoder().Decode(wire.EncodeDecision(7, true))
	if err == nil || !strings.Contains(err.Error(), "decision frame on the broadcast stream") {
		t.Fatalf("decision frame fed to the frame decoder: %v", err)
	}

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
	u := &UplinkServer{uplink: bsrv} // a participant: it would act on a decision
	if err := u.dispatch(delta, new(protocol.UpdateRequest)); err == nil || !strings.Contains(err.Error(), "cycle-delta frame on the uplink") {
		t.Fatalf("cycle-delta frame fed to the uplink dispatch: %v", err)
	}
	if err := u.dispatch(nil, new(protocol.UpdateRequest)); err == nil || !strings.Contains(err.Error(), "unknown frame on the uplink") {
		t.Fatalf("empty frame fed to the uplink dispatch: %v", err)
	}
}
