package netcast

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
	"broadcastcc/internal/wire"
)

// airTap hears a netcast server twice: the frames off a raw broadcast
// connection, and the cycles they were made from off the broadcast
// server's in-process medium.
type airTap struct {
	t    *testing.T
	bsrv *server.Server
	ns   *Server
	conn net.Conn
	sub  *bcast.Subscription
	seq  byte
}

func newAirTap(t *testing.T, bsrv *server.Server, ns *Server) *airTap {
	t.Helper()
	conn, err := net.Dial("tcp", ns.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	awaitSubscribers(t, ns, 1)
	return &airTap{t: t, bsrv: bsrv, ns: ns, conn: conn, sub: bsrv.Subscribe(64)}
}

// step commits a fresh value to each of objs, steps, and returns the
// cycle and the frame that carried it.
func (a *airTap) step(objs ...int) (*bcast.CycleBroadcast, []byte) {
	a.t.Helper()
	for _, obj := range objs {
		a.seq++
		req := protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: obj, Value: []byte{a.seq, byte(obj)}}}}
		if err := a.bsrv.SubmitUpdate(req); err != nil {
			a.t.Fatal(err)
		}
	}
	if n, err := a.ns.Step(); err != nil || n != 1 {
		a.t.Fatalf("Step = %d, %v", n, err)
	}
	a.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, err := ReadFrame(a.conn)
	if err != nil {
		a.t.Fatal(err)
	}
	return <-a.sub.C, frame
}

func patchedFrames(ns *Server) int64 { return ns.Obs().Counter("netcast_frames_patched").Load() }

// TestStepPatchesFullFrames: a classic full-frame server builds every
// frame after its first from the one before, the counter says so, and
// the bytes on the air are the from-scratch encoder's — also across a
// cycle somebody else's StartCycle consumed, which the sender notices
// by the gap and answers with one from-scratch frame.
func TestStepPatchesFullFrames(t *testing.T) {
	for _, alg := range []protocol.Algorithm{protocol.FMatrix, protocol.RMatrix} {
		t.Run(alg.String(), func(t *testing.T) {
			bsrv, ns := newNetServer(t, alg, 6)
			tap := newAirTap(t, bsrv, ns)
			check := func(wantPatched int64, objs ...int) {
				t.Helper()
				cb, frame := tap.step(objs...)
				want, err := wire.EncodeCycle(cb)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(frame, want) {
					t.Errorf("cycle %d: the frame on the air differs from EncodeCycle\n got  %x\n want %x", cb.Number, frame, want)
				}
				if got := patchedFrames(ns); got != wantPatched {
					t.Errorf("cycle %d: netcast_frames_patched = %d, want %d", cb.Number, got, wantPatched)
				}
			}
			check(0)       // the first frame has nothing to build on
			check(1, 2, 4) // written objects
			check(2)       // a quiet cycle: only the number moves
			check(3, 0, 5, 0)
			// Behind netcast's back: cycle 5 carries object 1's commit, and
			// cycle 6's Written no longer names it.
			if err := bsrv.SubmitUpdate(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: 1, Value: []byte("behind")}}}); err != nil {
				t.Fatal(err)
			}
			bsrv.StartCycle()
			<-tap.sub.C
			check(3, 3) // cycle 6 on a cycle-4 frame: from scratch
			check(4, 2) // and the chain resumes
			if sent := ns.Obs().Counter("netcast_frames_sent").Load(); sent != 6 {
				t.Errorf("netcast_frames_sent = %d, want 6", sent)
			}
		})
	}
}

// TestStepReusesFrameItCannotPatch: grouped control (dense or sparse
// frames) and program mode encode from scratch as they always did. The classic ones still build every frame in the one
// kept buffer, there for reuse, not for patching.
func TestStepReusesFrameItCannotPatch(t *testing.T) {
	serve := func(cfg server.Config, opts Options) (*server.Server, *Server) {
		cfg.ObjectBits, cfg.Audit = 64, true
		bsrv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ns, err := ServeOptions(bsrv, "127.0.0.1:0", "127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ns.Close()
			bsrv.Close()
		})
		return bsrv, ns
	}
	grouped := server.Config{Objects: 6, Algorithm: protocol.Grouped, Groups: 2}
	for name, mk := range map[string]func() (*server.Server, *Server){
		"grouped":        func() (*server.Server, *Server) { return serve(grouped, Options{}) },
		"sparse-grouped": func() (*server.Server, *Server) { return serve(grouped, Options{SparseGrouped: true}) },
		"program": func() (*server.Server, *Server) {
			bsrv, ns, _ := newProgramServer(t, protocol.FMatrix, 6, 2, 1, Options{})
			return bsrv, ns
		},
	} {
		t.Run(name, func(t *testing.T) {
			bsrv, ns := mk()
			for cycle := 1; cycle <= 7; cycle++ {
				if err := bsrv.SubmitUpdate(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: cycle % 6, Value: []byte{byte(cycle)}}}}); err != nil {
					t.Fatal(err)
				}
				if _, err := ns.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if got := patchedFrames(ns); got != 0 {
				t.Errorf("netcast_frames_patched = %d, want 0", got)
			}
			if kept := len(ns.frame) > 0; kept != (name != "program") {
				t.Errorf("a %d-byte frame kept; program mode keeps none, the rest their last", len(ns.frame))
			}
		})
	}
}

// TestFailedEncodeKeepsLastFrame: a cycle the encoder refuses — here a
// value wider than its slot, in EncodeCycle's own words — leaves the
// kept frame as it was, and the next good cycle is patched from it.
func TestFailedEncodeKeepsLastFrame(t *testing.T) {
	bsrv, ns := newNetServer(t, protocol.FMatrix, 6)
	tap := newAirTap(t, bsrv, ns)
	tap.step(1)
	_, kept := tap.step(2)
	if !bytes.Equal(ns.frame, kept) {
		t.Fatal("the sender does not hold the frame it sent last")
	}

	bad := *bsrv.StartCycle() // cycle 3, which this sender never sends
	<-tap.sub.C
	bad.Values = slices.Clone(bad.Values)
	bad.Values[4], bad.Written = make([]byte, 9), []int{4}
	_, wantErr := wire.EncodeCycle(&bad)
	if _, err := ns.encodeCycle(&bad); err == nil || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("encodeCycle = %v, want EncodeCycle's %v", err, wantErr)
	}
	if !bytes.Equal(ns.frame, kept) {
		t.Fatal("a failed encode replaced the kept frame")
	}
	good := bad
	good.Values[4] = []byte("fits")
	frame, err := ns.encodeCycle(&good)
	want, _ := wire.EncodeCycle(&good)
	if err != nil || !bytes.Equal(frame, want) || patchedFrames(ns) != 2 {
		t.Errorf("after the failure: err %v, right bytes %v, %d frames patched (want 2)", err, bytes.Equal(frame, want), patchedFrames(ns))
	}
}

// TestFailedScratchEncodeKeepsNoFrame: an encode from scratch that
// fails has written part of its frame over the kept one, so the sender
// keeps nothing, and the next cycle is encoded from scratch rather than
// patched from the half-written frame.
func TestFailedScratchEncodeKeepsNoFrame(t *testing.T) {
	bsrv, ns := newNetServer(t, protocol.FMatrix, 6)
	tap := newAirTap(t, bsrv, ns)
	tap.step(1)
	// Cycle 2, which this sender never sends, carries a commit to object
	// 5: record 5 of cycle 1's frame is stale from then on.
	if err := bsrv.SubmitUpdate(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: 5, Value: []byte("moved")}}}); err != nil {
		t.Fatal(err)
	}
	bsrv.StartCycle()
	<-tap.sub.C
	bad := *bsrv.StartCycle() // cycle 3, after a gap: from scratch, refused at object 4
	<-tap.sub.C
	bad.Values = slices.Clone(bad.Values)
	bad.Values[4] = make([]byte, 9)
	if _, err := ns.encodeCycle(&bad); err == nil {
		t.Fatal("encodeCycle took a value wider than its slot")
	}
	if len(ns.frame) != 0 {
		t.Fatalf("a failed encode from scratch left a %d-byte frame kept", len(ns.frame))
	}
	cb, frame := tap.step() // cycle 4: nothing written, one frame to build from scratch
	want, err := wire.EncodeCycle(cb)
	if err != nil || !bytes.Equal(frame, want) || patchedFrames(ns) != 0 {
		t.Errorf("cycle %d: err %v, right bytes %v, %d frames patched (want 0)", cb.Number, err, bytes.Equal(frame, want), patchedFrames(ns))
	}
}
