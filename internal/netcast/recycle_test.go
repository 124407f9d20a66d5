package netcast

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/client"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/server"
)

// recycleStack serves cfg with opts over loopback and tunes one TCP
// tuner in; the caller closes the tuner.
func recycleStack(t *testing.T, cfg server.Config, opts Options) (*server.Server, *Server, *Tuner) {
	t.Helper()
	bsrv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := ServeOptions(bsrv, "127.0.0.1:0", "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := Tune(ns.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ns.Close()
		bsrv.Close()
	})
	awaitSubscribers(t, ns, 1)
	return bsrv, ns, tn
}

// stamp is the value object obj gets at cycle k: it names both, so a
// read through a frame recycled under it shows another cycle's stamp or
// the poison.
func stamp(cfg server.Config, obj, k int) []byte {
	v := make([]byte, cfg.ObjectBits/8)
	binary.BigEndian.PutUint32(v, uint32(obj))
	binary.BigEndian.PutUint32(v[4:], uint32(k))
	return v
}

// writeAll commits a fresh stamp to each of objs.
func writeAll(t *testing.T, bsrv *server.Server, cfg server.Config, k int, objs ...int) {
	t.Helper()
	for _, obj := range objs {
		req := protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: obj, Value: stamp(cfg, obj, k)}}}
		if err := bsrv.SubmitUpdate(req); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTunerRecyclesFrames: over 200 lock-step Table 1 cycles through a
// TCP tuner and a client, the tuner reads every frame into one its
// slot recycles, allocating fewer than 8 frames in all (two alternate;
// a collection that finds the spare unused costs one more), every read
// returns the value its cycle carried, and once collected the tuner
// keeps one frame live — the current cycle's — not a spare beside it.
func TestTunerRecyclesFrames(t *testing.T) {
	const cycles, frame = 200, 397226
	cfg := stepShapes[0].cfg
	bsrv, ns, tn := recycleStack(t, cfg, Options{})
	c := client.New(client.Config{Algorithm: cfg.Algorithm}, tn.Subscribe(4))
	for k := 1; k <= cycles; k++ {
		obj := k % cfg.Objects
		writeAll(t, bsrv, cfg, k, obj)
		if n, err := ns.Step(); err != nil || n != 1 {
			t.Fatalf("cycle %d: Step = %d, %v", k, n, err)
		}
		if cb, ok := c.AwaitCycle(); !ok || cb.Number != cmatrix.Cycle(k) {
			t.Fatalf("cycle %d: the client made %v current (ok %v)", k, cb, ok)
		}
		v, err := c.BeginReadOnly().Read(obj)
		if err != nil || !bytes.Equal(v, stamp(cfg, obj, k)) {
			t.Fatalf("cycle %d: read of %d = %q, %v", k, obj, v, err)
		}
	}
	if fresh := tn.slot.Fresh(); fresh >= 8 {
		t.Errorf("the tuner allocated %d frames (%d B) over %d cycles, want fewer than 8", fresh, fresh*frame, cycles)
	}
	with := liveHeap()
	c.Cancel()
	tn.Close()
	held := with - liveHeap()
	if held > frame*3/2 {
		t.Errorf("the tuner and client kept %d B live: want one %d B frame, not two", held, frame)
	}
}

// TestGroupedTunerRecyclesFrames: a BCG1 cycle carries its frame's
// count like a BCC1 one, and the decoder keeps nothing of it (its
// partition is built fresh), so over 200 lock-step cycles of a
// regrouping sparse-grouped server the tuner allocates fewer than 8
// frames, and every read returns the value its cycle carried. The
// server runs 50 cycles off the air first: a BCG1 frame grows while its
// MC rows fill, and each growth past the spare costs one frame.
func TestGroupedTunerRecyclesFrames(t *testing.T) {
	const warm, cycles = 50, 200
	cfg := server.Config{Objects: 32, ObjectBits: 64, Algorithm: protocol.Grouped, Groups: 4, RegroupEvery: 5}
	bsrv, ns, tn := recycleStack(t, cfg, Options{SparseGrouped: true})
	defer tn.Close()
	c := client.New(client.Config{Algorithm: cfg.Algorithm}, tn.Subscribe(4))
	write := func(k int) int {
		obj := k * 7 % cfg.Objects
		writeAll(t, bsrv, cfg, k, obj, (obj+1)%cfg.Objects)
		return obj
	}
	for k := 1; k <= warm; k++ {
		write(k)
		bsrv.StartCycle()
	}
	for k := warm + 1; k <= warm+cycles; k++ {
		obj := write(k)
		if n, err := ns.Step(); err != nil || n != 1 {
			t.Fatalf("cycle %d: Step = %d, %v", k, n, err)
		}
		cb, ok := c.AwaitCycle()
		if !ok || cb.Number != cmatrix.Cycle(k) {
			t.Fatalf("cycle %d: the client made %v current (ok %v)", k, cb, ok)
		}
		if cb.Grouped == nil || cb.Frame == nil {
			t.Fatalf("cycle %d: a BCG1 frame decoded without grouped control or a count: grouped %v, frame %v", k, cb.Grouped != nil, cb.Frame != nil)
		}
		v, err := c.BeginReadOnly().Read(obj)
		if err != nil || !bytes.Equal(v, stamp(cfg, obj, k)) {
			t.Fatalf("cycle %d: read of %d = %q, %v", k, obj, v, err)
		}
	}
	if epoch := bsrv.RegroupEpoch(); epoch <= warm/5 {
		t.Fatalf("regroup epoch %d: the server never regrouped on the air", epoch)
	}
	if fresh := tn.slot.Fresh(); fresh >= 8 {
		t.Errorf("the tuner allocated %d frames over %d cycles, want fewer than 8", fresh, cycles)
	}
}

// liveHeap is the heap in use after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestHeldViewSurvivesRecycling: a SnapshotValidator that read a cycle's
// View holds the frame under it while the client moves on for 10 cycles
// and the tuner recycles the frames it lets go of: the held view and
// values still read the bytes they were published with. The validator's
// Reset lets the frame go, and under the framepoison tag it is poisoned
// at once.
func TestHeldViewSurvivesRecycling(t *testing.T) {
	const n, later = 16, 10
	cfg := server.Config{Objects: n, ObjectBits: 64, Algorithm: protocol.FMatrix}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	bsrv, ns, tn := recycleStack(t, cfg, Options{})
	defer tn.Close()
	c := client.New(client.Config{Algorithm: cfg.Algorithm}, tn.Subscribe(4))
	step := func(k int) *bcast.CycleBroadcast {
		t.Helper()
		writeAll(t, bsrv, cfg, k, all...) // no two cycles' frames agree
		if _, err := ns.Step(); err != nil {
			t.Fatal(err)
		}
		cb, ok := c.AwaitCycle()
		if !ok || cb.Number != cmatrix.Cycle(k) {
			t.Fatalf("cycle %d: the client made %v current (ok %v)", k, cb, ok)
		}
		return cb
	}
	step(1)
	held := step(2)
	if held.View == nil || held.Frame == nil {
		t.Fatalf("a tuner's full frame decoded without a counted view: view %v, frame %v", held.View, held.Frame)
	}
	var v protocol.SnapshotValidator
	if !v.TryRead(held.View, 3, held.Number) {
		t.Fatal("the first read of a transaction was refused")
	}
	vals, bounds := heldBytes(held)
	fresh := tn.slot.Fresh()
	for k := 3; k < 3+later; k++ {
		step(k)
	}
	if got := tn.slot.Fresh() - fresh; got >= later {
		t.Fatalf("the tuner allocated %d frames over %d cycles: none was recycled", got, later)
	}
	gotVals, gotBounds := heldBytes(held)
	for j := range vals {
		if !bytes.Equal(gotVals[j], vals[j]) {
			t.Fatalf("held cycle %d, object %d: %q, published as %q", held.Number, j, gotVals[j], vals[j])
		}
	}
	for i := range bounds {
		if gotBounds[i] != bounds[i] {
			t.Fatalf("held cycle %d: C(%d, %d) = %d, published as %d", held.Number, i/n, i%n, gotBounds[i], bounds[i])
		}
	}
	v.Reset()
	if bcast.Poisoned && !bytes.Equal(held.Values[0], bytes.Repeat([]byte{0xA5}, len(held.Values[0]))) {
		t.Fatalf("the frame the validator let go of was not poisoned: %q", held.Values[0])
	}
}

// heldBytes copies a cycle's values and its View's every bound.
func heldBytes(cb *bcast.CycleBroadcast) (vals [][]byte, bounds []cmatrix.Cycle) {
	n := len(cb.Values)
	for j := range n {
		vals = append(vals, bytes.Clone(cb.Values[j]))
		for i := range n {
			bounds = append(bounds, cb.View.Bound(j, i))
		}
	}
	return vals, bounds
}

// TestHeldViewsRaceDeliveries is the ownership stress for -race and the
// framepoison tag, with the server stepping as fast as the tuner drains:
//   - a reader takes every cycle the tuner delivers, has a
//     SnapshotValidator read its View, lets the delivery's count go and
//     keeps the validator for four more cycles, rereading every held
//     cycle's values and bounds after each delivery;
//   - a client makes each cycle it can current and reads every object
//     of it, whose stamp must name the object and a cycle no later (or
//     be the initial zero value).
//
// A frame recycled under a holder is a race on its bytes, a reread that
// differs from the first read, or a stamp from a later cycle (or the
// poison).
func TestHeldViewsRaceDeliveries(t *testing.T) {
	const n, cycles, keep = 16, 300, 4
	cfg := server.Config{Objects: n, ObjectBits: 64, Algorithm: protocol.FMatrix}
	bsrv, ns, tn := recycleStack(t, cfg, Options{})
	defer tn.Close()
	sub := tn.Subscribe(64)
	c := client.New(client.Config{Algorithm: cfg.Algorithm}, tn.Subscribe(4))
	type hold struct {
		cb     *bcast.CycleBroadcast
		v      protocol.SnapshotValidator
		vals   [][]byte
		bounds []cmatrix.Cycle
	}
	done := make(chan error, 2)
	go func() {
		var ring [keep]*hold
		var err error
		for k := 0; ; k++ {
			cb, ok := <-sub.C
			if !ok {
				break
			}
			if err != nil {
				cb.Release()
				continue
			}
			h := &hold{cb: cb}
			if !h.v.TryRead(cb.View, int(cb.Number)%n, cb.Number) {
				err = fmt.Errorf("cycle %d: the first read of a transaction was refused", cb.Number)
			}
			h.vals, h.bounds = heldBytes(cb)
			cb.Release() // now only the validator holds the frame
			if old := ring[k%keep]; old != nil {
				old.v.Reset()
			}
			ring[k%keep] = h
			for _, h := range ring {
				if h == nil || err != nil {
					continue
				}
				vals, bounds := heldBytes(h.cb)
				for j := range vals {
					if !bytes.Equal(vals[j], h.vals[j]) {
						err = fmt.Errorf("held cycle %d, object %d: %q, first read %q", h.cb.Number, j, vals[j], h.vals[j])
					}
				}
				for i := range bounds {
					if bounds[i] != h.bounds[i] {
						err = fmt.Errorf("held cycle %d: bound %d is %d, first read %d", h.cb.Number, i, bounds[i], h.bounds[i])
					}
				}
			}
		}
		done <- err
	}()
	go func() {
		var err error
		for {
			cb, ok := c.AwaitCycle()
			if !ok {
				break
			}
			for obj := 0; obj < n && err == nil; obj++ {
				v, rerr := c.BeginReadOnly().Read(obj)
				if rerr != nil {
					err = rerr
				} else if o, k := binary.BigEndian.Uint32(v), binary.BigEndian.Uint32(v[4:]); k > uint32(cb.Number) || o != uint32(obj) && k != 0 {
					err = fmt.Errorf("cycle %d: object %d read as %q", cb.Number, obj, v)
				}
			}
		}
		done <- err
	}()
	for k := 1; k <= cycles; k++ {
		writeAll(t, bsrv, cfg, k, k%n, (k*7)%n)
		if _, err := ns.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ns.Close() // the tuner's stream ends and its medium closes both subscriptions
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if fresh := tn.slot.Fresh(); fresh >= cycles {
		t.Fatalf("the tuner allocated %d frames over %d cycles: none was recycled", fresh, cycles)
	}
}
