package client

import (
	"runtime"
	"testing"
	"time"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/wire"
)

// TestCacheKeepsNoFrame: a caching client fed the cycles a tuner
// delivers — a wire.ViewCycle view over each received frame — caches a
// copy of every column it reads, never the view, which pins the whole
// frame. Once the client has moved past a cycle and the transaction
// that read it has finished, that cycle's frame is collectable.
func TestCacheKeepsNoFrame(t *testing.T) {
	const n = 8
	medium := bcast.NewMedium()
	defer medium.Close()
	c := New(Config{Algorithm: protocol.FMatrix, CacheCurrency: 100}, medium.Subscribe(4))
	freed := make(chan struct{}, 1)
	hear := func(number cmatrix.Cycle, reads []int) {
		t.Helper()
		frame, err := wire.EncodeCycle(&bcast.CycleBroadcast{
			Number: number, Layout: bcast.LayoutFor(protocol.FMatrix, n, 64, 8, 0),
			Values: make([][]byte, n), Matrix: cmatrix.NewMatrix(n),
		})
		if err != nil {
			t.Fatal(err)
		}
		if number == 1 {
			runtime.SetFinalizer(&frame[0], func(*byte) { freed <- struct{}{} })
		}
		cb, err := wire.ViewCycle(frame)
		if err != nil || cb.View == nil {
			t.Fatalf("cycle %d: a view-backed cycle was wanted, got %+v, %v", number, cb, err)
		}
		medium.Publish(cb)
		if _, ok := c.AwaitCycle(); !ok {
			t.Fatal("medium closed")
		}
		txn := c.BeginReadOnly()
		for _, obj := range reads {
			if _, err := txn.Read(obj); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, obj := range reads {
			if _, _, snap, ok := c.cache.Get(obj, number); !ok {
				t.Fatalf("cycle %d: object %d not cached", number, obj)
			} else if _, copied := snap.(protocol.ColumnSnapshot); !copied {
				t.Fatalf("cycle %d: object %d cached with a %T, not a column copy", number, obj, snap)
			}
		}
	}
	hear(1, []int{0, 1, 2, 3})
	hear(2, []int{4, 5})
	hear(3, []int{6, 7})
	for collected, deadline := false, time.Now().Add(5*time.Second); !collected; {
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("cycle 1's frame is still reachable two cycles later: something the client keeps pins it")
			}
		}
	}
	runtime.KeepAlive(c)
}

// TestClientLetsGoOfFrames: a client holds the count its delivery took
// on the current cycle's frame (bcast.Frame) and lets go of it when a
// later cycle replaces it, at once for a duplicate delivery, and on
// Retune — seen as the frame coming back out of the tuner's slot. The
// test keeps every frame reachable, so the weakly held spare survives
// any collection in between.
func TestClientLetsGoOfFrames(t *testing.T) {
	const n = 8
	var slot bcast.FrameSlot
	medium := bcast.NewMedium()
	defer medium.Close()
	hear := func(number cmatrix.Cycle) *bcast.CycleBroadcast {
		t.Helper()
		data, err := wire.EncodeCycle(&bcast.CycleBroadcast{
			Number: number, Layout: bcast.LayoutFor(protocol.FMatrix, n, 64, 8, 0),
			Values: make([][]byte, n), Matrix: cmatrix.NewMatrix(n),
		})
		if err != nil {
			t.Fatal(err)
		}
		f := slot.Get(len(data))
		copy(f.Data, data)
		cb, err := wire.ViewFrame(f.Data, f)
		if err != nil {
			t.Fatal(err)
		}
		medium.Publish(cb)
		f.Release() // the reader's count
		return cb
	}
	// spare reports whether f is the slot's spare: the next Get returns
	// it. It is put back either way.
	spare := func(f *bcast.Frame) bool {
		g := slot.Get(len(f.Data))
		defer g.Release()
		return g == f
	}
	c := New(Config{Algorithm: protocol.FMatrix}, medium.Subscribe(4))
	cb1 := hear(1)
	c.AwaitCycle()
	cb2 := hear(2)
	if spare(cb1.Frame) {
		t.Fatal("cycle 1's frame came back while it was the client's current cycle")
	}
	c.AwaitCycle()
	if !spare(cb1.Frame) {
		t.Fatal("cycle 1's frame did not come back once cycle 2 replaced it")
	}
	medium.Publish(cb2) // a duplicate delivery of the current cycle
	if c.PollCycle() {
		t.Fatal("a duplicate delivery advanced the client")
	}
	cb3 := hear(3)
	c.AwaitCycle()
	if !spare(cb2.Frame) {
		t.Fatal("cycle 2's frame did not come back: the duplicate delivery's count was kept")
	}
	c.Retune(medium.Subscribe(4)) // delivers cycle 3 again: a fresh epoch
	hear(4)
	if spare(cb3.Frame) {
		t.Fatal("cycle 3's frame came back while the retuned client's delivery of it was queued")
	}
	c.AwaitCycle() // cycle 3, current again in the new epoch
	c.AwaitCycle() // cycle 4
	if !spare(cb3.Frame) {
		t.Fatal("cycle 3's frame did not come back once the client moved past it")
	}
	runtime.KeepAlive([]*bcast.CycleBroadcast{cb1, cb2, cb3})
}
