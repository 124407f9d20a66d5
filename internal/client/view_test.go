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
