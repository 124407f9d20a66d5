package client

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/qcache"
	"broadcastcc/internal/server"
	"broadcastcc/internal/wire"
)

// TestCacheKeepsNoFrame: a caching client fed the cycles a tuner
// delivers — a wire.ViewCycle view over each received frame — caches a
// copy of every column it reads, in the entry's block, never the view,
// which pins the whole frame. Once the client has moved past a cycle
// and the transaction that read it has finished, that cycle's frame is
// collectable.
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
			} else if _, copied := snap.(*qcache.Block); !copied {
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

// TestCachedReadAllocs: a read served by the cache and a read that
// misses and caches allocate once each, the caller's copy of the value,
// whether the cycle is the server's own or a tuner's view of its frame:
// the miss refills the block an eviction freed, column and value both.
func TestCachedReadAllocs(t *testing.T) {
	const n = 8
	for _, tuner := range []bool{false, true} {
		name := map[bool]string{false: "in-process", true: "view"}[tuner]
		t.Run(name, func(t *testing.T) {
			initial := make([][]byte, n)
			for obj := range initial {
				initial[obj] = bytes.Repeat([]byte{byte(obj)}, 64)
			}
			srv, err := server.New(server.Config{Objects: n, ObjectBits: 512, Algorithm: protocol.FMatrix, InitialValues: initial})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			medium := bcast.NewMedium()
			defer medium.Close()
			c := New(Config{Algorithm: protocol.FMatrix, CacheCurrency: 4, CacheSize: 4}, medium.Subscribe(4))
			commitWrite(t, srv, 1, string(bytes.Repeat([]byte{7}, 64)), 0)
			cb := srv.StartCycle()
			if tuner {
				frame, err := wire.EncodeCycle(cb)
				if err != nil {
					t.Fatal(err)
				}
				if cb, err = wire.ViewCycle(frame); err != nil || cb.View == nil {
					t.Fatalf("a view-backed cycle was wanted, got %v", err)
				}
			}
			medium.Publish(cb)
			c.AwaitCycle()
			var val protocol.Validator = &protocol.SnapshotValidator{}
			read := func(obj int) {
				v, err := c.read(&val, obj)
				if err != nil || len(v) != 64 {
					t.Fatalf("read %d = %d bytes, %v", obj, len(v), err)
				}
				val.Reset()
			}
			for obj := 0; obj < n; obj++ { // fill the cache, and free blocks
				read(obj)
			}
			hits := c.Stats().CacheHits
			if allocs := testing.AllocsPerRun(100, func() {
				c.cache.Remove(1)
				read(1)
			}); allocs != 1 {
				t.Fatalf("a miss allocates %.1f times, want 1", allocs)
			}
			if allocs := testing.AllocsPerRun(100, func() { read(1) }); allocs != 1 {
				t.Fatalf("a hit allocates %.1f times, want 1", allocs)
			}
			if got := c.Stats().CacheHits - hits; got != 101 {
				t.Fatalf("%d cache hits, want the 101 runs of the second", got)
			}
		})
	}
}

// TestCacheHoldsGroupedView: under grouped control a caching client's
// entry keeps the cycle's view whole, with a count on its frame, and
// lets go of it when the entry leaves the cache — seen as the frame
// coming back out of the tuner's slot only once the entry has expired.
func TestCacheHoldsGroupedView(t *testing.T) {
	const n, g = 8, 2
	var slot bcast.FrameSlot
	medium := bcast.NewMedium()
	defer medium.Close()
	mc := cmatrix.NewGroupedControl(cmatrix.UniformPartition(n, g)).Grouped()
	hear := func(number cmatrix.Cycle) *bcast.CycleBroadcast {
		t.Helper()
		data, err := wire.EncodeCycle(&bcast.CycleBroadcast{
			Number: number, Layout: bcast.LayoutFor(protocol.Grouped, n, 64, 8, g),
			Values: make([][]byte, n), Grouped: mc,
		})
		if err != nil {
			t.Fatal(err)
		}
		f := slot.Get(len(data))
		copy(f.Data, data)
		cb, err := wire.ViewFrame(f.Data, f)
		if err != nil || cb.View == nil {
			t.Fatalf("cycle %d: a grouped view was wanted, got %v", number, err)
		}
		medium.Publish(cb)
		f.Release() // the reader's count
		return cb
	}
	spare := func(f *bcast.Frame) bool {
		got := slot.Get(len(f.Data))
		defer got.Release()
		return got == f
	}
	c := New(Config{Algorithm: protocol.Grouped, CacheCurrency: 1}, medium.Subscribe(4))
	cb1 := hear(1)
	c.AwaitCycle()
	txn := c.BeginReadOnly()
	if _, err := txn.Read(0); err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	if _, _, snap, ok := c.cache.Get(0, 1); !ok || snap != protocol.Snapshot(cb1.View) {
		t.Fatalf("object 0 cached with %T, want cycle 1's view", snap)
	}
	cb2 := hear(2)
	c.AwaitCycle()
	if spare(cb1.Frame) {
		t.Fatal("cycle 1's frame came back while a cache entry kept its view")
	}
	hear(3)
	c.AwaitCycle() // expires the entry cached in cycle 1
	if !spare(cb1.Frame) {
		t.Fatal("cycle 1's frame did not come back once its cache entry expired")
	}
	runtime.KeepAlive([]*bcast.CycleBroadcast{cb1, cb2})
}
