package bcast

import (
	"slices"
	"testing"
)

// TestMediumHoldsFrames: the medium holds a count on its last cycle and
// on every delivery it queues, gives a missed delivery's count straight
// back, and lets go of its last cycle when the next replaces it or it
// closes; the subscriber owns what it receives. A frame comes back out
// of its slot exactly when its last holder lets go, and a release past
// zero panics.
func TestMediumHoldsFrames(t *testing.T) {
	var slot FrameSlot
	cycle := func(n int) *CycleBroadcast {
		return &CycleBroadcast{Frame: slot.Get(n)}
	}
	// back reports whether f is the slot's spare, and puts it back.
	back := func(f *Frame) bool {
		g := slot.Get(len(f.Data))
		defer g.Release()
		return g == f
	}
	m := NewMedium()
	sub := m.Subscribe(1)
	cb1, cb2 := cycle(8), cycle(8)
	m.Publish(cb1)
	cb1.Release()  // the reader's count
	m.Publish(cb2) // sub's buffer is full: cb2 is missed
	cb2.Release()
	if back(cb1.Frame) {
		t.Fatal("cycle 1 came back while its delivery was queued")
	}
	(<-sub.C).Release()
	if !back(cb1.Frame) {
		t.Fatal("cycle 1 did not come back once its delivery was released")
	}
	late := m.Subscribe(1) // delivers the last cycle, cb2
	m.Close()
	if back(cb2.Frame) {
		t.Fatal("cycle 2 came back while a late subscriber's delivery was queued")
	}
	(<-late.C).Release()
	if !back(cb2.Frame) {
		t.Fatal("cycle 2 did not come back after the medium closed and its delivery was released")
	}
	if f := slot.Get(16); f == cb2.Frame {
		t.Fatal("a spare too small for the frame was handed out")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a release past zero did not panic")
		}
	}()
	cb1.Release() // its frame is the spare, held by nobody
}

// TestNilFrameCountsNothing: in-process cycles carry no frame, and
// Retain and Release on them do nothing.
func TestNilFrameCountsNothing(t *testing.T) {
	var cb *CycleBroadcast
	cb.Retain()
	cb.Release()
	cb = &CycleBroadcast{}
	cb.Retain()
	cb.Release()
	cb.Release()
}

// TestFreshFrameAllocs: a Get with no spare allocates the frame and its
// bytes, two allocations, in a plain build and under the race detector
// alike.
func TestFreshFrameAllocs(t *testing.T) {
	var slot FrameSlot
	for _, n := range []int{362, 4000, 397 << 10} {
		if got := testing.AllocsPerRun(20, func() { _ = slot.Get(n) }); got != 2 {
			t.Errorf("Get(%d) with no spare made %v allocations, want 2", n, got)
		}
	}
}

// TestFrameCapacity: past 32 KiB a frame is as large as slices.Grow
// makes it, whole pages; below, it rounds up by less than an eighth, to
// the size classes TestGrowingFramesAllocateBySizeClass crosses.
func TestFrameCapacity(t *testing.T) {
	for _, n := range []int{32<<10 + 1, 40000, 397 << 10, 1 << 20} {
		if got, want := frameCap(n), cap(slices.Grow([]byte(nil), n)); got != want {
			t.Errorf("frameCap(%d) = %d, slices.Grow gives %d", n, got, want)
		}
	}
	for n := 0; n <= 32<<10; n++ {
		if c := frameCap(n); c < n || c > n+max(8, n/8) {
			t.Fatalf("frameCap(%d) = %d, want within [n, n + n/8]", n, c)
		}
	}
	for n, want := range map[int]int{324: 352, 352: 352, 362: 384} {
		if got := frameCap(n); got != want {
			t.Errorf("frameCap(%d) = %d, want %d", n, got, want)
		}
	}
}
