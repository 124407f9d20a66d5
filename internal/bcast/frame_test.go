package bcast

import "testing"

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
