package bcast

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"weak"
)

// Frame is a received frame with an owner count. A tuner reads each
// cycle's frame into one, and the cycle viewed from it is Cycle, refilled
// in place, Values and View included. Every holder of the cycle holds one
// count: the medium's last cycle and each queued delivery, the client's
// current cycle, a validator that keeps the View, a cache entry that
// keeps a vector or grouped View. When the last count is released the
// frame goes back to the FrameSlot it came from, and a later frame and
// its cycle are read into it. A holder that never releases only keeps
// its frame out of the slot; an early release is the one way to read
// another cycle.
//
// A nil *Frame counts nothing: cycles built in process or decoded from a
// buffer nobody recycles carry none, and Retain and Release on them are
// no-ops.
type Frame struct {
	Data  []byte
	Cycle CycleBroadcast
	refs  atomic.Int32
	slot  *FrameSlot
}

// Retain adds a holder.
func (f *Frame) Retain() {
	if f != nil {
		f.refs.Add(1)
	}
}

// Release drops a holder. The last one hands the frame back to its slot.
func (f *Frame) Release() {
	if f == nil {
		return
	}
	switch n := f.refs.Add(-1); {
	case n == 0:
		poison(f)
		f.slot.put(f)
	case n < 0:
		panic("bcast: frame released more often than retained")
	}
}

// FrameSlot is a tuner's supply of frames: at most one spare, held only
// weakly. A spare held strongly, or a sync.Pool whose victim cache
// survives a collection, would keep a whole frame live between cycles;
// a weak one costs no live heap, and a collection that finds the spare
// unused drops it, so the next Get allocates.
type FrameSlot struct {
	mu    sync.Mutex
	spare weak.Pointer[Frame]
	fresh atomic.Int64
}

// Get returns a frame of n bytes with one count, the caller's: the
// spare when there is one large enough, else a new frame rounded up to
// frameCap, so a frame growing a little per cycle allocates per step.
func (s *FrameSlot) Get(n int) *Frame {
	s.mu.Lock()
	f := s.spare.Value()
	s.spare = weak.Pointer[Frame]{}
	s.mu.Unlock()
	if f == nil || cap(f.Data) < n {
		s.fresh.Add(1)
		f = &Frame{Data: make([]byte, n, frameCap(n)), slot: s}
	}
	f.Data = f.Data[:n]
	f.refs.Store(1)
	return f
}

// frameCap rounds n up about as the allocator's size classes do, in one
// allocation where slices.Grow makes two under the race detector: to
// whole 8 KiB pages past 32 KiB, the allocator's own rounding there, and
// below that to a step of one eighth to one sixteenth of n.
func frameCap(n int) int {
	step := 8 << 10
	if n <= 32<<10 {
		step = max(8, 1<<max(0, bits.Len(uint(n))-4))
	}
	return (n + step - 1) &^ (step - 1)
}

// Fresh reports how many frames Get has had to allocate.
func (s *FrameSlot) Fresh() int64 { return s.fresh.Load() }

// put makes f the spare.
func (s *FrameSlot) put(f *Frame) {
	s.mu.Lock()
	s.spare = weak.Make(f)
	s.mu.Unlock()
}
