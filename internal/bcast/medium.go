package bcast

import (
	"fmt"
	"sync"

	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
)

// CycleBroadcast is the content of one broadcast cycle as received by a
// client: the committed values of every object as of the beginning of
// the cycle plus the control information the configured protocol
// requires. Exactly one of Matrix / View / Vector / Grouped is non-nil,
// except for ControlNone layouts where Matrix carries the (free)
// F-Matrix-No control information. View is the control of a received
// frame read in place (wire.ViewCycle), under every layout on the air.
//
// Off a tuner the whole cycle is valid while a holder keeps it: each
// holder has a count on Frame (Retain), and once the last lets go
// (Release) the frame and the cycle it carries (Frame.Cycle) are read
// over by a later cycle. Whoever is handed a cycle through a Subscription
// holds the count that delivery took; the client's current cycle, the
// cycle AwaitCycle returns, is valid until the client makes another
// current or retunes.
type CycleBroadcast struct {
	Number cmatrix.Cycle
	Layout Layout
	// Values are shared, never copied per listener: in process they are
	// the server's committed slices, off a tuner windows onto the
	// received frame. Read them; copy what must outlive your hold on the
	// cycle.
	Values [][]byte

	Matrix  *cmatrix.Matrix
	View    MatrixView
	Vector  *cmatrix.Vector
	Grouped *cmatrix.Grouped

	// Written lists, sorted and distinct, the objects written during the
	// previous cycle: the only ones whose value and column (or vector
	// entry) differ from that cycle's, which lets a sender rewrite just
	// those records of its last frame, in place (wire.PatchCycle). Nil is
	// unknown — cycle 1, any decoded cycle — and empty that nothing moved.
	// A superset is legal; a missing object leaves the previous cycle's
	// record on the air, stale. Readers never write it.
	Written []int

	// Frame counts the holders of the received frame Values and View
	// alias; nil when nothing is counted (in process, DecodeCycle).
	Frame *Frame
}

// Retain adds a holder of the cycle's frame.
func (cb *CycleBroadcast) Retain() {
	if cb != nil {
		cb.Frame.Retain()
	}
}

// Release drops a holder of the cycle's frame; the last returns it to
// the tuner's slot.
func (cb *CycleBroadcast) Release() {
	if cb != nil {
		cb.Frame.Release()
	}
}

// MatrixView is control read in place: Bound(i, j) is C(i, j), MC(i,
// group(j)) or V(i) by layout; Col (matrix only) copies column j.
type MatrixView interface {
	protocol.Snapshot
	Col(j int, buf []cmatrix.Cycle) []cmatrix.Cycle
}

// Snapshot returns the protocol.Snapshot a validator should use for
// reads performed during this cycle: the non-nil control value itself.
func (cb *CycleBroadcast) Snapshot() protocol.Snapshot {
	switch {
	case cb.Matrix != nil:
		return cb.Matrix
	case cb.View != nil:
		return cb.View
	case cb.Vector != nil:
		return cb.Vector
	case cb.Grouped != nil:
		return cb.Grouped
	default:
		panic("bcast: cycle broadcast carries no control information")
	}
}

// Column returns a copy of the F-Matrix control column for object j,
// the control a cached value is validated by (Section 3.3); a caching
// client copies it into its cache's own storage instead
// (qcache.Cache.PutColumn). It is only available under matrix layouts.
func (cb *CycleBroadcast) Column(j int) protocol.ColumnSnapshot {
	if cb.Matrix == nil && (cb.View == nil || cb.Layout.Control != ControlMatrix) {
		panic(fmt.Sprintf("bcast: no matrix column available under %v layout", cb.Layout.Control))
	}
	return protocol.ColumnOf(cb.Snapshot(), j, len(cb.Values))
}

// Medium is the in-process broadcast channel: the server publishes each
// cycle once and every subscriber receives it. Subscribers consume from
// a buffered channel; a subscriber that falls more than its buffer
// behind misses cycles (as a real client that tunes out would), rather
// than stalling the broadcaster — broadcast media do not apply
// backpressure. The medium holds a count on its last cycle and on each
// delivery it queues; the subscriber that receives a delivery owns its
// count (CycleBroadcast.Release).
type Medium struct {
	mu     sync.Mutex
	subs   map[int]chan *CycleBroadcast
	nextID int
	closed bool
	last   *CycleBroadcast
}

// NewMedium returns an empty medium.
func NewMedium() *Medium {
	return &Medium{subs: map[int]chan *CycleBroadcast{}}
}

// Subscription is a client's tuner: a receive channel of cycles plus a
// cancel handle.
type Subscription struct {
	C      <-chan *CycleBroadcast
	id     int
	medium *Medium
}

// Cancel tears the subscription down; the channel is closed.
func (s *Subscription) Cancel() {
	s.medium.mu.Lock()
	defer s.medium.mu.Unlock()
	if ch, ok := s.medium.subs[s.id]; ok {
		delete(s.medium.subs, s.id)
		close(ch)
	}
}

// Subscribe registers a listener with the given channel buffer
// (minimum 1). The most recently published cycle, if any, is delivered
// immediately so late tuners don't wait a full cycle.
func (m *Medium) Subscribe(buffer int) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		ch := make(chan *CycleBroadcast)
		close(ch)
		return &Subscription{C: ch, id: -1, medium: m}
	}
	ch := make(chan *CycleBroadcast, buffer)
	if m.last != nil {
		m.last.Retain()
		ch <- m.last
	}
	id := m.nextID
	m.nextID++
	m.subs[id] = ch
	return &Subscription{C: ch, id: id, medium: m}
}

// Publish broadcasts one cycle to every subscriber. Slow subscribers
// whose buffers are full miss this cycle.
func (m *Medium) Publish(cb *CycleBroadcast) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	cb.Retain()
	m.last.Release()
	m.last = cb
	for _, ch := range m.subs {
		cb.Retain()
		select {
		case ch <- cb:
		default: // subscriber missed the cycle
			cb.Release()
		}
	}
}

// Close shuts the medium down; all subscriber channels are closed.
func (m *Medium) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	m.last.Release()
	m.last = nil
	for id, ch := range m.subs {
		delete(m.subs, id)
		close(ch)
	}
}

// Subscribers reports the current number of subscribers.
func (m *Medium) Subscribers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.subs)
}
