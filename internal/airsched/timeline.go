package airsched

import (
	"fmt"
	"sort"
)

// FrameKind distinguishes the two frame types on the scheduled air.
type FrameKind int

// Frame kinds.
const (
	// FrameData carries one object slot (value + control column).
	FrameData FrameKind = iota
	// FrameIndex carries one (1,m) index segment.
	FrameIndex
)

// Frame is one position in the major cycle's frame sequence.
type Frame struct {
	Kind    FrameKind
	Obj     int // object id, for FrameData
	Segment int // segment ordinal in [0,m), for FrameIndex
}

// Timeline flattens a Program into the actual on-air frame sequence of
// one major cycle — data slots with the m index segments interleaved
// evenly — and answers the timing queries clients and the simulator
// need: when an object is next fully received, when the next index
// segment lands, and how many frames fall in an interval (the tuning
// cost of continuous listening). All times are in bit-units, as in
// bcast.Layout; frames are heterogeneous (index segments are usually
// much smaller than data slots), so the timeline keeps a cumulative
// frame-end table rather than assuming fixed slot widths.
type Timeline struct {
	prog      *Program
	frames    []Frame
	ends      []int64   // ends[i]: offset at which frame i is fully received
	majorBits int64     // one major cycle, = ends[len-1]
	objEnds   [][]int64 // per object: ascending data-frame-end offsets
	objFrames [][]int   // per object: ascending data-frame indices
	indexEnds []int64   // ascending index-frame-end offsets
	indexIdx  []int     // frame indices of the index segments
}

// NewTimeline lays out the program's frames. Index segment k precedes
// the data slot at position ⌊k·S/m⌋, spreading the m segments evenly
// over the S data slots.
func NewTimeline(p *Program) *Timeline {
	slots := p.slots
	s, m := len(slots), p.indexM
	segBits := p.IndexSegmentBits()
	slotBits := p.layout.SlotBits()

	t := &Timeline{
		prog:      p,
		objEnds:   make([][]int64, p.layout.Objects),
		objFrames: make([][]int, p.layout.Objects),
	}
	next := 0 // next index segment to place
	var at int64
	for pos, obj := range slots {
		for next < m && pos == next*s/m {
			at += segBits
			t.frames = append(t.frames, Frame{Kind: FrameIndex, Segment: next})
			t.ends = append(t.ends, at)
			t.indexEnds = append(t.indexEnds, at)
			t.indexIdx = append(t.indexIdx, len(t.frames)-1)
			next++
		}
		at += slotBits
		t.frames = append(t.frames, Frame{Kind: FrameData, Obj: obj})
		t.ends = append(t.ends, at)
		t.objEnds[obj] = append(t.objEnds[obj], at)
		t.objFrames[obj] = append(t.objFrames[obj], len(t.frames)-1)
	}
	t.majorBits = at
	return t
}

// Program returns the underlying broadcast program.
func (t *Timeline) Program() *Program { return t.prog }

// Frames returns the frame sequence of one major cycle. Callers must
// not mutate the result.
func (t *Timeline) Frames() []Frame { return t.frames }

// FrameCount reports frames per major cycle (data slots + index
// segments).
func (t *Timeline) FrameCount() int { return len(t.frames) }

// MajorBits is the length of one major cycle in bit-units.
func (t *Timeline) MajorBits() int64 { return t.majorBits }

// frameEnd reports the within-cycle offset at which frame i is fully
// received.
func (t *Timeline) frameEnd(i int) int64 { return t.ends[i] }

// NextOccurrence reports how many frames after frame `from` the next
// data frame carrying obj completes, wrapping around the major cycle:
// 1 means the immediately following frame. This is the offset an index
// segment at `from` publishes for obj.
func (t *Timeline) NextOccurrence(from, obj int) int {
	idxs := t.objFrames[obj]
	if len(idxs) == 0 {
		panic(fmt.Sprintf("airsched: object %d never broadcast", obj))
	}
	i := sort.SearchInts(idxs, from+1)
	if i < len(idxs) {
		return idxs[i] - from
	}
	return idxs[0] + len(t.frames) - from
}

// NextIndexDistance reports how many frames after frame `from` the
// next index segment completes, wrapping around; 0 if the program has
// no index. This is the next-index pointer every frame carries so a
// cold client can stop listening after one probe frame.
func (t *Timeline) NextIndexDistance(from int) int {
	if len(t.indexIdx) == 0 {
		return 0
	}
	i := sort.SearchInts(t.indexIdx, from+1)
	if i < len(t.indexIdx) {
		return t.indexIdx[i] - from
	}
	return t.indexIdx[0] + len(t.frames) - from
}

// cycleOf splits absolute time into (major cycle ordinal ≥ 0, offset
// within it). An exact cycle boundary belongs to the cycle it ends —
// the last frame completes exactly there, and NextReady must be
// idempotent at frame-end instants.
func (t *Timeline) cycleOf(at float64) (int64, float64) {
	if at <= 0 {
		return 0, 0
	}
	c := int64(at) / t.majorBits
	within := at - float64(c)*float64(t.majorBits)
	if within == 0 {
		return c - 1, float64(t.majorBits)
	}
	return c, within
}

// nextEnd finds the earliest entry of ends ≥ from (within-cycle); ok
// is false when none remains this cycle.
func nextEnd(ends []int64, from float64) (int64, bool) {
	i := sort.Search(len(ends), func(i int) bool { return float64(ends[i]) >= from })
	if i == len(ends) {
		return 0, false
	}
	return ends[i], true
}

// NextReady reports the earliest absolute time ≥ at which obj is fully
// received, with the 1-based major-cycle number of that transmission —
// the contract of the flat clock bcast.Layout.NextReady, over the
// program's own slots and shifted by the index segments sharing the air,
// except that an exact cycle boundary belongs to the cycle it closes
// (cycleOf).
func (t *Timeline) NextReady(at float64, obj int) (float64, int64) {
	ends := t.objEnds[obj]
	c, within := t.cycleOf(at)
	if off, ok := nextEnd(ends, within); ok {
		return float64(c)*float64(t.majorBits) + float64(off), c + 1
	}
	return float64(c+1)*float64(t.majorBits) + float64(ends[0]), c + 2
}

// NextIndexEnd reports the earliest absolute time ≥ at by which an
// index segment is fully received; ok is false when the program
// broadcasts no index.
func (t *Timeline) NextIndexEnd(at float64) (float64, bool) {
	if len(t.indexEnds) == 0 {
		return 0, false
	}
	c, within := t.cycleOf(at)
	if off, ok := nextEnd(t.indexEnds, within); ok {
		return float64(c)*float64(t.majorBits) + float64(off), true
	}
	return float64(c+1)*float64(t.majorBits) + float64(t.indexEnds[0]), true
}

// NextFrameEnd reports the earliest absolute time ≥ at by which any
// frame is fully received — the cost of one probe: a client waking at
// `at` must listen through the tail of the in-flight frame plus the
// next full one to synchronize.
func (t *Timeline) NextFrameEnd(at float64) float64 {
	c, within := t.cycleOf(at)
	if off, ok := nextEnd(t.ends, within); ok {
		return float64(c)*float64(t.majorBits) + float64(off)
	}
	return float64(c+1)*float64(t.majorBits) + float64(t.ends[0])
}

// FramesIn counts frame completions in the half-open interval (a, b] —
// the number of frames a continuously listening client receives, i.e.
// the tuning cost of the unindexed path.
func (t *Timeline) FramesIn(a, b float64) int64 {
	if b <= a {
		return 0
	}
	return t.endsUpTo(b) - t.endsUpTo(a)
}

// endsUpTo counts frame completions in [0, x].
func (t *Timeline) endsUpTo(x float64) int64 {
	if x < 0 {
		return 0
	}
	c, within := t.cycleOf(x)
	i := sort.Search(len(t.ends), func(i int) bool { return float64(t.ends[i]) > within })
	return c*int64(len(t.ends)) + int64(i)
}
