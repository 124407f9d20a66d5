package netcast

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"

	"broadcastcc/internal/airsched"
	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/wire"
)

// ProgramEncoder is the program-mode transmitter. It encodes each major
// cycle as the airsched timeline's frame sequence — (1,m) index
// segments interleaved with per-object bucket frames — instead of one
// monolithic cycle frame. Control columns ride as deltas against the
// object's previous broadcast occurrence (chained by per-object
// sequence numbers), with a full refresh every refreshEvery occurrences
// so late tuners and clients that missed frames can resynchronize; at
// refreshEvery 0 every column is full. It needs no socket: Server.Step
// holds one, and the conformance oracle drives another.
type ProgramEncoder struct {
	tl           *airsched.Timeline
	refreshEvery int
	seqs         []uint32          // occurrences sent, per object
	prevCols     [][]cmatrix.Cycle // the last column sent, per object
	col          []cmatrix.Cycle   // the next column's storage: a retired prevCols entry
	offs         []int             // an index segment's offsets, rewritten per segment
	frames       [][]byte          // frame i of the timeline, rebuilt each cycle in its own storage
}

// NewProgramEncoder returns the transmitter of program p, before its
// first cycle.
func NewProgramEncoder(p *airsched.Program, refreshEvery int) *ProgramEncoder {
	n := p.Layout().Objects
	tl := airsched.NewTimeline(p)
	return &ProgramEncoder{
		tl:           tl,
		refreshEvery: refreshEvery,
		seqs:         make([]uint32, n),
		prevCols:     make([][]cmatrix.Cycle, n),
		offs:         make([]int, n),
		frames:       make([][]byte, tl.FrameCount()),
	}
}

// Encode encodes cb as the program's frames, one per timeline frame,
// and reports the bytes that went out as full and as delta payload. The
// frames are the encoder's own storage, valid until the next Encode.
func (e *ProgramEncoder) Encode(cb *bcast.CycleBroadcast) (frames [][]byte, fullBytes, deltaBytes int64, err error) {
	tl := e.tl
	for i, f := range tl.Frames() {
		data := e.frames[i][:0]
		switch f.Kind {
		case airsched.FrameIndex:
			for obj := range e.offs {
				e.offs[obj] = tl.NextOccurrence(i, obj)
			}
			data, err = wire.AppendIndexFrame(data, &wire.IndexFrame{
				Number:    cb.Number,
				Segment:   f.Segment,
				M:         tl.Program().IndexM(),
				Frames:    tl.FrameCount(),
				NextIndex: tl.NextIndexDistance(i),
				Offsets:   e.offs, // copied into the frame
			})
			fullBytes += int64(len(data))
		case airsched.FrameData:
			obj := f.Obj
			e.seqs[obj]++
			col, cerr := wire.Column(cb, obj, e.col[:0])
			if cerr != nil {
				return nil, 0, 0, cerr
			}
			var prev []cmatrix.Cycle
			if e.refreshEvery > 0 && (e.seqs[obj]-1)%uint32(e.refreshEvery) != 0 {
				prev = e.prevCols[obj]
			}
			// Room for the largest bucket of this column, a delta changing
			// every entry, so the frame's storage is allocated only once.
			if need := int(wire.BucketBits(cb.Layout, len(col)) / 8); cap(data) < need {
				data = make([]byte, 0, need)
			}
			data, err = wire.AppendBucket(data, &wire.Bucket{
				Number:    cb.Number,
				Layout:    cb.Layout,
				Obj:       obj,
				Seq:       e.seqs[obj],
				NextIndex: tl.NextIndexDistance(i),
				Value:     cb.Values[obj],
				Column:    col,
			}, prev)
			if prev != nil {
				deltaBytes += int64(len(data))
			} else {
				fullBytes += int64(len(data))
			}
			e.prevCols[obj], e.col = col, e.prevCols[obj]
		}
		if err != nil {
			return nil, 0, 0, err
		}
		e.frames[i] = data
	}
	return e.frames, fullBytes, deltaBytes, nil
}

// ErrBrokenChain marks a delta bucket whose base occurrence the
// receiver never heard.
var ErrBrokenChain = errors.New("netcast: delta chain broken")

// BucketChain follows the per-object delta chains of a program-mode
// stream: for each object, the last occurrence this receiver decoded.
// A nil chain cannot record; start one as BucketChain{}.
type BucketChain map[int]occurrence

// occurrence is a decoded bucket's sequence number and reconstructed
// control column.
type occurrence struct {
	seq uint32
	col []cmatrix.Cycle
}

// Decode decodes a bucket frame, resolving a delta column against the
// object's previous occurrence. ErrBrokenChain means that occurrence
// was missed; the object's next full refresh restores the chain.
func (c BucketChain) Decode(frame []byte) (*wire.Bucket, error) {
	_, obj, seq, delta, _, err := wire.BucketInfo(frame)
	if err != nil {
		return nil, err
	}
	var prev []cmatrix.Cycle
	if delta {
		last := c[obj]
		if last.seq+1 != seq || last.col == nil {
			return nil, ErrBrokenChain
		}
		prev = last.col
	}
	b, err := wire.DecodeBucket(frame, prev)
	if err != nil {
		return nil, err
	}
	c[obj] = occurrence{seq, b.Column}
	return b, nil
}

// assembler reconstructs whole broadcast cycles from a program-mode
// frame stream for the flat-listening Tuner: every frame is decoded,
// delta chains are followed per object, and a cycle is published as
// soon as every object has been heard at least once. Incompletely
// received cycles (mid-cycle tune-in, dropped frames) are discarded —
// the client sees them as an ordinary gap.
type assembler struct {
	number    cmatrix.Cycle
	layout    bcast.Layout
	haveStart bool
	values    [][]byte
	cols      [][]cmatrix.Cycle
	seen      []bool
	nSeen     int

	chain BucketChain
}

// begin resets per-cycle state for major cycle number.
func (a *assembler) begin(number cmatrix.Cycle, layout bcast.Layout) {
	a.number = number
	a.layout = layout
	a.haveStart = true
	a.values = make([][]byte, layout.Objects)
	a.cols = make([][]cmatrix.Cycle, layout.Objects)
	a.seen = make([]bool, layout.Objects)
	a.nSeen = 0
}

// feed consumes one program-mode frame, returning a completed cycle
// when this frame finished one.
func (a *assembler) feed(frame []byte) (*bcast.CycleBroadcast, error) {
	switch kind := wire.KindOf(frame); kind {
	case wire.KindIndex:
		// Only a selective tuner follows the index; decoding it still
		// rejects a malformed one.
		_, err := wire.DecodeIndexFrame(frame)
		return nil, err
	case wire.KindBucket:
	default:
		return nil, fmt.Errorf("netcast: %v frame in a program-mode stream", kind)
	}
	b, err := a.chain.Decode(frame)
	if errors.Is(err, ErrBrokenChain) {
		// Skip the occurrence; a full refresh will restore the chain.
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	obj := b.Obj
	if !a.haveStart || b.Number != a.number {
		a.begin(b.Number, b.Layout)
	}
	if obj >= a.layout.Objects {
		return nil, fmt.Errorf("netcast: bucket object %d outside layout of %d objects", obj, a.layout.Objects)
	}
	if a.seen[obj] {
		return nil, nil
	}
	a.seen[obj] = true
	a.values[obj], a.cols[obj] = b.Value, b.Column
	if a.nSeen++; a.nSeen < a.layout.Objects {
		return nil, nil
	}
	return a.build() // the first hearing of the last missing object
}

// build assembles the completed cycle broadcast.
func (a *assembler) build() (*bcast.CycleBroadcast, error) {
	cb := &bcast.CycleBroadcast{
		Number: a.number,
		Layout: a.layout,
		Values: a.values,
	}
	var err error
	switch a.layout.Control {
	case bcast.ControlMatrix:
		cb.Matrix, err = cmatrix.MatrixFromColumns(a.cols)
	case bcast.ControlVector:
		entries := make([]cmatrix.Cycle, a.layout.Objects)
		for j, col := range a.cols {
			entries[j] = col[0]
		}
		cb.Vector, err = cmatrix.VectorFromEntries(entries)
	case bcast.ControlGrouped:
		cb.Grouped, err = cmatrix.GroupedFromRows(cmatrix.UniformPartition(a.layout.Objects, a.layout.Groups), a.cols)
	default:
		err = fmt.Errorf("netcast: cannot assemble %v control", a.layout.Control)
	}
	if err != nil {
		return nil, err
	}
	return cb, nil
}

// SelectiveStats count the frames a selective tuner spent listening
// (decoding — the battery cost the paper calls tuning time) versus
// dozing (received but deliberately not decoded), and the wakeups that
// found nothing usable.
type SelectiveStats struct {
	FramesListened int64
	FramesDozed    int64
	IndexMisses    int64
}

// SelectiveTuner is the (1,m) air-index client receiver: instead of
// decoding every frame like Tune, it probes a single frame to find the
// next index segment, dozes to it, reads the object's
// offset-to-next-occurrence, dozes again, and decodes exactly the
// frame carrying the requested object. Over TCP "dozing" means the
// frame is consumed but never decoded — the tuning-time accounting is
// exact while the transport stays ordinary sockets.
//
// A SelectiveTuner is not safe for concurrent use: one outstanding
// ReadObject at a time, matching a single physical tuner.
type SelectiveTuner struct {
	conn   net.Conn
	frames chan []byte
	done   chan struct{}
	err    error

	// The tuning counters behind Stats; the pump goroutine bumps dozed
	// on queue overflow while ReadObject runs.
	listened, dozed, misses atomic.Int64

	chain BucketChain
}

// TuneSelective connects a selective tuner to a broadcast address. The
// stream must be in program mode (index/bucket frames).
func TuneSelective(addr string) (*SelectiveTuner, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := &SelectiveTuner{
		conn:   conn,
		frames: make(chan []byte, 4096),
		done:   make(chan struct{}),
		chain:  BucketChain{},
	}
	go t.pump()
	return t, nil
}

// pump moves raw frames from the socket into the frame queue so the
// server never blocks on this subscriber. The queue models the radio:
// frames arrive whether or not anyone is listening.
func (t *SelectiveTuner) pump() {
	defer close(t.done)
	defer close(t.frames)
	for {
		frame, err := ReadFrame(t.conn)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) {
				t.err = err
			}
			return
		}
		select {
		case t.frames <- frame:
		default:
			// Queue overflow: the tuner slept through its buffer. Drop
			// the oldest to keep position tracking monotone.
			select {
			case <-t.frames:
				t.dozed.Add(1)
			default:
			}
			select {
			case t.frames <- frame:
			default:
			}
		}
	}
}

// Stats returns a copy of the tuning counters.
func (t *SelectiveTuner) Stats() SelectiveStats {
	return SelectiveStats{
		FramesListened: t.listened.Load(),
		FramesDozed:    t.dozed.Load(),
		IndexMisses:    t.misses.Load(),
	}
}

// next consumes the next frame from the air.
func (t *SelectiveTuner) next() ([]byte, error) {
	frame, ok := <-t.frames
	if !ok {
		if t.err != nil {
			return nil, t.err
		}
		return nil, io.EOF
	}
	return frame, nil
}

// listen dozes through skip frames — consumed, never decoded — and
// returns the frame it wakes for.
func (t *SelectiveTuner) listen(skip int) ([]byte, error) {
	for i := 0; i < skip; i++ {
		if _, err := t.next(); err != nil {
			return nil, err
		}
	}
	t.dozed.Add(int64(skip))
	frame, err := t.next()
	if err == nil {
		t.listened.Add(1)
	}
	return frame, err
}

// ReadObject waits for the next receivable broadcast of obj and
// returns its bucket (value + reconstructed control column + major
// cycle number). The canonical (1,m) path costs three listened frames:
// one probe, one index segment, one data frame; a broken delta chain
// or lost synchronization counts an IndexMiss and retries until a
// decodable occurrence (at worst the object's next full refresh)
// arrives.
func (t *SelectiveTuner) ReadObject(obj int) (*wire.Bucket, error) {
	for {
		// Probe: decode one frame, whatever it is.
		frame, err := t.listen(0)
		if err != nil {
			return nil, err
		}
		switch wire.KindOf(frame) {
		case wire.KindBucket:
			b, derr := t.chain.Decode(frame)
			if derr == nil && b.Obj == obj {
				return b, nil // lucky probe
			}
			_, _, _, _, nextIndex, ierr := wire.BucketInfo(frame)
			if ierr != nil {
				return nil, ierr
			}
			if nextIndex == 0 {
				// Unindexed program: no doze schedule exists; keep
				// listening frame by frame.
				continue
			}
			if frame, err = t.listen(nextIndex - 1); err != nil {
				return nil, err
			}
			if wire.KindOf(frame) != wire.KindIndex {
				t.misses.Add(1) // lost sync with the schedule
				continue
			}
		case wire.KindIndex:
		default:
			return nil, fmt.Errorf("netcast: selective tuning requires a program-mode stream, got frame %q", frame[:min(4, len(frame))])
		}
		idx, err := wire.DecodeIndexFrame(frame)
		if err != nil {
			return nil, err
		}
		if obj < 0 || obj >= len(idx.Offsets) {
			return nil, fmt.Errorf("netcast: object %d outside broadcast of %d objects", obj, len(idx.Offsets))
		}
		// Doze to the frame before the object's occurrence, then listen.
		if frame, err = t.listen(idx.Offsets[obj] - 1); err != nil {
			return nil, err
		}
		if wire.KindOf(frame) != wire.KindBucket {
			t.misses.Add(1)
			continue
		}
		b, err := t.chain.Decode(frame)
		if err != nil {
			if errors.Is(err, ErrBrokenChain) {
				t.misses.Add(1) // wait for the object's next full refresh
				continue
			}
			return nil, err
		}
		if b.Obj != obj {
			t.misses.Add(1)
			continue
		}
		return b, nil
	}
}

// Close tears the selective tuner down.
func (t *SelectiveTuner) Close() error {
	t.conn.Close()
	<-t.done
	return t.err
}
