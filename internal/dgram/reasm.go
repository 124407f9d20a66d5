package dgram

import (
	"broadcastcc/internal/obs"
)

// Frame is one reassembled wire frame, delivered in server transmission
// order (cycle ascending, then frame ordinal ascending).
type Frame struct {
	Cycle int64
	Seq   int
	Data  []byte
}

const (
	// dedupWindow is the sliding packet-sequence window (in packets)
	// within which duplicates are detected; packets older than the window
	// are dropped as stale.
	dedupWindow = 4096
	// reorderWindow bounds how long (in packet sequence) an incomplete
	// frame or FEC group may make no progress before it is abandoned.
	// It must exceed the widest FEC group (maxFECShards + maxFECRepair
	// packets) so a group is never dropped while still arriving.
	reorderWindow = 128
	// reorderSlack is how far (in packet sequence) a packet may still
	// arrive behind a newer one. Reorder on a broadcast medium is
	// shallow; the slack exceeds the deepest lag the datapath is tested
	// against (7 transmit slots). A missing packet stops holding back
	// in-order emission once it can no longer arrive or be rebuilt (see
	// seqAccounted).
	reorderSlack = 8
)

type frameKey struct {
	cycle int64
	seq   int
}

type frameState struct {
	length    int
	buf       []byte
	filled    int
	got       map[int]bool // shard offsets already written
	minPktSeq uint64
	lastSeq   uint64 // newest contributing packet, the staleness clock
	repaired  bool
	complete  bool
}

type groupState struct {
	k, r int
	// start..end is the group's packet span: data shards, then repair.
	start, end uint64
	data       [][]byte
	parity     [][]byte
	have       int
	size       int // max region length seen, the FEC padding width
	lastSeq    uint64
	minSeq     uint64
	done       bool
}

// Reassembler turns an unordered, lossy, duplicated stream of datagrams
// back into the ordered frame stream the server transmitted. It is the
// receive half of the datapath: ingress filter, dedup window, FEC group
// reconstruction, frame assembly, and in-order emission. Not safe for
// concurrent use; each tuner owns one.
type Reassembler struct {
	cfg  Config
	code map[int]*fecCode

	// Packet-sequence dedup: a sliding bitmap over the last dedupWindow
	// sequence numbers (the received packets).
	started bool
	maxSeq  uint64
	seen    [dedupWindow / 64]uint64
	// contig is the highest sequence number up to which every packet is
	// accounted for — received, or unable to arrive or be rebuilt. A
	// complete frame is held back while packets before its first shard
	// are unaccounted: they may carry an earlier frame still in flight.
	contig uint64

	groups map[uint64]*groupState
	frames map[frameKey]*frameState
	// emitted tracks the newest (cycle, seq) already delivered upward so
	// stragglers for old frames are dropped rather than re-assembled.
	emitted   frameKey
	anyEmit   bool
	scratch   []Frame
	ctrRx     *obs.Counter
	ctrFilter *obs.Counter
	ctrDup    *obs.Counter
	ctrRepRx  *obs.Counter
	ctrFrames *obs.Counter
	ctrFixed  *obs.Counter
	ctrLost   *obs.Counter
}

// NewReassembler builds a reassembler for one channel. reg may be nil.
func NewReassembler(cfg Config, reg *obs.Registry) (*Reassembler, error) {
	cfg = cfg.normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Reassembler{
		cfg:       cfg,
		code:      make(map[int]*fecCode),
		groups:    make(map[uint64]*groupState),
		frames:    make(map[frameKey]*frameState),
		ctrRx:     reg.Counter(CtrPacketsRx),
		ctrFilter: reg.Counter(CtrFilterDrops),
		ctrDup:    reg.Counter(CtrDupDrops),
		ctrRepRx:  reg.Counter(CtrRepairRx),
		ctrFrames: reg.Counter(CtrFramesRx),
		ctrFixed:  reg.Counter(CtrFramesRepaired),
		ctrLost:   reg.Counter(CtrFramesLost),
	}, nil
}

// Ingest processes one received datagram and returns any wire frames
// that became deliverable, in transmission order. The packet buffer is
// not retained.
func (r *Reassembler) Ingest(pkt []byte) []Frame {
	if !Filter(pkt, r.cfg.Channel) {
		r.ctrFilter.Inc()
		return nil
	}
	h, err := decodeHeader(pkt)
	if err != nil {
		r.ctrFilter.Inc()
		return nil
	}
	if !r.admitSeq(h.PktSeq) {
		r.ctrDup.Inc()
		return nil
	}
	r.ctrRx.Inc()
	if h.Repair {
		r.ctrRepRx.Inc()
	}
	r.ingestGroup(h)
	r.evictStale()
	return r.drain()
}

// admitSeq slides the dedup window and reports whether seq is new.
func (r *Reassembler) admitSeq(seq uint64) bool {
	if !r.started {
		r.started = true
		r.maxSeq = seq
		// Everything further than a reorder window before the first
		// packet is considered accounted for; the stretch just before it
		// may still be in flight (the first packets of a transmission
		// can themselves arrive reordered). ^0 means "nothing yet".
		if seq >= reorderWindow {
			r.contig = seq - reorderWindow - 1
		} else {
			r.contig = ^uint64(0)
		}
		for i := range r.seen {
			r.seen[i] = 0
		}
		r.markSeq(seq)
		return true
	}
	if seq > r.maxSeq {
		// Clear the bitmap slots the window just slid over.
		step := seq - r.maxSeq
		if step >= dedupWindow {
			for i := range r.seen {
				r.seen[i] = 0
			}
		} else {
			for s := r.maxSeq + 1; s <= seq; s++ {
				r.seen[(s%dedupWindow)/64] &^= 1 << (s % 64)
			}
		}
		r.maxSeq = seq
		r.markSeq(seq)
		return true
	}
	if r.maxSeq-seq >= dedupWindow {
		return false // beyond the window: indistinguishable from a dup
	}
	idx, bit := (seq%dedupWindow)/64, uint64(1)<<(seq%64)
	if r.seen[idx]&bit != 0 {
		return false
	}
	r.seen[idx] |= bit
	return true
}

func (r *Reassembler) markSeq(seq uint64) {
	r.seen[(seq%dedupWindow)/64] |= 1 << (seq % 64)
}

// ingestGroup files the packet's protected region into its FEC group.
// Data shards also feed frame assembly immediately — the code is
// systematic, so payload never waits on the group. When enough of a
// group arrives to reconstruct its erasures, the recovered regions are
// fed as if their packets had arrived.
func (r *Reassembler) ingestGroup(h header) {
	g, ok := r.groups[h.Group]
	if !ok {
		start := h.PktSeq - uint64(h.GIdx)
		if h.Repair {
			start -= uint64(h.GData)
		}
		g = &groupState{k: h.GData, r: h.GRepair, start: start, end: start + uint64(h.GData+h.GRepair) - 1,
			minSeq: h.PktSeq, lastSeq: h.PktSeq}
		g.data = make([][]byte, g.k)
		g.parity = make([][]byte, g.r)
		r.groups[h.Group] = g
	}
	if g.done || h.GData != g.k || h.GRepair != g.r {
		// A straggler for a finished group, or a geometry mismatch that
		// survived the hash check (practically: a duplicate beyond the
		// dedup window).
		r.ctrDup.Inc()
		return
	}
	if h.PktSeq < g.minSeq {
		g.minSeq = h.PktSeq
	}
	if h.PktSeq > g.lastSeq {
		g.lastSeq = h.PktSeq
	}
	region := append([]byte(nil), h.Region...)
	if h.Repair {
		if g.parity[h.GIdx] != nil {
			r.ctrDup.Inc()
			return
		}
		g.parity[h.GIdx] = region
	} else {
		if g.data[h.GIdx] != nil {
			r.ctrDup.Inc()
			return
		}
		g.data[h.GIdx] = region
		r.feedShard(region, h.PktSeq, false)
	}
	g.have++
	if len(region) > g.size {
		g.size = len(region)
	}
	r.tryReconstruct(g)
}

// tryReconstruct closes the group once every data shard is accounted
// for — directly or through parity.
func (r *Reassembler) tryReconstruct(g *groupState) {
	missing := 0
	for _, d := range g.data {
		if d == nil {
			missing++
		}
	}
	if missing == 0 {
		g.finish()
		return
	}
	if g.have < g.k {
		return
	}
	code, ok := r.code[g.k]
	if !ok {
		code = newFECCode(g.k, g.r)
		r.code[g.k] = code
	}
	before := make([]bool, g.k)
	for i, d := range g.data {
		before[i] = d == nil
	}
	if err := code.reconstruct(g.data, g.parity, g.size); err != nil {
		return
	}
	for i, wasMissing := range before {
		if wasMissing {
			r.feedShard(g.data[i], g.minSeq, true)
		}
	}
	g.finish()
}

func (g *groupState) finish() {
	g.done = true
	g.data = nil
	g.parity = nil
}

// feedShard writes one data shard (received or reconstructed) into its
// frame.
func (r *Reassembler) feedShard(region []byte, pktSeq uint64, reconstructed bool) {
	sh, payload, err := decodeShardRegion(region)
	if err != nil {
		return
	}
	key := frameKey{sh.Cycle, sh.FrameSeq}
	if r.anyEmit && !r.emitted.less(key) {
		return // the frame already went upward; this is a straggler
	}
	f, ok := r.frames[key]
	if !ok {
		f = &frameState{
			length:    sh.FrameLen,
			buf:       make([]byte, sh.FrameLen),
			got:       make(map[int]bool),
			minPktSeq: pktSeq,
			lastSeq:   pktSeq,
		}
		r.frames[key] = f
	}
	if f.length != sh.FrameLen || f.got[sh.ShardOff] {
		return
	}
	if pktSeq < f.minPktSeq {
		f.minPktSeq = pktSeq
	}
	if pktSeq > f.lastSeq {
		f.lastSeq = pktSeq
	}
	copy(f.buf[sh.ShardOff:], payload)
	f.got[sh.ShardOff] = true
	f.filled += len(payload)
	f.repaired = f.repaired || reconstructed
	if f.filled >= f.length {
		f.complete = true
	}
}

func (a frameKey) less(b frameKey) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

// evictStale abandons incomplete frames and groups that made no
// progress for a whole reorder window — their missing packets are lost,
// not late. An abandoned frame is loss the FEC could not reach; the
// tuner above resynchronizes exactly as it does for a faultair-missed
// cycle. Staleness is judged by the newest contributing packet, not the
// oldest, so a frame large enough to span many packets is never evicted
// while still streaming in.
func (r *Reassembler) evictStale() {
	if r.maxSeq < reorderWindow {
		return
	}
	horizon := r.maxSeq - reorderWindow
	for id, g := range r.groups {
		if g.lastSeq < horizon {
			delete(r.groups, id)
		}
	}
	for key, f := range r.frames {
		if !f.complete && f.lastSeq < horizon {
			delete(r.frames, key)
			r.ctrLost.Inc()
		}
	}
}

// seqAccounted reports whether packet s has been received or can no
// longer arrive or be rebuilt: its FEC group is done, or the newest
// packet has passed the end of its group — or, when nothing of its group
// was heard, s itself — by more than reorderSlack.
func (r *Reassembler) seqAccounted(s uint64) bool {
	if r.maxSeq-s > reorderWindow || r.seen[(s%dedupWindow)/64]&(1<<(s%64)) != 0 {
		return true
	}
	for _, g := range r.groups {
		if s >= g.start && s <= g.end {
			return g.done || r.maxSeq > g.end+reorderSlack
		}
	}
	return r.maxSeq-s > reorderSlack
}

// advanceContig walks the accounted-for frontier forward.
func (r *Reassembler) advanceContig() {
	for r.contig != r.maxSeq {
		s := r.contig + 1
		if !r.seqAccounted(s) {
			return
		}
		r.contig = s
	}
}

// Flush abandons every in-progress frame and group and emits whatever
// complete frames remain, in order. Call it when the stream ends (the
// source hit EOF) so frames held back by the reorder gate are not
// stranded; after Flush the reassembler keeps working if more packets
// do arrive.
func (r *Reassembler) Flush() []Frame {
	for key, f := range r.frames {
		if !f.complete {
			delete(r.frames, key)
			r.ctrLost.Inc()
		}
	}
	for id := range r.groups {
		delete(r.groups, id)
	}
	r.contig = r.maxSeq
	return r.drain()
}

// drain emits completed frames in transmission order. A complete frame
// leaves once nothing transmitted before it can still show up: every
// packet before the frame's first shard is accounted for (data shards
// are transmitted in frame order, so an unaccounted earlier packet
// could carry an earlier frame still in flight). An earlier frame still
// incomplete then can never complete — its missing packets can neither
// arrive nor be rebuilt — so it does not hold the frame back; the
// decoder above treats the hole like any other missed broadcast, and
// evictStale abandons it.
func (r *Reassembler) drain() []Frame {
	r.advanceContig()
	r.scratch = r.scratch[:0]
	for {
		var best frameKey
		var bestState *frameState
		for key, f := range r.frames {
			if !f.complete {
				continue
			}
			if bestState == nil || key.less(best) {
				best, bestState = key, f
			}
		}
		if bestState == nil {
			break
		}
		// best.minPktSeq <= contig+1 ⇔ all packets before the frame's
		// first shard are accounted for (the +1 wraps ^0 to 0 before
		// anything is).
		if bestState.minPktSeq > r.contig+1 {
			break
		}
		delete(r.frames, best)
		r.emitted, r.anyEmit = best, true
		r.ctrFrames.Inc()
		if bestState.repaired {
			r.ctrFixed.Inc()
		}
		r.scratch = append(r.scratch, Frame{Cycle: best.cycle, Seq: best.seq, Data: bestState.buf})
	}
	if len(r.scratch) == 0 {
		return nil
	}
	out := make([]Frame, len(r.scratch))
	copy(out, r.scratch)
	return out
}
