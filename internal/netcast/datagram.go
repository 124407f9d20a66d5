package netcast

import (
	"fmt"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/dgram"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/wire"
)

// Connectionless datapath integration: the same frame formats the TCP
// stream carries (full/delta cycles, BCG1 grouped, program-mode
// index/bucket) ride internal/dgram datagrams instead. The server
// transmits each frame exactly once per channel — zero marginal cost
// per listener — and the TCP path remains as the conformance reference
// (the differential tests pin byte-identical decoded cycle streams).

// FrameDecoder turns the broadcast frame stream back into cycles. It is
// the transport-independent half of a tuner: the TCP Tuner feeds it
// frames off a socket, the DatagramTuner feeds it frames reassembled
// from datagrams, and both produce identical cycle streams for
// identical frame streams — which is exactly what the differential
// conformance tests pin.
//
// Decode returns (nil, nil) for frames that complete no cycle: program
// frames mid-cycle, and recoverable desynchronization (a delta against
// a cycle this tuner never heard, a grouped frame whose partition
// baseline is missing) where the decoder waits for the next
// self-contained frame, exactly like a tuner that missed a broadcast.
// Errors are terminal stream corruption.
type FrameDecoder struct {
	asm       assembler
	last      *bcast.CycleBroadcast // a delta's base, or nil while it is lastFull
	lastFull  []byte                // a BCC1 frame, decoded only if a delta follows
	fullLease *bcast.Frame          // the decoder's count on lastFull
	lastPart  *cmatrix.Partition
	lastEpoch uint64
}

// NewFrameDecoder builds a decoder in the "just tuned in" state.
func NewFrameDecoder() *FrameDecoder {
	return &FrameDecoder{asm: assembler{chain: BucketChain{}}}
}

// Decode consumes one wire frame, returning a completed cycle when the
// frame finished one. The cycle's Values alias frame (wire.ViewCycle):
// the caller gives the buffer up, as ReadFrame and dgram.Reassembler do.
func (d *FrameDecoder) Decode(frame []byte) (*bcast.CycleBroadcast, error) {
	return d.decode(frame, nil)
}

// decode is Decode of a frame whose holders lease counts (nil: none).
// Only a full frame's cycle carries the count. Whatever the decoder
// keeps of any other frame — the assembler's buckets, a delta's base and
// the cycles built on it — takes a count it never releases, so those
// frames stay out of the tuner's slot.
func (d *FrameDecoder) decode(frame []byte, lease *bcast.Frame) (*bcast.CycleBroadcast, error) {
	kind := wire.KindOf(frame)
	if kind != wire.KindCycle {
		lease.Retain()
	}
	switch kind {
	case wire.KindIndex, wire.KindBucket:
		// Program-mode stream: reassemble whole cycles from the index
		// and bucket frames.
		return d.asm.feed(frame)
	case wire.KindGrouped:
		cb, epoch, err := wire.DecodeGroupedCycle(frame, d.lastPart, d.lastEpoch)
		if err != nil {
			// Tuned in mid-stream, or the partition moved while a frame
			// was lost: wait for the next partition-bearing frame.
			d.lastPart = nil
			return nil, nil
		}
		d.lastPart, d.lastEpoch = cb.Grouped.Part(), epoch
		return cb, nil
	case wire.KindDelta:
		if d.lastFull != nil {
			// The base aliases lastFull, whose count is kept for good.
			d.last, _ = wire.DecodeCycle(d.lastFull) // ViewCycle accepted it
			d.lastFull, d.fullLease = nil, nil
		}
		if d.last == nil {
			return nil, nil // tuned in mid-stream: wait for the next full frame
		}
		cb, err := wire.DecodeCycleDelta(frame, d.last)
		if err != nil {
			// Out of sync (e.g. a dropped frame): resynchronize on the
			// next full frame rather than dying.
			d.last = nil
			return nil, nil
		}
		d.last = cb
		return cb, nil
	case wire.KindCycle:
		cb, err := wire.ViewFrame(frame, lease)
		if err != nil {
			return nil, err
		}
		lease.Retain()
		d.fullLease.Release()
		d.last, d.lastFull, d.fullLease = nil, frame, lease
		return cb, nil
	default:
		return nil, fmt.Errorf("netcast: %v frame on the broadcast stream", kind)
	}
}

// AttachDatagram makes every subsequent Deliver also broadcast the cycle's
// frames over the datagram sender — one transmission per channel,
// regardless of how many tuners listen. The TCP subscribers keep
// receiving the identical frames; the two paths share the encoders, so
// they can only diverge if the carrier does. Attach before the first
// Deliver; the sender must not be shared with another server.
func (s *Server) AttachDatagram(sender *dgram.Sender) {
	s.dsender = sender
}

// DatagramTuner is a client's receiver on the connectionless datapath:
// it pulls datagrams from a PacketSource, reassembles frames
// (internal/dgram: ingress filter, dedup, FEC repair) and hands them to
// the same receiver (FrameDecoder + local medium) the TCP tuner uses.
// Packets the source lost are simply gone; the tuner resynchronizes on
// the next frame it reassembles whole.
type DatagramTuner struct {
	src   dgram.PacketSource
	reasm *dgram.Reassembler
	receiver
}

// TuneDatagram starts receiving from src. reg (may be nil) receives the
// dgram_* receive counters.
func TuneDatagram(src dgram.PacketSource, cfg dgram.Config, reg *obs.Registry) (*DatagramTuner, error) {
	reasm, err := dgram.NewReassembler(cfg, reg)
	if err != nil {
		return nil, err
	}
	t := &DatagramTuner{src: src, reasm: reasm, receiver: newReceiver()}
	go t.loop()
	return t, nil
}

func (t *DatagramTuner) loop() {
	for {
		pkt, err := t.src.Recv()
		if err != nil {
			// End of stream: emit what the reorder gate was still
			// holding before reporting how the source ended.
			t.publish(t.reasm.Flush())
			t.stop(err)
			return
		}
		if !t.publish(t.reasm.Ingest(pkt)) {
			t.stop(nil)
			return
		}
	}
}

// publish delivers reassembled frames in order; false means the stream
// is terminally corrupt.
func (t *DatagramTuner) publish(frames []dgram.Frame) bool {
	for _, f := range frames {
		if !t.deliver(f.Data, nil) {
			return false
		}
	}
	return true
}

// Close tears the tuner down and waits for its receive loop.
func (t *DatagramTuner) Close() error {
	t.src.Close()
	<-t.done
	return t.err
}
