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
// stream carries (full cycles, BCG1 grouped, program-mode
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
// frames mid-cycle, and recoverable desynchronization (a grouped frame
// whose partition baseline is missing) where the decoder waits for the
// next partition-bearing frame, exactly like a tuner that missed a
// broadcast. Errors are terminal stream corruption; a BCD1 cycle delta
// is one, since only program mode's bucket deltas go on the air.
type FrameDecoder struct {
	asm       assembler
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
// A full or grouped frame's cycle carries the count and the decoder
// keeps nothing of it. The assembler keeps program index and bucket
// frames, and takes a count on them it never releases, so those frames
// stay out of the tuner's slot.
func (d *FrameDecoder) decode(frame []byte, lease *bcast.Frame) (*bcast.CycleBroadcast, error) {
	switch kind := wire.KindOf(frame); kind {
	case wire.KindIndex, wire.KindBucket:
		// Program-mode stream: reassemble whole cycles from the index
		// and bucket frames.
		lease.Retain()
		return d.asm.feed(frame)
	case wire.KindGrouped:
		cb, epoch, err := wire.DecodeGroupedCycle(frame, d.lastPart, d.lastEpoch)
		if err != nil {
			// Tuned in mid-stream, or the partition moved while a frame
			// was lost: wait for the next partition-bearing frame.
			d.lastPart = nil
			return nil, nil
		}
		// Only the Values alias the frame; the partition is built fresh.
		d.lastPart, d.lastEpoch = cb.Grouped.Part(), epoch
		cb.Frame = lease
		return cb, nil
	case wire.KindCycle:
		return wire.ViewFrame(frame, lease)
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
