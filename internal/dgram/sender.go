package dgram

import (
	"fmt"

	"broadcastcc/internal/obs"
)

// Carrier is anywhere a datagram can be launched: a real UDP socket
// (UDPCarrier) or the loopback-simulated medium (SimCarrier). Send
// transfers ownership of pkt and is called from one goroutine — the
// broadcast is a single ordered transmission, not a per-subscriber
// stream, so the sender needs no internal locking.
type Carrier interface {
	Send(pkt []byte) error
}

// Sender shards wire frames into datagrams, closes FEC groups with
// repair packets, and hands everything to a Carrier. One Sender is one
// broadcast channel: the server runs exactly one regardless of how many
// tuners are listening.
type Sender struct {
	cfg  Config
	car  Carrier
	code map[int]*fecCode // by group size k (the tail group may be short)

	pktSeq  uint64
	group   uint64
	regions [][]byte // protected regions of the open group

	ctrPackets *obs.Counter
	ctrRepair  *obs.Counter
	ctrBytes   *obs.Counter
	ctrFrames  *obs.Counter
	ctrTxErr   *obs.Counter
}

// NewSender builds a sender over car. reg may be nil.
func NewSender(car Carrier, cfg Config, reg *obs.Registry) (*Sender, error) {
	cfg = cfg.normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Sender{
		cfg:        cfg,
		car:        car,
		code:       make(map[int]*fecCode),
		ctrPackets: reg.Counter(CtrPacketsTx),
		ctrRepair:  reg.Counter(CtrRepairTx),
		ctrBytes:   reg.Counter(CtrTxBytes),
		ctrFrames:  reg.Counter(CtrFramesTx),
		ctrTxErr:   reg.Counter(CtrTxErrors),
	}, nil
}

// Config returns the sender's normalized configuration.
func (s *Sender) Config() Config { return s.cfg }

// SendCycle broadcasts one whole cycle: each frame in order, sharded
// into datagrams numbered by the frame's ordinal in the cycle. Shards
// join the open FEC group; the group closes (data plus repair packets
// hit the carrier) each time it reaches K shards, and the tail group
// closes at the end of the cycle, so a repair group never spans cycles
// — a tuner that dozed through cycle t must not need cycle t's packets
// to repair cycle t+1.
func (s *Sender) SendCycle(cycle int64, frames [][]byte) error {
	chunk := s.cfg.MTU - headerLen - shardHeaderLen
	for seq, frame := range frames {
		if len(frame) == 0 {
			return fmt.Errorf("dgram: empty frame")
		}
		if len(frame) > maxFrameLen {
			return fmt.Errorf("dgram: frame of %d bytes exceeds the %d limit", len(frame), maxFrameLen)
		}
		for off := 0; off < len(frame); off += chunk {
			end := min(off+chunk, len(frame))
			s.regions = append(s.regions, encodeShardRegion(cycle, seq, len(frame), off, frame[off:end]))
			if len(s.regions) == s.cfg.FECData {
				if err := s.closeGroup(); err != nil {
					return err
				}
			}
		}
		s.ctrFrames.Inc()
	}
	return s.closeGroup()
}

// closeGroup emits the buffered data shards followed by their repair
// packets. Data packets are stamped with the group's true size, so a
// short tail group is self-describing and the receiver never waits for
// shards that were not sent. The group always closes — even when the
// carrier refuses packets — so a transient socket error (e.g. ICMP
// port-unreachable feedback on a unicast destination with no listener
// yet) behaves like wire loss instead of corrupting the group geometry.
func (s *Sender) closeGroup() error {
	k := len(s.regions)
	if k == 0 {
		return nil
	}
	r := s.cfg.FECRepair
	for i, region := range s.regions {
		s.emit(encodePacket(false, s.cfg.Channel, s.pktSeq, s.group, i, k, r, region))
		s.ctrPackets.Inc()
	}
	if r > 0 {
		size := 0
		for _, region := range s.regions {
			if len(region) > size {
				size = len(region)
			}
		}
		code, ok := s.code[k]
		if !ok {
			code = newFECCode(k, r)
			s.code[k] = code
		}
		for p, par := range code.encodeParity(s.regions, size) {
			s.emit(encodePacket(true, s.cfg.Channel, s.pktSeq, s.group, p, k, r, par))
			s.ctrRepair.Inc()
		}
	}
	s.group++
	s.regions = s.regions[:0]
	return nil
}

// emit launches one datagram. The medium is connectionless and
// best-effort: a carrier refusal is counted (dgram_tx_errors) and
// treated as a lost packet — receivers recover through FEC exactly as
// they do from wire loss — rather than propagated as backpressure the
// broadcast cannot honor.
func (s *Sender) emit(pkt []byte) {
	s.pktSeq++
	s.ctrBytes.Add(int64(len(pkt)))
	if err := s.car.Send(pkt); err != nil {
		s.ctrTxErr.Inc()
	}
}
