package faultair

import "fmt"

// Per-packet fault schedule. The per-cycle model above injects faults
// at frame granularity — right for the TCP stream, where the transport
// hides packet behavior. The datagram datapath (internal/dgram) exposes
// the real erasure channel, so its simulated medium draws per-PACKET
// fates from the same splitmix64 salt scheme: every decision is a pure
// function of (Seed, client, packet sequence), mutable-state-free, so a
// replay is byte-identical no matter the order or concurrency in which
// taps consult it.

// PacketProfile parameterizes per-packet faults on a simulated datagram
// medium. The zero value delivers every packet exactly once, in order.
type PacketProfile struct {
	// Loss is the per-client per-packet probability that a datagram is
	// erased in transit.
	Loss float64
	// Dup is the per-client per-packet probability that a surviving
	// datagram is delivered twice (the duplicate arrives immediately
	// after the original's slot).
	Dup float64
	// ReorderMax, when positive, lags each surviving datagram by a
	// uniform 0..ReorderMax packet slots, which reorders packets whose
	// lagged positions cross.
	ReorderMax int
	// Seed selects the schedule, independent of any Profile.Seed.
	Seed int64
}

// Validate reports the first problem with the profile.
func (p PacketProfile) Validate() error {
	switch {
	case p.Loss < 0 || p.Loss > 1:
		return fmt.Errorf("faultair: packet Loss = %v, need [0,1]", p.Loss)
	case p.Dup < 0 || p.Dup > 1:
		return fmt.Errorf("faultair: packet Dup = %v, need [0,1]", p.Dup)
	case p.ReorderMax < 0:
		return fmt.Errorf("faultair: packet ReorderMax = %d, need >= 0", p.ReorderMax)
	}
	return nil
}

// Zero reports whether the profile injects no packet faults at all.
func (p PacketProfile) Zero() bool {
	return p.Loss == 0 && p.Dup == 0 && p.ReorderMax == 0
}

// Decision salts for the packet schedule, disjoint from the per-cycle
// salts so the two models never share a hash stream.
const (
	saltPktLoss uint64 = iota + 101
	saltPktDup
	saltPktLag
)

// PacketSchedule answers per-packet fault questions. Immutable and safe
// for concurrent use.
type PacketSchedule struct {
	prof PacketProfile
}

// NewPacketSchedule builds the schedule, panicking on an invalid
// profile (Validate first when it comes from user input).
func NewPacketSchedule(p PacketProfile) *PacketSchedule {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &PacketSchedule{prof: p}
}

func (s *PacketSchedule) unit(client int, idx uint64, salt uint64) float64 {
	return float64(mix(s.prof.Seed, client, idx, salt)>>11) / (1 << 53)
}

// Dropped reports whether the client's copy of the idx-th transmitted
// packet is erased.
func (s *PacketSchedule) Dropped(client int, idx uint64) bool {
	return s.prof.Loss > 0 && s.unit(client, idx, saltPktLoss) < s.prof.Loss
}

// Duplicated reports whether the client's copy of the idx-th packet is
// delivered twice. A packet that is Dropped is never Duplicated.
func (s *PacketSchedule) Duplicated(client int, idx uint64) bool {
	return s.prof.Dup > 0 && !s.Dropped(client, idx) &&
		s.unit(client, idx, saltPktDup) < s.prof.Dup
}

// Lag reports how many packet slots delivery of the idx-th packet is
// deferred (0..ReorderMax). Two packets whose lagged positions cross
// arrive reordered.
func (s *PacketSchedule) Lag(client int, idx uint64) int {
	if s.prof.ReorderMax == 0 {
		return 0
	}
	return int(mix(s.prof.Seed, client, idx, saltPktLag) % uint64(s.prof.ReorderMax+1))
}

// PacketFate is the scheduled outcome for one (client, packet) pair.
type PacketFate struct {
	Index      uint64
	Dropped    bool
	Duplicated bool
	Lag        int
}

// packetTrace enumerates the client's packet fates for transmit indexes
// from..to inclusive.
func (s *PacketSchedule) packetTrace(client int, from, to uint64) []PacketFate {
	var out []PacketFate
	for i := from; i <= to; i++ {
		out = append(out, PacketFate{
			Index:      i,
			Dropped:    s.Dropped(client, i),
			Duplicated: s.Duplicated(client, i),
			Lag:        s.Lag(client, i),
		})
	}
	return out
}
