package dgram

import "encoding/binary"

// Filter is the stateless ingress filter (the udpx
// GenerateChonkle/BasicPacketFilter idiom): a pure function over the
// packet bytes that rejects garbage — random noise, truncated
// datagrams, traffic for other channels, corrupt headers — before any
// allocation or protocol state is touched. It checks, in cost order:
//
//  1. minimum length (one comparison),
//  2. the 4-byte magic and the version byte,
//  3. length consistency against the header's plen field,
//  4. the channel id,
//  5. the 8-byte header hash over everything after the hash field.
//
// Only step 5 reads the whole packet, and a packet that gets there has
// already matched 11 exact header bytes — random input is rejected in
// the first few comparisons. Filter never allocates and shares no
// state, so any number of receive loops can call it concurrently.
func Filter(pkt []byte, channel uint32) bool {
	if !hasHeader(pkt) {
		return false
	}
	if len(pkt) != headerLen+int(binary.BigEndian.Uint16(pkt[37:39])) {
		return false
	}
	if binary.BigEndian.Uint32(pkt[14:18]) != channel {
		return false
	}
	return binary.BigEndian.Uint64(pkt[5:13]) == packetHash(pkt[13:])
}
