package dgram

import (
	"encoding/binary"
	"fmt"
)

// Datagram layout (all multi-byte integers big-endian):
//
//	offset  field
//	0       magic     4 bytes  "BCK1"
//	4       version   1 byte   packet-format version (currently 1)
//	5       hash      8 bytes  header hash over bytes [13, end) — the
//	                           stateless ingress filter's check word
//	13      flags     1 byte   bit 0: repair packet
//	14      channel   4 bytes  broadcast channel id
//	18      pktSeq    8 bytes  per-channel packet sequence (monotone,
//	                           repair packets included)
//	26      group     8 bytes  FEC group id (monotone)
//	34      gIdx      1 byte   shard index: data 0..K-1, repair 0..R-1
//	35      gData     1 byte   K — data shards in this group
//	36      gRepair   1 byte   R — repair shards appended to this group
//	37      plen      2 bytes  protected-region length
//	39      protected region (plen bytes)
//
// The protected region is the FEC-coded unit. For a data packet it is a
// shard header plus payload:
//
//	0       cycle     8 bytes  broadcast cycle number
//	8       frameSeq  4 bytes  wire-frame ordinal within the cycle
//	12      frameLen  4 bytes  total length of the wire frame
//	16      shardOff  4 bytes  this shard's offset within the frame
//	20      shardLen  2 bytes  payload bytes that follow
//	22      payload   shardLen bytes
//
// For a repair packet the protected region is parity bytes over the
// group's data regions zero-padded to the group maximum — so a
// reconstructed region yields the lost shard's placement (cycle,
// frameSeq, offset) along with its payload, and the receiver needs no
// side channel to re-home repaired data.

// Magic identifies a broadcast datagram. It was "BCD1", the cycle-delta
// frame's magic, until PR 14; packets under the old magic are rejected.
var Magic = [4]byte{'B', 'C', 'K', '1'}

// Version is the current packet-format version.
const Version = 1

const (
	headerLen      = 4 + 1 + 8 + 1 + 4 + 8 + 8 + 1 + 1 + 1 + 2
	shardHeaderLen = 8 + 4 + 4 + 4 + 2

	flagRepair = 1 << 0

	// maxMTU bounds a datagram far above any real path MTU while keeping
	// plen in its 16-bit field.
	maxMTU = 64 << 10
	// maxFECShards bounds K; groups larger than this would make
	// reconstruction quadratically expensive for no erasure benefit.
	maxFECShards = 64
	// maxFECRepair bounds R: the power-parity construction is verified
	// MDS (every erasure pattern decodable) only up to 3 repair shards.
	maxFECRepair = 3
)

// hashSalt seeds the header hash so all-zero garbage never passes.
const hashSalt uint64 = 0xbcd1_c0de_5eed_f00d

// packetHash is the ingress check word: FNV-1a over the packet bytes
// after the hash field (flags, channel, sequence numbers, group
// geometry and the whole protected region), seeded with a fixed salt.
// One multiply and one xor per byte, no allocation — cheap enough to
// run on every received datagram before anything else looks at it.
func packetHash(b []byte) uint64 {
	h := hashSalt
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// header is a decoded datagram header.
type header struct {
	Repair  bool
	Channel uint32
	PktSeq  uint64
	Group   uint64
	GIdx    int
	GData   int
	GRepair int
	// Region is the protected region, aliasing the packet buffer.
	Region []byte
}

// shardHeader is a decoded data-shard header (the leading bytes of a
// data packet's protected region).
type shardHeader struct {
	Cycle    int64
	FrameSeq int
	FrameLen int
	ShardOff int
	ShardLen int
}

// encodePacket assembles one datagram: header fields, protected region,
// and the filter hash stamped last.
func encodePacket(repair bool, channel uint32, pktSeq, group uint64, gIdx, gData, gRepair int, region []byte) []byte {
	pkt := make([]byte, headerLen+len(region))
	copy(pkt[0:4], Magic[:])
	pkt[4] = Version
	if repair {
		pkt[13] = flagRepair
	}
	binary.BigEndian.PutUint32(pkt[14:18], channel)
	binary.BigEndian.PutUint64(pkt[18:26], pktSeq)
	binary.BigEndian.PutUint64(pkt[26:34], group)
	pkt[34] = byte(gIdx)
	pkt[35] = byte(gData)
	pkt[36] = byte(gRepair)
	binary.BigEndian.PutUint16(pkt[37:39], uint16(len(region)))
	copy(pkt[headerLen:], region)
	binary.BigEndian.PutUint64(pkt[5:13], packetHash(pkt[13:]))
	return pkt
}

// hasHeader is the one place the magic is compared: pkt is long enough
// for a header and opens with the magic and the version.
func hasHeader(pkt []byte) bool {
	return len(pkt) >= headerLen && [4]byte(pkt[0:4]) == Magic && pkt[4] == Version
}

// decodeHeader parses a datagram that already passed Filter. It still
// re-validates the structural fields the filter does not look at, so it
// is safe on arbitrary input too.
func decodeHeader(pkt []byte) (header, error) {
	var h header
	if !hasHeader(pkt) {
		return h, fmt.Errorf("dgram: %d-byte packet does not open with a %d-byte version-%d %q header", len(pkt), headerLen, Version, Magic[:])
	}
	if pkt[13]&^flagRepair != 0 {
		return h, fmt.Errorf("dgram: unknown flags %#x", pkt[13])
	}
	plen := int(binary.BigEndian.Uint16(pkt[37:39]))
	if len(pkt) != headerLen+plen {
		return h, fmt.Errorf("dgram: packet is %d bytes but header describes %d", len(pkt), headerLen+plen)
	}
	h.Repair = pkt[13]&flagRepair != 0
	h.Channel = binary.BigEndian.Uint32(pkt[14:18])
	h.PktSeq = binary.BigEndian.Uint64(pkt[18:26])
	h.Group = binary.BigEndian.Uint64(pkt[26:34])
	h.GIdx = int(pkt[34])
	h.GData = int(pkt[35])
	h.GRepair = int(pkt[36])
	h.Region = pkt[headerLen:]
	if h.GData < 1 || h.GData > maxFECShards || h.GRepair > maxFECRepair {
		return h, fmt.Errorf("dgram: implausible FEC group geometry %d+%d", h.GData, h.GRepair)
	}
	if h.Repair {
		if h.GIdx >= h.GRepair {
			return h, fmt.Errorf("dgram: repair index %d out of [0,%d)", h.GIdx, h.GRepair)
		}
	} else if h.GIdx >= h.GData {
		return h, fmt.Errorf("dgram: data index %d out of [0,%d)", h.GIdx, h.GData)
	}
	if !h.Repair && len(h.Region) < shardHeaderLen {
		return h, fmt.Errorf("dgram: data region of %d bytes is shorter than the %d-byte shard header", len(h.Region), shardHeaderLen)
	}
	return h, nil
}

// encodeShardRegion builds a data packet's protected region.
func encodeShardRegion(cycle int64, frameSeq, frameLen, shardOff int, payload []byte) []byte {
	region := make([]byte, shardHeaderLen+len(payload))
	binary.BigEndian.PutUint64(region[0:8], uint64(cycle))
	binary.BigEndian.PutUint32(region[8:12], uint32(frameSeq))
	binary.BigEndian.PutUint32(region[12:16], uint32(frameLen))
	binary.BigEndian.PutUint32(region[16:20], uint32(shardOff))
	binary.BigEndian.PutUint16(region[20:22], uint16(len(payload)))
	copy(region[shardHeaderLen:], payload)
	return region
}

// decodeShardRegion parses a protected region as a data shard. Used on
// received data packets and on FEC-reconstructed regions (which carry
// zero padding beyond the true payload).
func decodeShardRegion(region []byte) (shardHeader, []byte, error) {
	var sh shardHeader
	if len(region) < shardHeaderLen {
		return sh, nil, fmt.Errorf("dgram: shard region of %d bytes is shorter than the %d-byte shard header", len(region), shardHeaderLen)
	}
	sh.Cycle = int64(binary.BigEndian.Uint64(region[0:8]))
	sh.FrameSeq = int(binary.BigEndian.Uint32(region[8:12]))
	sh.FrameLen = int(binary.BigEndian.Uint32(region[12:16]))
	sh.ShardOff = int(binary.BigEndian.Uint32(region[16:20]))
	sh.ShardLen = int(binary.BigEndian.Uint16(region[20:22]))
	if sh.Cycle < 1 {
		return sh, nil, fmt.Errorf("dgram: bad shard cycle number %d", sh.Cycle)
	}
	if sh.FrameLen < 1 || sh.FrameLen > maxFrameLen {
		return sh, nil, fmt.Errorf("dgram: shard names a frame of %d bytes (limit %d)", sh.FrameLen, maxFrameLen)
	}
	if sh.ShardLen < 1 || len(region) < shardHeaderLen+sh.ShardLen {
		return sh, nil, fmt.Errorf("dgram: shard payload of %d bytes does not fit a %d-byte region", sh.ShardLen, len(region))
	}
	if sh.ShardOff < 0 || sh.ShardOff+sh.ShardLen > sh.FrameLen {
		return sh, nil, fmt.Errorf("dgram: shard [%d,%d) outside its %d-byte frame", sh.ShardOff, sh.ShardOff+sh.ShardLen, sh.FrameLen)
	}
	return sh, region[shardHeaderLen : shardHeaderLen+sh.ShardLen], nil
}

// maxFrameLen bounds the wire frames the reassembler will buffer,
// mirroring netcast's stream frame limit.
const maxFrameLen = 16 << 20
