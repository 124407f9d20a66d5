package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"broadcastcc/internal/cmatrix"
)

// This file carries the persistent quasi-caching tier (Section 3.3 as a
// first-class subsystem, DESIGN.md §13): BCQ1 cache records, the
// on-disk representation of one cached object — value, caching cycle,
// and the cached control column that keeps validation air-only after a
// restart. Records are versioned and checksummed so recovery can
// discard torn tails byte-exactly.
//
// All multi-byte integers are big-endian.

// Cache record layout:
//
//	magic    4 bytes  "BCQ1"
//	version  1 byte   (currently 2; version 1 ended in an FNV-1a 64)
//	kind     1 byte   0 = put, 1 = delete
//	obj      4 bytes
//	cycle    8 bytes  caching cycle (unwrapped)
//	vlen     4 bytes  value length (0 for deletes)
//	value    vlen bytes
//	clen     4 bytes  control column entries (0 for deletes)
//	column   8 bytes each, unwrapped cycles (disk pays no air bandwidth)
//	crc      4 bytes  CRC-32C (Castagnoli) over everything above

// CacheRecordVersion is the current record codec version; decoders
// reject records from a future codec rather than misparse them.
const CacheRecordVersion = 2

// cacheRecordMinBytes is an empty record: the fixed fields, a zero
// value, a zero column, the checksum.
const cacheRecordMinBytes = 26 + 4

// crc32c is the record checksum, CRC-32C, which hash/crc32 computes with
// the CPU's CRC32 instruction where there is one. MakeTable hands back
// the library's one Castagnoli table, built on first use, so a program
// that never writes a record never pays for it.
func crc32c(p []byte) uint32 { return crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)) }

// Cache record kinds.
const (
	CachePut    = 0 // an object entered (or refreshed in) the cache
	CacheDelete = 1 // an object left the cache
)

// CacheRecord is one logical cache mutation: a put carries the cached
// value, its caching cycle and the control column retained for
// validation; a delete carries only the object id.
type CacheRecord struct {
	Kind  byte
	Obj   int
	Cycle cmatrix.Cycle
	Value []byte
	Col   []cmatrix.Cycle // Col[i] = C(i, Obj) at the caching cycle
}

// EncodeCacheRecord serializes one cache record, checksummed.
func EncodeCacheRecord(rec CacheRecord) []byte {
	return AppendCacheRecord(make([]byte, 0, CacheRecordSize(rec)), rec)
}

// CacheRecordSize is the encoded length of rec.
func CacheRecordSize(rec CacheRecord) int {
	return cacheRecordMinBytes + len(rec.Value) + 8*len(rec.Col)
}

// AppendCacheRecord appends rec's encoding to buf; it allocates only if
// buf lacks CacheRecordSize(rec) bytes of spare capacity.
func AppendCacheRecord(buf []byte, rec CacheRecord) []byte {
	start := len(buf)
	buf = append(buf, KindCacheRecord.magic()...)
	buf = append(buf, CacheRecordVersion, rec.Kind)
	buf = binary.BigEndian.AppendUint32(buf, uint32(rec.Obj))
	buf = binary.BigEndian.AppendUint64(buf, uint64(rec.Cycle))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rec.Value)))
	buf = append(buf, rec.Value...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rec.Col)))
	for _, c := range rec.Col {
		buf = binary.BigEndian.AppendUint64(buf, uint64(c))
	}
	return binary.BigEndian.AppendUint32(buf, crc32c(buf[start:]))
}

// DecodeCacheRecord parses one cache record, verifying version and
// checksum. Any corruption — torn tail, flipped bit, trailing bytes —
// is an error, never a wrong record.
func DecodeCacheRecord(data []byte) (CacheRecord, error) {
	var rec CacheRecord
	if err := KindCacheRecord.check(data); err != nil {
		return rec, err
	}
	rec.Kind = data[5]
	if rec.Kind != CachePut && rec.Kind != CacheDelete {
		return rec, fmt.Errorf("wire: bad cache record kind %d", rec.Kind)
	}
	rec.Obj = int(binary.BigEndian.Uint32(data[6:10]))
	rec.Cycle = cmatrix.Cycle(binary.BigEndian.Uint64(data[10:18]))
	vlen := int(binary.BigEndian.Uint32(data[18:22]))
	off := 22
	if err := minLen(data, int64(off)+4, int64(vlen), 1); err != nil {
		return rec, err
	}
	if vlen > 0 {
		rec.Value = append([]byte(nil), data[off:off+vlen]...)
	}
	off += vlen
	clen := int(binary.BigEndian.Uint32(data[off : off+4]))
	off += 4
	if err := minLen(data, int64(off)+4, int64(clen), 8); err != nil {
		return rec, err
	}
	if clen > 0 {
		rec.Col = make([]cmatrix.Cycle, clen)
		for i := range rec.Col {
			rec.Col[i] = cmatrix.Cycle(binary.BigEndian.Uint64(data[off : off+8]))
			off += 8
		}
	}
	if binary.BigEndian.Uint32(data[off:off+4]) != crc32c(data[:off]) {
		return rec, fmt.Errorf("wire: cache record checksum mismatch")
	}
	if off+4 != len(data) {
		return rec, fmt.Errorf("wire: %d trailing bytes in cache record", len(data)-off-4)
	}
	return rec, nil
}
