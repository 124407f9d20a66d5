package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

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
//	version  1 byte   (currently 3; version 2 wrote 8-byte column
//	                  entries, version 1 ended in an FNV-1a 64)
//	kind     1 byte   0 = put, 1 = delete
//	obj      4 bytes
//	cycle    8 bytes  caching cycle (unwrapped)
//	vlen     4 bytes  value length (0 for deletes)
//	value    vlen bytes
//	clen     4 bytes  control column entries (0 for deletes)
//	width    1 byte   1, 2, 4 or 8: the narrowest that holds every entry
//	column   clen entries of width bytes, entry i = cycle − C(i, obj)
//	                  modulo 2⁶⁴, so C(i, obj) = cycle − entry exactly
//	crc      4 bytes  CRC-32C (Castagnoli) over everything above
//
// A column holds cycles at most a few thousand before the caching cycle
// at the paper's scales, so a read-cached record (64-byte value, n = 64)
// takes 1 or 2 bytes an entry — 159 or 223 bytes, where 8 took 606.

// CacheRecordVersion is the current record codec version; decoders
// reject records from a future codec rather than misparse them.
const CacheRecordVersion = 3

// cacheRecordMinBytes is an empty record: the fixed fields, a zero
// value, a zero column of width 1, the checksum.
const cacheRecordMinBytes = 26 + 4 + 1

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
	return cacheRecordMinBytes + len(rec.Value) + colWidth(rec.Cycle, rec.Col)*len(rec.Col)
}

// colWidth is the narrowest entry width, in bytes, that holds
// cycle − C for every C in col.
func colWidth(cycle cmatrix.Cycle, col []cmatrix.Cycle) int {
	var or uint64
	for _, c := range col {
		or |= uint64(cycle - c)
	}
	switch {
	case or <= math.MaxUint8:
		return 1
	case or <= math.MaxUint16:
		return 2
	case or <= math.MaxUint32:
		return 4
	}
	return 8
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
	w := colWidth(rec.Cycle, rec.Col)
	buf = append(buf, byte(w))
	for _, c := range rec.Col {
		switch d := uint64(rec.Cycle - c); w {
		case 1:
			buf = append(buf, byte(d))
		case 2:
			buf = binary.BigEndian.AppendUint16(buf, uint16(d))
		case 4:
			buf = binary.BigEndian.AppendUint32(buf, uint32(d))
		default:
			buf = binary.BigEndian.AppendUint64(buf, d)
		}
	}
	return binary.BigEndian.AppendUint32(buf, crc32c(buf[start:]))
}

// DecodeCacheRecord parses one cache record, verifying version and
// checksum. Any corruption — torn tail, flipped bit, trailing bytes —
// is an error, never a wrong record, and so is a column wider than its
// entries need: every record decoded re-encodes to its own bytes.
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
	if err := minLen(data, int64(off)+5, int64(vlen), 1); err != nil {
		return rec, err
	}
	if vlen > 0 {
		rec.Value = append([]byte(nil), data[off:off+vlen]...)
	}
	off += vlen
	clen := int(binary.BigEndian.Uint32(data[off : off+4]))
	w := int(data[off+4])
	off += 5
	if w != 1 && w != 2 && w != 4 && w != 8 {
		return rec, fmt.Errorf("wire: cache record column width %d", w)
	}
	if err := minLen(data, int64(off)+4, int64(clen), int64(w)); err != nil {
		return rec, err
	}
	if clen > 0 {
		rec.Col = make([]cmatrix.Cycle, clen)
		for i := range rec.Col {
			var d uint64
			switch w {
			case 1:
				d = uint64(data[off])
			case 2:
				d = uint64(binary.BigEndian.Uint16(data[off:]))
			case 4:
				d = uint64(binary.BigEndian.Uint32(data[off:]))
			default:
				d = binary.BigEndian.Uint64(data[off:])
			}
			rec.Col[i] = rec.Cycle - cmatrix.Cycle(d)
			off += w
		}
	}
	if binary.BigEndian.Uint32(data[off:off+4]) != crc32c(data[:off]) {
		return rec, fmt.Errorf("wire: cache record checksum mismatch")
	}
	if off+4 != len(data) {
		return rec, fmt.Errorf("wire: %d trailing bytes in cache record", len(data)-off-4)
	}
	if need := colWidth(rec.Cycle, rec.Col); w != need {
		return rec, fmt.Errorf("wire: cache record column of width %d, its entries need %d", w, need)
	}
	return rec, nil
}
