package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
)

// This file carries the persistent quasi-caching tier (Section 3.3 as a
// first-class subsystem, DESIGN.md §13):
//
//   - BCQ1 cache records: the on-disk representation of one cached
//     object — value, caching cycle, and the cached control column that
//     keeps validation air-only after a restart. Records are versioned
//     and checksummed so recovery can discard torn tails byte-exactly.
//   - BCQ2 subset subscriptions: a tuner's partial-replication filter,
//     sent up the broadcast connection — the server then ships only the
//     subscribed objects' values plus the control needed to validate
//     them.
//   - BCQ3 subset cycles: the per-subset broadcast frame. Each listed
//     object carries its full F-Matrix control column, so a subset
//     client validates reads exactly as a full-channel caching client
//     would.
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

// Subset subscription layout:
//
//	magic  4 bytes  "BCQ2"
//	count  4 bytes
//	obj    4 bytes each, strictly ascending

const subscribeHeaderBytes = 4 + 4

// EncodeSubsetSubscribe serializes a tuner's object-subset filter. The
// object list is sorted and deduplicated; an empty list (subscribe to
// nothing) is legal and encodes a zero count.
func EncodeSubsetSubscribe(objs []int) []byte {
	norm := NormalizeSubset(objs)
	buf := make([]byte, 0, subscribeHeaderBytes+4*len(norm))
	buf = append(buf, KindSubsetSubscribe.magic()...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(norm)))
	for _, o := range norm {
		buf = binary.BigEndian.AppendUint32(buf, uint32(o))
	}
	return buf
}

// DecodeSubsetSubscribe parses a subset-subscription frame. Object ids
// must be strictly ascending (the canonical form the encoder emits).
func DecodeSubsetSubscribe(data []byte) ([]int, error) {
	if err := KindSubsetSubscribe.check(data); err != nil {
		return nil, err
	}
	count := int(binary.BigEndian.Uint32(data[4:8]))
	if err := wantLen(data, subscribeHeaderBytes, int64(count), 4); err != nil {
		return nil, err
	}
	objs := make([]int, count)
	for i := range objs {
		objs[i] = int(binary.BigEndian.Uint32(data[8+4*i : 12+4*i]))
		if i > 0 && objs[i] <= objs[i-1] {
			return nil, fmt.Errorf("wire: subset objects not strictly ascending at index %d", i)
		}
	}
	return objs, nil
}

// NormalizeSubset sorts and deduplicates an object-subset filter into
// the canonical (strictly ascending) form both codec and server use.
func NormalizeSubset(objs []int) []int {
	norm := append([]int(nil), objs...)
	sort.Ints(norm)
	out := norm[:0]
	for i, o := range norm {
		if i == 0 || o != norm[i-1] {
			out = append(out, o)
		}
	}
	return out
}

// Subset cycle layout:
//
//	magic    4 bytes  "BCQ3"
//	cycle    8 bytes  cycle number (unwrapped)
//	objects  4 bytes  n, the total database size
//	objBytes 4 bytes  bytes per object value slot
//	tsBits   1 byte   timestamp width
//	count    4 bytes  listed objects
//	per listed object, ascending id order:
//	  obj    4 bytes
//	  value  objBytes bytes (zero-padded, as in BCC1)
//	  column n bit-packed wrapped timestamps, byte-aligned per object
//
// Only matrix control ships as subsets: each listed object's full
// column is exactly the control a caching client retains (Section 3.3),
// so partial replication costs no validation precision.

const subsetHeaderBytes = 4 + 8 + 4 + 4 + 1 + 4

// SubsetCycle is a partial-replication view of one broadcast cycle: the
// subscribed objects' values and full control columns, plus the
// database dimensions needed to rebuild a validating client view.
type SubsetCycle struct {
	Number   cmatrix.Cycle
	Objects  int // total database size n
	ObjBytes int
	TsBits   int
	Objs     []int             // listed object ids, strictly ascending
	Values   [][]byte          // parallel to Objs, each ObjBytes long
	Columns  [][]cmatrix.Cycle // parallel to Objs, each n entries
}

// SubsetOf restricts a full broadcast cycle to an object subset. The
// cycle must carry matrix control (subset frames ship full columns).
func SubsetOf(cb *bcast.CycleBroadcast, objs []int) (*SubsetCycle, error) {
	l := cb.Layout
	if l.Control != bcast.ControlMatrix {
		return nil, fmt.Errorf("wire: subset cycles require matrix control (have %v)", l.Control)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	norm := NormalizeSubset(objs)
	sc := &SubsetCycle{
		Number:   cb.Number,
		Objects:  l.Objects,
		ObjBytes: objBytesOf(l),
		TsBits:   l.TimestampBits,
		Objs:     norm,
	}
	for _, o := range norm {
		if o < 0 || o >= l.Objects {
			return nil, fmt.Errorf("wire: subset object %d out of range [0,%d)", o, l.Objects)
		}
		slot, err := padSlot(nil, o, cb.Values[o], sc.ObjBytes)
		if err != nil {
			return nil, err
		}
		col, err := Column(cb, o, nil)
		if err != nil {
			return nil, err
		}
		sc.Values = append(sc.Values, slot)
		sc.Columns = append(sc.Columns, col)
	}
	return sc, nil
}

// layout is the full-width matrix layout the subset was cut from.
func (sc *SubsetCycle) layout() bcast.Layout {
	return bcast.Layout{
		Objects:       sc.Objects,
		ObjectBits:    int64(sc.ObjBytes) * 8,
		TimestampBits: sc.TsBits,
		Control:       bcast.ControlMatrix,
	}
}

// EncodeSubsetCycle serializes a subset cycle frame.
func EncodeSubsetCycle(sc *SubsetCycle) ([]byte, error) {
	if sc.Number < 1 {
		return nil, fmt.Errorf("wire: bad cycle number %d", sc.Number)
	}
	if err := sc.layout().Validate(); err != nil {
		return nil, err
	}
	if len(sc.Values) != len(sc.Objs) || len(sc.Columns) != len(sc.Objs) {
		return nil, fmt.Errorf("wire: subset shape mismatch: %d objs, %d values, %d columns", len(sc.Objs), len(sc.Values), len(sc.Columns))
	}
	var hdr [subsetHeaderBytes]byte
	binary.BigEndian.PutUint64(hdr[4:12], uint64(sc.Number))
	putDims(hdr[12:], sc.layout(), dimsMatrix)
	binary.BigEndian.PutUint32(hdr[21:25], uint32(len(sc.Objs)))
	w := KindSubset.begin(nil, hdr[:], int64(len(sc.Objs)), 4+int64(sc.ObjBytes)+columnBytes(sc.Objects, sc.TsBits))
	for k, o := range sc.Objs {
		if o < 0 || o >= sc.Objects {
			return nil, fmt.Errorf("wire: subset object %d out of range [0,%d)", o, sc.Objects)
		}
		if k > 0 && o <= sc.Objs[k-1] {
			return nil, fmt.Errorf("wire: subset objects not strictly ascending at index %d", k)
		}
		if len(sc.Columns[k]) != sc.Objects {
			return nil, fmt.Errorf("wire: object %d column has %d entries, want %d", o, len(sc.Columns[k]), sc.Objects)
		}
		w.WriteBits(uint64(o), 32)
		if err := putSlot(w, o, sc.Values[k], sc.ObjBytes); err != nil {
			return nil, err
		}
		putColumn(w, sc.Columns[k], sc.TsBits)
	}
	return w.Bytes(), nil
}

// DecodeSubsetCycle parses a subset cycle frame; the frame length must
// match the header exactly. Values alias data, as DecodeCycle's do.
func DecodeSubsetCycle(data []byte) (*SubsetCycle, error) {
	number, l, err := getHead(KindSubset, data, 4, 12, dimsMatrix)
	if err != nil {
		return nil, err
	}
	sc := &SubsetCycle{Number: number, Objects: l.Objects, ObjBytes: objBytesOf(l), TsBits: l.TimestampBits}
	count := int(binary.BigEndian.Uint32(data[21:25]))
	// An empty subset backs its n with no payload at all, and the view a
	// tuner builds from the frame is n wide; the server never ships one.
	if count < 1 || count > sc.Objects {
		return nil, fmt.Errorf("wire: subset lists %d of %d objects", count, sc.Objects)
	}
	if err := wantLen(data, subsetHeaderBytes, int64(count), 4+int64(sc.ObjBytes)+columnBytes(sc.Objects, sc.TsBits)); err != nil {
		return nil, err
	}
	r := NewBitReader(data[subsetHeaderBytes:])
	for k := 0; k < count; k++ { // wantLen: every read below is in bounds
		o := int(r.get(32))
		if o >= sc.Objects {
			return nil, fmt.Errorf("wire: subset object %d out of range [0,%d)", o, sc.Objects)
		}
		if k > 0 && o <= sc.Objs[k-1] {
			return nil, fmt.Errorf("wire: subset objects not strictly ascending at index %d", k)
		}
		v, _ := r.ReadBytes(sc.ObjBytes)
		col := make([]cmatrix.Cycle, sc.Objects)
		if err := getColumn(r, col, sc.TsBits, number); err != nil {
			return nil, err
		}
		sc.Objs = append(sc.Objs, o)
		sc.Values = append(sc.Values, v)
		sc.Columns = append(sc.Columns, col)
	}
	return sc, nil
}

// Broadcast rebuilds a full-width client view of the subset cycle:
// subscribed objects carry their exact values and control columns;
// every other column is poisoned to the current cycle number, so any
// validation that touches an unsubscribed object conservatively fails
// (bound >= cycle) rather than silently accepting a read the frame
// never carried. Unsubscribed value slots are nil — the client layer
// must refuse to serve them (Config.Subset). The matrix adopts
// sc.Columns and shares one poison column, so it costs O(count·n).
func (sc *SubsetCycle) Broadcast() (*bcast.CycleBroadcast, error) {
	cols := make([][]cmatrix.Cycle, sc.Objects)
	values := make([][]byte, sc.Objects)
	poison := make([]cmatrix.Cycle, sc.Objects)
	for j := range cols {
		poison[j], cols[j] = sc.Number, poison
	}
	for k, o := range sc.Objs {
		cols[o] = sc.Columns[k]
		values[o] = sc.Values[k]
	}
	m, err := cmatrix.MatrixOver(cols)
	if err != nil {
		return nil, err
	}
	return &bcast.CycleBroadcast{
		Number: sc.Number,
		Layout: sc.layout(),
		Values: values,
		Matrix: m,
	}, nil
}
