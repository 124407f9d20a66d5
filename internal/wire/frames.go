package wire

import (
	"encoding/binary"
	"fmt"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
)

// Program-mode frames: when the server broadcasts an airsched program
// instead of the flat cycle, the air carries two new frame kinds.
//
// An index frame is one (1,m) air-index segment — enough for a client
// that decodes any single one to compute exactly which future frames to
// listen to:
//
//	magic       4 bytes  "BCI1"
//	version     1 byte   frame-format version (currently 1)
//	cycle       8 bytes  major cycle number
//	segment     4 bytes  ordinal in [0,m)
//	m           4 bytes  index segments per major cycle
//	frames      4 bytes  total frames per major cycle (data + index)
//	objects     4 bytes  n
//	nextIndex   4 bytes  frames from this one to the next index segment
//	offsetBits  1 byte   width of one offset entry
//	then bit-packed: per object, the offset in frames from this index
//	frame to the next data frame carrying that object (1 = next frame)
//
// A bucket frame is one data slot: the object's value plus its control
// column, either in full or as a delta against the object's previous
// broadcast occurrence. Occurrences of an object are numbered by a
// per-object sequence; a delta names its base implicitly (sequence
// Seq-1) so a client that missed an occurrence detects the broken
// chain and waits for the next full refresh instead of reconstructing
// a wrong column:
//
//	magic     4 bytes  "BCB1"
//	version   1 byte   frame-format version (currently 1)
//	flags     1 byte   bit 0: control column is a delta
//	cycle     8 bytes  major cycle number
//	obj       4 bytes  object id
//	seq       4 bytes  per-object occurrence sequence number
//	objects   4 bytes  n
//	objBytes  4 bytes  value slot width
//	tsBits    1 byte   timestamp width (0 under ControlNone)
//	control   1 byte   bcast.ControlKind
//	groups    4 bytes  g (ControlGrouped only, else 0)
//	nEntries  4 bytes  changed-entry count (delta frames only, else 0)
//	nextIndex 4 bytes  frames from this one to the next index segment
//	                   (0 when the program broadcasts no index) — the
//	                   (1,m) probe pointer: a cold client decodes any
//	                   one frame and knows exactly when to wake next
//	value     objBytes bytes
//	control payload, bit-packed wrapped timestamps:
//	  full:  the whole column (matrix: n entries; vector: 1; grouped: g)
//	  delta: nEntries × (entry index at ceil(log2 entries) bits + timestamp)
//
// Timestamps wrap exactly as in cycle frames (getTS). Within a major
// cycle every occurrence of an object carries the cycle-start column
// (Theorem 1/2 consistency), so intra-cycle deltas are empty and
// nearly free; the cost lands only on cycle boundaries.

// FrameVersion is the current program-frame format version.
const FrameVersion = 1

const (
	indexHeaderBytes  = 4 + 1 + 8 + 4 + 4 + 4 + 4 + 4 + 1
	bucketHeaderBytes = 4 + 1 + 1 + 8 + 4 + 4 + 4 + 4 + 1 + 1 + 4 + 4 + 4

	bucketFlagDelta = 1 << 0
)

// IndexFrame is one decoded (1,m) air-index segment.
type IndexFrame struct {
	Number    cmatrix.Cycle // major cycle
	Segment   int           // ordinal in [0,m)
	M         int           // segments per major cycle
	Frames    int           // frames per major cycle
	NextIndex int           // frames to the next index segment
	Offsets   []int         // per object: frames to its next data frame
}

// BucketInfo reports a bucket frame's identifying header fields without
// decoding its payload — what a selective tuner needs in order to
// decide whether (and against which delta base) to decode.
func BucketInfo(data []byte) (number cmatrix.Cycle, obj int, seq uint32, delta bool, nextIndex int, err error) {
	if err := KindBucket.check(data); err != nil {
		return 0, 0, 0, false, 0, err
	}
	if flags := data[5]; flags&^bucketFlagDelta != 0 {
		return 0, 0, 0, false, 0, fmt.Errorf("wire: unknown bucket flags %#x", flags)
	}
	if number, err = getCycle(data[6:14]); err != nil {
		return 0, 0, 0, false, 0, err
	}
	obj = int(binary.BigEndian.Uint32(data[14:18]))
	seq = binary.BigEndian.Uint32(data[18:22])
	delta = data[5]&bucketFlagDelta != 0
	nextIndex = int(binary.BigEndian.Uint32(data[40:44]))
	return number, obj, seq, delta, nextIndex, nil
}

// EncodeIndexFrame serializes one index segment.
func EncodeIndexFrame(f *IndexFrame) ([]byte, error) {
	if err := f.validate(); err != nil {
		return nil, err
	}
	ob := indexOffsetBits(f.Frames)
	var hdr [indexHeaderBytes]byte
	binary.BigEndian.PutUint64(hdr[5:13], uint64(f.Number))
	binary.BigEndian.PutUint32(hdr[13:17], uint32(f.Segment))
	binary.BigEndian.PutUint32(hdr[17:21], uint32(f.M))
	binary.BigEndian.PutUint32(hdr[21:25], uint32(f.Frames))
	binary.BigEndian.PutUint32(hdr[25:29], uint32(len(f.Offsets)))
	binary.BigEndian.PutUint32(hdr[29:33], uint32(f.NextIndex))
	hdr[33] = byte(ob)
	w := KindIndex.begin(nil, hdr[:], 1, columnBytes(len(f.Offsets), ob))
	for _, off := range f.Offsets {
		w.WriteBits(uint64(off), ob)
	}
	return w.Bytes(), nil
}

func (f *IndexFrame) validate() error {
	if f.Number < 1 {
		return fmt.Errorf("wire: bad index cycle number %d", f.Number)
	}
	if f.M < 1 || f.Segment < 0 || f.Segment >= f.M {
		return fmt.Errorf("wire: index segment %d of %d", f.Segment, f.M)
	}
	if len(f.Offsets) < 1 {
		return fmt.Errorf("wire: index frame with no objects")
	}
	if f.Frames < len(f.Offsets)+f.M {
		return fmt.Errorf("wire: %d frames cannot hold %d objects + %d index segments", f.Frames, len(f.Offsets), f.M)
	}
	if f.NextIndex < 1 || f.NextIndex > f.Frames {
		return fmt.Errorf("wire: next-index distance %d out of [1,%d]", f.NextIndex, f.Frames)
	}
	for obj, off := range f.Offsets {
		if off < 1 || off > f.Frames {
			return fmt.Errorf("wire: object %d offset %d out of [1,%d]", obj, off, f.Frames)
		}
	}
	return nil
}

// indexOffsetBits is the entry width for offsets in [1, frames].
func indexOffsetBits(frames int) int { return indexBits(frames + 1) }

// DecodeIndexFrame reconstructs an index segment.
func DecodeIndexFrame(data []byte) (*IndexFrame, error) {
	if err := KindIndex.check(data); err != nil {
		return nil, err
	}
	f := &IndexFrame{
		Number:    cmatrix.Cycle(binary.BigEndian.Uint64(data[5:13])),
		Segment:   int(binary.BigEndian.Uint32(data[13:17])),
		M:         int(binary.BigEndian.Uint32(data[17:21])),
		Frames:    int(binary.BigEndian.Uint32(data[21:25])),
		NextIndex: int(binary.BigEndian.Uint32(data[29:33])),
	}
	objects := int(binary.BigEndian.Uint32(data[25:29]))
	ob := int(data[33])
	if objects < 1 || objects > 1<<24 || f.Frames < 0 || f.Frames > 1<<26 {
		return nil, fmt.Errorf("wire: implausible index dimensions %d objects / %d frames", objects, f.Frames)
	}
	if ob != indexOffsetBits(f.Frames) {
		return nil, fmt.Errorf("wire: index offset width %d, want %d for %d frames", ob, indexOffsetBits(f.Frames), f.Frames)
	}
	if err := wantLen(data, indexHeaderBytes, 1, columnBytes(objects, ob)); err != nil {
		return nil, err
	}
	f.Offsets = make([]int, objects)
	r := NewBitReader(data[indexHeaderBytes:])
	for i := range f.Offsets {
		raw, err := r.ReadBits(ob)
		if err != nil {
			return nil, err
		}
		f.Offsets[i] = int(raw)
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// Bucket is one decoded program-mode data frame: the object's value
// and its fully reconstructed control column.
type Bucket struct {
	Number cmatrix.Cycle // major cycle
	Layout bcast.Layout
	Obj    int
	Seq    uint32 // per-object occurrence sequence number
	Delta  bool   // whether the wire carried a delta (Column is always reconstructed)
	// NextIndex is the (1,m) probe pointer: frames from this one to the
	// next index segment, 0 when the program broadcasts no index.
	NextIndex int
	Value     []byte
	Column    []cmatrix.Cycle // matrix: n entries; vector: 1; grouped: g; none: nil
}

// EncodeBucket serializes one data bucket. When prevColumn is non-nil
// it must be the column this object carried at occurrence Seq-1; the
// control column is then encoded as a delta against it (an empty delta
// when nothing changed — the intra-major-cycle case). A nil prevColumn
// forces a full refresh frame.
func EncodeBucket(b *Bucket, prevColumn []cmatrix.Cycle) ([]byte, error) {
	l := b.Layout
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if b.Number < 1 {
		return nil, fmt.Errorf("wire: bad bucket cycle number %d", b.Number)
	}
	if b.Obj < 0 || b.Obj >= l.Objects {
		return nil, fmt.Errorf("wire: bucket object %d out of range [0,%d)", b.Obj, l.Objects)
	}
	entries := columnEntries(l)
	if len(b.Column) != entries {
		return nil, fmt.Errorf("wire: bucket column has %d entries, layout needs %d", len(b.Column), entries)
	}
	if b.NextIndex < 0 {
		return nil, fmt.Errorf("wire: negative next-index distance %d", b.NextIndex)
	}
	delta := prevColumn != nil && entries > 0
	var changed []int
	if delta {
		if len(prevColumn) != entries {
			return nil, fmt.Errorf("wire: previous column has %d entries, layout needs %d", len(prevColumn), entries)
		}
		if b.Seq == 0 {
			return nil, fmt.Errorf("wire: delta bucket at sequence 0 has no base occurrence")
		}
		for i := range b.Column {
			if b.Column[i] != prevColumn[i] {
				changed = append(changed, i)
			}
		}
	}

	var hdr [bucketHeaderBytes]byte
	if delta {
		hdr[5] = bucketFlagDelta
	}
	binary.BigEndian.PutUint64(hdr[6:14], uint64(b.Number))
	binary.BigEndian.PutUint32(hdr[14:18], uint32(b.Obj))
	binary.BigEndian.PutUint32(hdr[18:22], b.Seq)
	putDims(hdr[22:], l, dimsFull)
	size := BucketBits(l, -1)
	if delta {
		binary.BigEndian.PutUint32(hdr[36:40], uint32(len(changed)))
		size = BucketBits(l, len(changed))
	}
	binary.BigEndian.PutUint32(hdr[40:44], uint32(b.NextIndex))
	w := KindBucket.begin(nil, hdr[:], 1, size/8-bucketHeaderBytes)
	if err := putSlot(w, b.Obj, b.Value, objBytesOf(l)); err != nil {
		return nil, err
	}
	if delta {
		eb := indexBits(entries)
		for _, i := range changed {
			w.WriteBits(uint64(i), eb)
			putTS(w, b.Column[i], l.TimestampBits)
		}
	} else {
		putColumn(w, b.Column, l.TimestampBits)
	}
	return w.Bytes(), nil
}

// DecodeBucket reconstructs a data bucket. For delta frames the caller
// supplies the column it holds from the object's previous occurrence
// (sequence Seq-1); passing nil for a delta frame is an error — the
// caller detects broken delta chains via the sequence number it tracks
// per object and must wait for a full refresh instead. Value aliases
// data, as DecodeCycle's values do.
func DecodeBucket(data []byte, prevColumn []cmatrix.Cycle) (*Bucket, error) {
	b := &Bucket{}
	var err error
	if b.Number, b.Obj, b.Seq, b.Delta, b.NextIndex, err = BucketInfo(data); err != nil {
		return nil, err
	}
	if b.Layout, err = getDims(data[22:], dimsFull); err != nil {
		return nil, err
	}
	nEntries := int(binary.BigEndian.Uint32(data[36:40]))
	if b.Obj < 0 || b.Obj >= b.Layout.Objects {
		return nil, fmt.Errorf("wire: bucket object %d out of range [0,%d)", b.Obj, b.Layout.Objects)
	}
	entries, objBytes, tsBits := columnEntries(b.Layout), objBytesOf(b.Layout), b.Layout.TimestampBits
	payload := columnBytes(entries, tsBits)
	if b.Delta {
		if entries == 0 {
			return nil, fmt.Errorf("wire: delta bucket under ControlNone")
		}
		if b.Seq == 0 {
			return nil, fmt.Errorf("wire: delta bucket at sequence 0 has no base occurrence")
		}
		if nEntries > entries {
			return nil, fmt.Errorf("wire: delta bucket changes %d of %d entries", nEntries, entries)
		}
		payload = columnBytes(nEntries, indexBits(entries)+tsBits)
	} else if nEntries != 0 {
		return nil, fmt.Errorf("wire: full bucket with delta entry count %d", nEntries)
	}
	if err := wantLen(data, bucketHeaderBytes, 1, int64(objBytes)+payload); err != nil {
		return nil, err
	}
	if b.Delta && len(prevColumn) != entries {
		if prevColumn == nil {
			return nil, fmt.Errorf("wire: delta bucket without the previous occurrence's column")
		}
		return nil, fmt.Errorf("wire: previous column has %d entries, frame needs %d", len(prevColumn), entries)
	}
	if b.Delta {
		// Inherited entries must predate this frame's broadcast: control
		// at cycle N covers commits through N-1, so a previous-occurrence
		// timestamp beyond that marks a broken delta chain (the caller
		// paired the frame with a column from the wrong occurrence).
		for i, c := range prevColumn {
			if c < 0 || c > b.Number-1 {
				return nil, fmt.Errorf("wire: previous column entry %d has timestamp %d from bucket cycle %d's future", i, c, b.Number)
			}
		}
	}

	r := NewBitReader(data[bucketHeaderBytes:])
	if b.Value, err = r.ReadBytes(objBytes); err != nil {
		return nil, err
	}
	if b.Delta {
		b.Column = append([]cmatrix.Cycle(nil), prevColumn...)
		eb := indexBits(entries)
		for k := 0; k < nEntries; k++ {
			i, err := r.ReadBits(eb)
			if err != nil {
				return nil, err
			}
			if int(i) >= entries {
				return nil, fmt.Errorf("wire: delta entry index %d out of range [0,%d)", i, entries)
			}
			if b.Column[int(i)], err = getTS(r, tsBits, b.Number); err != nil {
				return nil, err
			}
		}
	} else if entries > 0 {
		b.Column = make([]cmatrix.Cycle, entries)
		if err = getColumn(r, b.Column, tsBits, b.Number); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// BucketBits reports the exact encoded size in bits of a bucket frame:
// full when changedEntries < 0, a delta touching changedEntries
// entries otherwise. Used by the bandwidth accounting and the air-time
// model.
func BucketBits(l bcast.Layout, changedEntries int) int64 {
	base := int64(bucketHeaderBytes+objBytesOf(l)) * 8
	entries := columnEntries(l)
	if changedEntries < 0 {
		return base + 8*columnBytes(entries, l.TimestampBits)
	}
	return base + 8*columnBytes(changedEntries, indexBits(entries)+l.TimestampBits)
}
