package wire

import (
	"encoding/binary"
	"fmt"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
)

// Encoding layout of one broadcast cycle (all multi-byte integers
// big-endian):
//
//	magic     4 bytes  "BCC1"
//	cycle     8 bytes  cycle number (unwrapped, for framing; the
//	                   timestamps inside the control info are wrapped)
//	objects   4 bytes  n
//	objBytes  4 bytes  bytes per object value slot
//	tsBits    1 byte   timestamp width (0 under ControlNone)
//	control   1 byte   bcast.ControlKind
//	groups    4 bytes  g (ControlGrouped only, else 0)
//	then, per object j in id order:
//	  value   objBytes bytes (shorter values zero-padded)
//	  control column, bit-packed wrapped timestamps:
//	    matrix:  n entries; vector: 1 entry; grouped: g entries; none: 0
//	  (padded to a byte boundary per object)
//
// Decoding unwraps each timestamp against the broadcast's cycle number
// (getTS).

const headerBytes = 4 + 8 + 4 + 4 + 1 + 1 + 4

// EncodeCycle serializes a broadcast cycle. Object values longer than
// the layout's object size are rejected; shorter ones are zero-padded
// (their length is not preserved — broadcast slots are fixed-width).
func EncodeCycle(cb *bcast.CycleBroadcast) ([]byte, error) {
	l := cb.Layout
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if len(cb.Values) != l.Objects {
		return nil, fmt.Errorf("wire: %d values for %d objects", len(cb.Values), l.Objects)
	}
	objBytes, entries := objBytesOf(l), columnEntries(l)
	var hdr [headerBytes]byte
	binary.BigEndian.PutUint64(hdr[4:12], uint64(cb.Number))
	putDims(hdr[12:], l, dimsFull)
	w := KindCycle.begin(hdr[:], int64(l.Objects), int64(objBytes)+columnBytes(entries, l.TimestampBits))

	// Under grouping the column after object j is its row of g entries
	// MC(j, ·), from which clients reconstruct bounds for any (i, j) pair.
	col := make([]cmatrix.Cycle, 0, entries)
	for j, v := range cb.Values {
		err := putSlot(w, j, v, objBytes)
		if err == nil {
			col, err = Column(cb, j, col[:0])
		}
		if err != nil {
			return nil, err
		}
		putColumn(w, col, l.TimestampBits)
	}
	return w.Bytes(), nil
}

// DecodeCycle reconstructs a broadcast cycle from its encoding. The
// returned broadcast's control structures hold unwrapped cycle numbers
// (conservatively aliased when older than the codec window, see getTS).
//
// The returned Values alias data: the caller gives the buffer up — it
// must not write to it or reuse it afterwards — and whoever keeps a
// value beyond the cycle copies it out, or it pins the whole frame.
func DecodeCycle(data []byte) (*bcast.CycleBroadcast, error) {
	if err := KindCycle.check(data); err != nil {
		return nil, err
	}
	number, err := getCycle(data[4:12])
	if err != nil {
		return nil, err
	}
	layout, err := getDims(data[12:], dimsFull)
	if err != nil {
		return nil, err
	}
	n, entries, objBytes, tsBits := layout.Objects, columnEntries(layout), objBytesOf(layout), layout.TimestampBits
	if err := wantLen(data, headerBytes, int64(n), int64(objBytes)+columnBytes(entries, tsBits)); err != nil {
		return nil, err
	}

	cb := &bcast.CycleBroadcast{Number: number, Layout: layout, Values: make([][]byte, n)}
	r := NewBitReader(data[headerBytes:])
	// Every column decodes into its place in one array, which the
	// matrix then adopts as its columns.
	flat := make([]cmatrix.Cycle, n*entries)
	perObject := make([][]cmatrix.Cycle, n)
	for j := range perObject {
		if cb.Values[j], err = r.ReadBytes(objBytes); err != nil {
			return nil, err
		}
		perObject[j] = flat[j*entries : (j+1)*entries]
		if err = getColumn(r, perObject[j], tsBits, number); err != nil {
			return nil, err
		}
	}

	switch layout.Control {
	case bcast.ControlMatrix:
		cb.Matrix, err = cmatrix.MatrixOver(perObject)
	case bcast.ControlVector:
		cb.Vector, err = cmatrix.VectorFromEntries(flat)
	case bcast.ControlGrouped:
		// The wire format assumes the server's contiguous uniform
		// partition; both ends derive it from (n, g).
		cb.Grouped, err = cmatrix.GroupedFromRows(cmatrix.UniformPartition(n, layout.Groups), perObject)
	}
	if err != nil {
		return nil, err
	}
	return cb, nil
}
