package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
)

// Delta frames implement the incremental control-information
// transmission the paper proposes as future work (Section 3.2.1):
// instead of the full n² matrix, a cycle carries only the values and
// matrix entries that changed since the previous cycle. A client must
// hold the previous cycle's reconstruction to apply a delta; one that
// tuned in late or missed a frame waits for the next full frame.
//
// Layout (big-endian, then bit-packed):
//
//	magic      4 bytes  "BCD1"
//	cycle      8 bytes  this cycle's number
//	base       8 bytes  number of the cycle this delta builds on
//	objects    4 bytes  n
//	objBytes   4 bytes  value slot width
//	tsBits     1 byte
//	nValues    4 bytes  changed-value count
//	nEntries   4 bytes  changed-matrix-entry count
//	per changed value: obj 4 bytes + slot bytes
//	then bit-packed: per entry, i and j at ceil(log2 n) bits and the
//	wrapped timestamp at tsBits
//
// Only the full-matrix (F-Matrix) layout supports deltas: the vector
// layouts are already tiny.

const deltaHeaderBytes = 4 + 8 + 8 + 4 + 4 + 1 + 4 + 4

// indexBits reports the bit width used for object indices.
func indexBits(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// EncodeCycleDelta encodes cur as a delta over prev. Both must use the
// matrix layout with identical dimensions, and prev.Number must precede
// cur.Number.
func EncodeCycleDelta(prev, cur *bcast.CycleBroadcast) ([]byte, error) {
	l := cur.Layout
	if l.Control != bcast.ControlMatrix {
		return nil, fmt.Errorf("wire: delta frames require the matrix layout, got %v", l.Control)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if prev.Layout != l {
		return nil, fmt.Errorf("wire: delta across differing layouts")
	}
	if prev.Number >= cur.Number {
		return nil, fmt.Errorf("wire: delta base cycle %d not before %d", prev.Number, cur.Number)
	}
	if prev.Matrix == nil || cur.Matrix == nil {
		return nil, fmt.Errorf("wire: delta needs both matrices")
	}
	objBytes := objBytesOf(l)

	var changedVals []int
	for j := 0; j < l.Objects; j++ {
		if !slotEqual(prev.Values[j], cur.Values[j]) {
			changedVals = append(changedVals, j)
		}
	}
	entries, err := cmatrix.Diff(prev.Matrix, cur.Matrix)
	if err != nil {
		return nil, err
	}

	var hdr [deltaHeaderBytes]byte
	binary.BigEndian.PutUint64(hdr[4:12], uint64(cur.Number))
	binary.BigEndian.PutUint64(hdr[12:20], uint64(prev.Number))
	putDims(hdr[20:], l, dimsMatrix)
	binary.BigEndian.PutUint32(hdr[29:33], uint32(len(changedVals)))
	binary.BigEndian.PutUint32(hdr[33:37], uint32(len(entries)))
	w := KindDelta.begin(nil, hdr[:], 1, (DeltaBits(l, len(changedVals), len(entries))+7)/8-deltaHeaderBytes)
	for _, j := range changedVals {
		w.WriteBits(uint64(j), 32)
		if err := putSlot(w, j, cur.Values[j], objBytes); err != nil {
			return nil, err
		}
	}
	ib := indexBits(l.Objects)
	for _, e := range entries {
		w.WriteBits(uint64(e.I), ib)
		w.WriteBits(uint64(e.J), ib)
		putTS(w, e.Value, l.TimestampBits)
	}
	return w.Bytes(), nil
}

// slotEqual reports whether two values fill a slot identically:
// trailing zeros are indistinguishable from padding.
func slotEqual(a, b []byte) bool {
	return bytes.Equal(bytes.TrimRight(a, "\x00"), bytes.TrimRight(b, "\x00"))
}

// DecodeCycleDelta reconstructs the current cycle from a delta frame
// and the previous reconstruction. prev is not modified. Changed values
// alias data, as DecodeCycle's do.
func DecodeCycleDelta(data []byte, prev *bcast.CycleBroadcast) (*bcast.CycleBroadcast, error) {
	number, layout, err := getHead(KindDelta, data, 4, 20, dimsMatrix)
	if err != nil {
		return nil, err
	}
	base := cmatrix.Cycle(binary.BigEndian.Uint64(data[12:20]))
	objects, objBytes, tsBits := layout.Objects, objBytesOf(layout), layout.TimestampBits
	nValues := int(binary.BigEndian.Uint32(data[29:33]))
	nEntries := int(binary.BigEndian.Uint32(data[33:37]))

	if prev == nil || prev.Matrix == nil {
		return nil, fmt.Errorf("wire: delta frame without a previous reconstruction")
	}
	if prev.Number != base || number <= base {
		return nil, fmt.Errorf("wire: delta for cycle %d builds on cycle %d but previous reconstruction is cycle %d", number, base, prev.Number)
	}
	if prev.Layout.Objects != objects || objBytesOf(prev.Layout) != objBytes || prev.Layout.TimestampBits != tsBits {
		return nil, fmt.Errorf("wire: delta layout mismatch")
	}
	if nValues > objects || nEntries > objects*objects {
		return nil, fmt.Errorf("wire: implausible delta counts %d/%d", nValues, nEntries)
	}

	cb := &bcast.CycleBroadcast{
		Number: number,
		Layout: prev.Layout,
		Values: make([][]byte, objects),
		Matrix: prev.Matrix.Clone(),
	}
	for j, v := range prev.Values {
		if cb.Values[j], err = padSlot(nil, j, v, objBytes); err != nil {
			return nil, err
		}
	}

	r := NewBitReader(data[deltaHeaderBytes:])
	for k := 0; k < nValues; k++ {
		idx, err := r.ReadBits(32)
		if err != nil {
			return nil, err
		}
		j := int(idx)
		if j < 0 || j >= objects {
			return nil, fmt.Errorf("wire: delta value index %d out of range", j)
		}
		if cb.Values[j], err = r.ReadBytes(objBytes); err != nil {
			return nil, err
		}
	}
	ib := indexBits(objects)
	entries := make([]cmatrix.DeltaEntry, 0, nEntries)
	for k := 0; k < nEntries; k++ {
		i, err := r.ReadBits(ib)
		if err != nil {
			return nil, err
		}
		j, err := r.ReadBits(ib)
		if err != nil {
			return nil, err
		}
		ts, err := getTS(r, tsBits, number)
		if err != nil {
			return nil, err
		}
		entries = append(entries, cmatrix.DeltaEntry{I: int(i), J: int(j), Value: ts})
	}
	if err := cb.Matrix.ApplyDelta(entries); err != nil {
		return nil, err
	}
	return cb, nil
}

// DeltaBits reports the exact size in bits of the delta payload for the
// given change counts — used by the bandwidth analysis (bcbench -figure
// delta).
func DeltaBits(layout bcast.Layout, changedValues, changedEntries int) int64 {
	objBytes := int64(objBytesOf(layout))
	return int64(deltaHeaderBytes)*8 +
		int64(changedValues)*(32+objBytes*8) +
		int64(changedEntries)*int64(2*indexBits(layout.Objects)+layout.TimestampBits)
}
