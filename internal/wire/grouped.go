package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
)

// Grouped frames carry the n×g grouped control matrix MC in a sparse,
// partition-aware encoding. The dense BCC1 grouped path costs n·g·TS
// bits per cycle regardless of how much of MC is actually populated;
// at n ≥ 10⁵ with fine grouping, MC is overwhelmingly zero (most
// objects were never written by a live transaction) and the control
// bandwidth should scale with the nonzero structure instead. BCG1
// encodes each object's MC row either sparsely — a count plus
// (group, timestamp) pairs for the nonzero entries — or densely,
// whichever is smaller for that row.
//
// Unlike BCC1's grouped path, the partition is not assumed uniform:
// heat-adaptive regrouping ships the assignment explicitly. Carrying
// n·ceil(log2 g) bits of partition in every cycle would wipe out the
// sparse win, so frames come in two kinds, distinguished by a flag:
// partition-bearing frames (a sender's first frame and its first after
// each regroup epoch change) embed the full assignment; partition-less
// frames name only the epoch, and a client must hold the partition from
// that epoch to decode. Epoch 0's partition needs no frame: a server
// starts on cmatrix.UniformPartition(n, g), and n and g are in every
// header, so a late joiner decodes epoch-0 frames at once. One that
// tunes in after a regroup waits for the next epoch change, exactly
// like a delta-frame resync.
//
// Layout (big-endian header, then bit-packed, MSB first):
//
//	magic     4 bytes  "BCG1"
//	flags     1 byte   bit0 = frame embeds the partition
//	cycle     8 bytes  cycle number (unwrapped, for framing)
//	epoch     8 bytes  regroup epoch the partition belongs to
//	objects   4 bytes  n
//	objBytes  4 bytes  bytes per object value slot
//	tsBits    1 byte   timestamp width
//	groups    4 bytes  g
//	[partition: n group ids at ceil(log2 g) bits, byte-aligned after]
//	then, per object i in id order:
//	  value   objBytes bytes
//	  mode    1 bit: 1 = sparse row, 0 = dense row
//	  sparse: count at ceil(log2 (g+1)) bits, then count pairs of
//	          group id (ceil(log2 g) bits, strictly ascending) and
//	          wrapped timestamp (tsBits, decoding to a positive cycle)
//	  dense:  g wrapped timestamps at tsBits
//	  (padded to a byte boundary per object)
//
// Omitted sparse entries decode as the literal cycle 0 (the virtual
// transaction t0): zero entries never wrap, so sparseness loses no
// information. Dense mode has no such escape — raw 0 means the newest
// cycle ≡ 0 mod 2^tsBits once the cycle number passes the codec
// window, not "never written" — so the encoder uses dense mode only
// for rows with an entry in every group (where it is also strictly
// smaller). Nonzero timestamps alias upward when older than the codec
// window, the same conservativeness as the dense formats.

const groupedHeaderBytes = 4 + 1 + 8 + 8 + 4 + 4 + 1 + 4

const groupedFlagPartition = 0x01

// countBits reports the width of a sparse row's entry count, which
// ranges over [0, g] inclusive.
func countBits(g int) int { return bits.Len(uint(g)) }

// EncodeGroupedCycle serializes a broadcast cycle under the grouped
// layout. epoch names the regroup epoch of cb.Grouped's partition;
// includePartition embeds the assignment so cold-start clients (and
// clients that missed a regroup) can decode.
func EncodeGroupedCycle(cb *bcast.CycleBroadcast, epoch uint64, includePartition bool) ([]byte, error) {
	return AppendGroupedCycle(nil, cb, epoch, includePartition)
}

// AppendGroupedCycle is EncodeGroupedCycle appending to dst (nil on error).
func AppendGroupedCycle(dst []byte, cb *bcast.CycleBroadcast, epoch uint64, includePartition bool) ([]byte, error) {
	l := cb.Layout
	if l.Control != bcast.ControlGrouped {
		return nil, fmt.Errorf("wire: grouped frames require the grouped layout, got %v", l.Control)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if cb.Grouped == nil {
		return nil, fmt.Errorf("wire: grouped layout without grouped matrix")
	}
	part := cb.Grouped.Part()
	if part.N() != l.Objects || part.Groups() != l.Groups {
		return nil, fmt.Errorf("wire: partition is %d×%d but layout says %d×%d",
			part.N(), part.Groups(), l.Objects, l.Groups)
	}
	if len(cb.Values) != l.Objects {
		return nil, fmt.Errorf("wire: %d values for %d objects", len(cb.Values), l.Objects)
	}
	objBytes := objBytesOf(l)

	var hdr [groupedHeaderBytes]byte
	if includePartition {
		hdr[4] = groupedFlagPartition
	}
	binary.BigEndian.PutUint64(hdr[5:13], uint64(cb.Number))
	binary.BigEndian.PutUint64(hdr[13:21], epoch)
	putDims(hdr[21:], l, dimsGrouped)
	w := KindGrouped.begin(dst, hdr[:], 1, GroupedCycleBits(cb.Grouped, objBytes, l.TimestampBits, includePartition)/8-groupedHeaderBytes)

	ib := indexBits(l.Groups)
	if includePartition {
		for j := 0; j < l.Objects; j++ {
			w.WriteBits(uint64(part.GroupOf(j)), ib)
		}
		w.Align()
	}

	cw := countBits(l.Groups)
	end, entries := rowsOf(cb.Grouped)
	var from int32 // row i starts where row i-1 ends
	for i := range cb.Values {
		if err := putSlot(w, i, cb.Values[i], objBytes); err != nil {
			return nil, err
		}
		row := entries[from:end[i]]
		from = end[i]
		// A dense row cannot represent a zero (never-written) entry once
		// the cycle number passes the codec window: Encode(0) is raw 0,
		// which decodes to the newest cycle ≡ 0 mod 2^TS, not back to 0.
		// Rows with zero entries therefore always go sparse; full rows go
		// dense, which is strictly smaller for them (the sparse form pays
		// cw + g·ib extra bits) and wraps only upward, conservatively.
		if len(row) < l.Groups {
			w.WriteBits(1, 1)
			w.WriteBits(uint64(len(row)), cw)
			for _, e := range row {
				w.WriteBits(uint64(e.Group), ib)
				putTS(w, e.Val, l.TimestampBits)
			}
		} else { // one entry per group, in group order
			w.WriteBits(0, 1)
			for _, e := range row {
				putTS(w, e.Val, l.TimestampBits)
			}
		}
		w.Align()
	}
	return w.Bytes(), nil
}

// rowsOf transposes MC for the BCG1 encoder in O(n + nnz) and two
// allocations: row i is entries[end[i-1]:end[i]] (end[-1] = 0), its
// groups ascending.
func rowsOf(mc *cmatrix.Grouped) (end []int32, entries []cmatrix.GroupEntry) {
	end = mc.RowCounts()
	var sum int32
	for i, count := range end {
		end[i], sum = sum, sum+count // row i's start, until the fill moves it to its end
	}
	entries = make([]cmatrix.GroupEntry, mc.Nonzeros())
	for s := range mc.Groups() {
		for _, e := range mc.Col(s) {
			entries[end[e.Idx]] = cmatrix.GroupEntry{Group: s, Val: e.Val}
			end[e.Idx]++
		}
	}
	return end, entries
}

// GroupedCycleBits reports the exact size in bits of the BCG1 frame
// EncodeGroupedCycle would produce, from the rows' lengths alone — the
// encoder sizes its frame with it and the bandwidth studies price every
// cycle with it. One allocation (n counters), O(n + nonzeros).
func GroupedCycleBits(g *cmatrix.Grouped, objBytes, tsBits int, includePartition bool) int64 {
	n, groups := g.N(), g.Groups()
	ib := indexBits(groups)
	cw := countBits(groups)
	align8 := func(b int64) int64 { return (b + 7) / 8 * 8 }
	total := int64(groupedHeaderBytes) * 8
	if includePartition {
		total += align8(int64(n) * int64(ib))
	}
	denseBits := int64(groups) * int64(tsBits)
	for _, count := range g.RowCounts() {
		body := int64(cw) + int64(count)*int64(ib+tsBits)
		if int(count) == groups {
			body = denseBits
		}
		total += int64(objBytes)*8 + align8(1+body)
	}
	return total
}

// DecodeGroupedCycle reconstructs a grouped broadcast cycle. For a
// partition-less frame the caller supplies the partition it holds and
// the epoch it came from; a mismatch (or nil) at an epoch past 0 means
// the client must wait for the next partition-bearing frame, reported
// as an error, while epoch 0 decodes on the uniform partition. The
// returned epoch tells the caller which epoch to associate with the
// frame's partition. Values alias data, as DecodeCycle's do.
func DecodeGroupedCycle(data []byte, prevPart *cmatrix.Partition, prevEpoch uint64) (cb *bcast.CycleBroadcast, epoch uint64, err error) {
	number, layout, err := getHead(KindGrouped, data, 5, 21, dimsGrouped)
	if err != nil {
		return nil, 0, err
	}
	flags := data[4]
	if flags&^byte(groupedFlagPartition) != 0 {
		return nil, 0, fmt.Errorf("wire: unknown grouped flags %#x", flags)
	}
	hasPart := flags&groupedFlagPartition != 0
	epoch = binary.BigEndian.Uint64(data[13:21])
	objects, objBytes, tsBits, groups := layout.Objects, objBytesOf(layout), layout.TimestampBits, layout.Groups
	// Every object costs at least its value slot plus one aligned byte of
	// control (mode bit + count); rejecting shorter frames up front bounds
	// the allocations a torn frame can induce.
	ib := indexBits(groups)
	partBytes := int64(0)
	if hasPart {
		partBytes = columnBytes(objects, ib)
	}
	if err := minLen(data, groupedHeaderBytes+partBytes, int64(objects), int64(objBytes)+1); err != nil {
		return nil, 0, err
	}

	r := NewBitReader(data[groupedHeaderBytes:])
	var part *cmatrix.Partition
	if hasPart {
		of := make([]int, objects)
		for j := range of {
			id, err := r.ReadBits(ib)
			if err != nil {
				return nil, 0, err
			}
			if int(id) >= groups {
				return nil, 0, fmt.Errorf("wire: object %d assigned to group %d of %d", j, id, groups)
			}
			of[j] = int(id)
		}
		r.Align()
		part = cmatrix.NewPartition(groups, of)
	} else {
		switch {
		case prevPart != nil && prevEpoch == epoch && prevPart.N() == objects && prevPart.Groups() == groups:
			part = prevPart
		case epoch == 0: // the partition every server starts on
			part = cmatrix.UniformPartition(objects, groups)
		default:
			return nil, 0, fmt.Errorf("wire: grouped frame needs the partition from epoch %d", epoch)
		}
	}

	cw := countBits(groups)
	cbOut := &bcast.CycleBroadcast{
		Number: number,
		Layout: layout,
		Values: make([][]byte, objects),
	}
	rows := make([][]cmatrix.GroupEntry, objects)
	for i := 0; i < objects; i++ {
		if cbOut.Values[i], err = r.ReadBytes(objBytes); err != nil {
			return nil, 0, err
		}
		mode, err := r.ReadBits(1)
		if err != nil {
			return nil, 0, err
		}
		if mode == 1 {
			cnt, err := r.ReadBits(cw)
			if err != nil {
				return nil, 0, err
			}
			if int(cnt) > groups {
				return nil, 0, fmt.Errorf("wire: object %d sparse row lists %d of %d groups", i, cnt, groups)
			}
			row := make([]cmatrix.GroupEntry, 0, cnt)
			prev := -1
			for k := 0; k < int(cnt); k++ {
				s, err := r.ReadBits(ib)
				if err != nil {
					return nil, 0, err
				}
				if int(s) <= prev || int(s) >= groups {
					return nil, 0, fmt.Errorf("wire: object %d sparse row group id %d invalid (previous %d, groups %d)", i, s, prev, groups)
				}
				prev = int(s)
				ts, err := getTS(r, tsBits, number)
				if err != nil {
					return nil, 0, err
				}
				if ts == 0 {
					return nil, 0, fmt.Errorf("wire: object %d sparse row lists a zero entry for group %d (corrupt frame)", i, s)
				}
				row = append(row, cmatrix.GroupEntry{Group: int(s), Val: ts})
			}
			rows[i] = row
		} else {
			var row []cmatrix.GroupEntry
			for s := 0; s < groups; s++ {
				ts, err := getTS(r, tsBits, number)
				if err != nil {
					return nil, 0, err
				}
				if ts > 0 {
					row = append(row, cmatrix.GroupEntry{Group: s, Val: ts})
				}
			}
			rows[i] = row
		}
		r.Align()
	}
	if r.Remaining() >= 8 {
		return nil, 0, fmt.Errorf("wire: %d trailing bytes after grouped frame", r.Remaining()/8)
	}
	g, err := cmatrix.GroupedFromSparseRows(part, rows)
	if err != nil {
		return nil, 0, err
	}
	cbOut.Grouped = g
	return cbOut, epoch, nil
}
