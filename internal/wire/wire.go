package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

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
// (getTS). Encoding never looks at it: a record's bytes are a function
// of its object's value and control column alone (fixed-size,
// byte-aligned, each timestamp its entry modulo 2^tsBits) and the cycle
// number appears once, in the header. Outside grouped control a column
// moves only when its object is written (Theorem 2), so an unwritten
// object's record is the previous frame's byte for byte: what
// PatchCycle rests on.

const headerBytes = 4 + 8 + 4 + 4 + 1 + 1 + 4

// cycleHeader is the BCC1 header of cycle number under layout l.
func cycleHeader(number cmatrix.Cycle, l bcast.Layout) (hdr [headerBytes]byte) {
	copy(hdr[:], KindCycle.magic())
	binary.BigEndian.PutUint64(hdr[4:12], uint64(number))
	putDims(hdr[12:], l, dimsFull)
	return hdr
}

// recordBytes is the size of one object's record: slot, then column.
func recordBytes(l bcast.Layout) int64 {
	return int64(objBytesOf(l)) + columnBytes(columnEntries(l), l.TimestampBits)
}

// putRecord writes object j's record (AppendCycle, PatchCycle): a matrix
// column packed where it lies, a grouped row as zeros for AppendCycle's
// putMC to fill, others via buf.
func putRecord(w *BitWriter, cb *bcast.CycleBroadcast, j int, buf []cmatrix.Cycle) error {
	err := putSlot(w, j, cb.Values[j], objBytesOf(cb.Layout))
	if err == nil && cb.Layout.Control == bcast.ControlMatrix && cb.Matrix != nil {
		buf = cb.Matrix.Col(j)
	} else if l := cb.Layout; err == nil && l.Control == bcast.ControlGrouped && cb.Grouped != nil {
		n := int(columnBytes(l.Groups, l.TimestampBits))
		w.buf = slices.Grow(w.buf, n)[:len(w.buf)+n]
		clear(w.buf[len(w.buf)-n:])
		return nil
	} else if err == nil {
		buf, err = Column(cb, j, buf[:0])
	}
	if err == nil {
		putColumn(w, buf, cb.Layout.TimestampBits)
	}
	return err
}

// AppendCycle appends cb's BCC1 frame to dst and returns the extended
// slice, or nil and the error. Object values longer than the layout's
// object size are rejected; shorter ones are zero-padded (their length
// is not preserved — broadcast slots are fixed-width).
func AppendCycle(dst []byte, cb *bcast.CycleBroadcast) ([]byte, error) {
	l := cb.Layout
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if len(cb.Values) != l.Objects {
		return nil, fmt.Errorf("wire: %d values for %d objects", len(cb.Values), l.Objects)
	}
	if g := cb.Grouped; l.Control == bcast.ControlGrouped && g != nil && (g.N() != l.Objects || g.Groups() != l.Groups) {
		return nil, fmt.Errorf("wire: grouped matrix is %d×%d but layout says %d×%d", g.N(), g.Groups(), l.Objects, l.Groups)
	}
	hdr := cycleHeader(cb.Number, l)
	w := KindCycle.begin(dst, hdr[:], int64(l.Objects), recordBytes(l))
	var buf []cmatrix.Cycle
	if l.Control != bcast.ControlMatrix {
		buf = make([]cmatrix.Cycle, 0, columnEntries(l))
	}
	for j := range cb.Values {
		if err := putRecord(w, cb, j, buf); err != nil {
			return nil, err
		}
	}
	frame := w.Bytes()
	if l.Control == bcast.ControlGrouped && cb.Grouped != nil {
		putMC(frame[len(frame)-l.Objects*int(recordBytes(l)):], cb.Grouped, l)
	}
	return frame, nil
}

// EncodeCycle serializes a broadcast cycle into a fresh frame.
func EncodeCycle(cb *bcast.CycleBroadcast) ([]byte, error) { return AppendCycle(nil, cb) }

// PatchCycle is AppendCycle for the sender that kept prev, the frame it
// sent last, building the next where prev lies, so a frame is valid
// until the next PatchCycle on its storage (netcast: the next Step).
// When prev is cycle cb.Number-1's frame under cb's layout and
// cb.Written is known, it rewrites the cycle number and the written
// records in place (patched true), reading nothing else of cb; else —
// always under grouped control, whose rows move with any column of a
// group — it encodes from scratch into prev's storage. On error the
// frame is what is left to keep: prev as it was when cb was patchable
// (every written record is checked first), nil otherwise.
func PatchCycle(prev []byte, cb *bcast.CycleBroadcast) (frame []byte, patched bool, err error) {
	l, rec := cb.Layout, recordBytes(cb.Layout)
	if cb.Written == nil || l.Control == bcast.ControlGrouped || l.Validate() != nil || len(cb.Values) != l.Objects ||
		wantLen(prev, headerBytes, int64(l.Objects), rec) != nil || [headerBytes]byte(prev) != cycleHeader(cb.Number-1, l) {
		frame, err = AppendCycle(prev[:0], cb)
		return frame, false, err
	}
	var one [1]cmatrix.Cycle // room for a vector record's column
	if cb.Matrix == nil {    // a missing control structure is refused for any object
		_, err = Column(cb, 0, one[:0])
	}
	for _, j := range cb.Written { // every written record checked before a byte is written
		if v := cb.Values[j]; err == nil && len(v) > objBytesOf(l) {
			_, err = padSlot(nil, j, v, objBytesOf(l)) // its refusal, in AppendCycle's words
		}
	}
	if err != nil {
		return prev, false, err
	}
	binary.BigEndian.PutUint64(prev[4:12], uint64(cb.Number))
	var w BitWriter
	for _, j := range cb.Written {
		w.buf = prev[headerBytes+int64(j)*rec:][:0:rec] // appends within the record's capacity land in place
		putRecord(&w, cb, j, one[:])                    // checked above: cannot fail
	}
	return prev, true, nil
}

// cycleHead is the guard DecodeCycle and ViewCycle share: a BCC1
// frame's header, and a length exactly what it describes.
func cycleHead(data []byte) (cmatrix.Cycle, bcast.Layout, error) {
	number, l, err := getHead(KindCycle, data, 4, 12, dimsFull)
	if err == nil {
		err = wantLen(data, headerBytes, int64(l.Objects), recordBytes(l))
	}
	return number, l, err
}

// DecodeCycle reconstructs a broadcast cycle from its encoding. The
// returned broadcast's control structures hold unwrapped cycle numbers
// (conservatively aliased when older than the codec window, see getTS).
//
// The returned Values alias data: the caller gives the buffer up — it
// must not write to it or reuse it afterwards — and whoever keeps a
// value beyond the cycle copies it out, or it pins the whole frame.
func DecodeCycle(data []byte) (*bcast.CycleBroadcast, error) {
	number, layout, err := cycleHead(data)
	if err != nil {
		return nil, err
	}
	n, entries, objBytes, tsBits := layout.Objects, columnEntries(layout), objBytesOf(layout), layout.TimestampBits

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

// ViewCycle is DecodeCycle for a tuner, accepting exactly its frames.
// Under matrix and grouped control the timestamps stay in the frame for
// the cycle's View to read, so a client pays for what it reads (Section
// 3.2.1). Values and view alias data. Other layouts decode in full.
func ViewCycle(data []byte) (*bcast.CycleBroadcast, error) {
	return ViewFrame(data, nil)
}

// ViewFrame is ViewCycle of a frame read into f's buffer, counting its
// holders on f (bcast.Frame): the cycle carries f, and its View retains
// and releases on it. A nil f counts nothing.
func ViewFrame(data []byte, f *bcast.Frame) (*bcast.CycleBroadcast, error) {
	number, l, err := cycleHead(data)
	if err != nil || (l.Control != bcast.ControlMatrix && l.Control != bcast.ControlGrouped) {
		cb, err := DecodeCycle(data)
		if err == nil {
			cb.Frame = f
		}
		return cb, err
	}
	rec, objBytes := int(recordBytes(l)), objBytesOf(l)
	v := &CycleView{frame: data, lease: f, n: l.Objects, rec: rec, ctl: headerBytes + objBytes, tsBits: l.TimestampBits,
		ref: number - 1, mask: cmatrix.Codec{Bits: l.TimestampBits}.Mod() - 1}
	if l.Control == bcast.ControlGrouped {
		v.g = l.Groups
	}
	// An entry unwraps before cycle 0 iff it exceeds the reference (never,
	// past the first 2^tsBits − 1 cycles); scanned in DecodeCycle's order.
	for j, entries := 0, columnEntries(l); j < v.n && v.ref < v.mask; j++ {
		ctl := data[v.ctl+j*rec:][:columnBytes(entries, v.tsBits)]
		if v.tsBits == 8 && slices.Max(ctl) <= byte(v.ref) {
			continue
		}
		r := BitReader{buf: ctl}
		for range entries {
			if raw := r.get(v.tsBits); cmatrix.Cycle(raw) > v.ref {
				return nil, errBeforeCycle0(raw)
			}
		}
	}
	cb := &bcast.CycleBroadcast{Number: number, Layout: l, Values: make([][]byte, l.Objects), View: v, Frame: f}
	for j := range cb.Values {
		cb.Values[j] = data[headerBytes+j*rec:][:objBytes:objBytes]
	}
	return cb, nil
}

// CycleView is the matrix or grouped control of a BCC1 frame, read in
// place: records are fixed-size and byte-aligned, so C(i, j) is field i
// of record j and MC(i, s) field s of record i, unwrapped as getTS does.
// It pins the whole frame; what outlives the cycle copies a column out,
// or holds a count on the frame (a protocol.Pinned snapshot).
type CycleView struct {
	frame                  []byte
	lease                  *bcast.Frame  // counts the frame's holders; nil counts nothing
	n, rec, ctl, tsBits, g int           // objects, record bytes, offset of column 0, width, groups (0: matrix)
	ref, mask              cmatrix.Cycle // cycle number − 1, 2^tsBits − 1
}

// Retain holds the view's frame (protocol.Pinned).
func (v *CycleView) Retain() { v.lease.Retain() }

// Release lets go of the view's frame.
func (v *CycleView) Release() { v.lease.Release() }

// raw is field k of record j's control column as it sits on the air.
func (v *CycleView) raw(k, j int) cmatrix.Cycle {
	col := v.frame[v.ctl+j*v.rec:]
	if v.tsBits == 8 { // Table 1's width: one entry, one byte
		return cmatrix.Cycle(col[k])
	}
	p := k * v.tsBits
	r := BitReader{buf: col[p/8:]}
	r.get(p % 8)
	return cmatrix.Cycle(r.get(v.tsBits))
}

// Bound is C(i, j), or MC(i, j·g/n) (the uniform partition): a Snapshot.
func (v *CycleView) Bound(i, j int) cmatrix.Cycle {
	if uint(i) >= uint(v.n) || uint(j) >= uint(v.n) {
		panic(fmt.Sprintf("wire: C(%d, %d) outside a %d-object view", i, j, v.n))
	}
	if v.g > 0 {
		i, j = j*v.g/v.n, i
	}
	return v.ref - (v.ref-v.raw(i, j))&v.mask
}

// Col appends a copy of column j, C(·, j), to buf; a grouped view has none.
func (v *CycleView) Col(j int, buf []cmatrix.Cycle) []cmatrix.Cycle {
	if v.g > 0 {
		panic("wire: Col of a grouped view")
	}
	buf = slices.Grow(buf, v.n)
	if v.tsBits == 8 {
		for _, x := range v.frame[v.ctl+j*v.rec:][:v.n] {
			buf = append(buf, v.ref-(v.ref-cmatrix.Cycle(x))&v.mask)
		}
		return buf
	}
	for i := 0; i < v.n; i++ {
		buf = append(buf, v.ref-(v.ref-v.raw(i, j))&v.mask)
	}
	return buf
}
