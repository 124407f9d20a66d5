package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
)

// This file is what every frame kind shares: the frame-kind table (the
// only place magic bytes are compared), the header guards, and the
// codec of the air format's one atom — an object's value slot followed
// by its control column of wrapped TS-bit timestamps (Section 3.2.1;
// the grouped row of Section 3.2.2 and the cached column of Section 3.3
// are the same atom at other widths).

// Kind names a frame kind. Every frame on a socket or in a cache
// segment opens with its kind's magic; update replies alone carry none.
type Kind int

// The frame kinds, in the order of the table below.
const (
	KindUnknown     Kind = iota // no magic from the table
	KindCycle                   // BCC1, broadcast: one whole cycle
	KindDelta                   // BCD1, broadcast: a cycle as a delta over the previous one
	KindGrouped                 // BCG1, broadcast: a cycle under sparse grouped control
	KindIndex                   // BCI1, broadcast: a (1,m) air-index segment
	KindBucket                  // BCB1, broadcast: one program-mode data slot
	KindCacheRecord             // BCQ1, disk: one persistent cache mutation
	KindUpdate                  // BCU1, uplink: an update transaction
)

// kinds is the frame-kind table. No two kinds share a magic (dgram's
// packet magic included, see TestMagicsUnique).
var kinds = [...]struct {
	magic   [4]byte
	name    string
	header  int  // the shortest prefix a decoder may index
	version byte // expected at byte 4; 0 when the kind carries no version
}{
	KindUnknown:     {name: "unknown"},
	KindCycle:       {[4]byte{'B', 'C', 'C', '1'}, "cycle", headerBytes, 0},
	KindDelta:       {[4]byte{'B', 'C', 'D', '1'}, "cycle-delta", deltaHeaderBytes, 0},
	KindGrouped:     {[4]byte{'B', 'C', 'G', '1'}, "grouped-cycle", groupedHeaderBytes, 0},
	KindIndex:       {[4]byte{'B', 'C', 'I', '1'}, "index", indexHeaderBytes, FrameVersion},
	KindBucket:      {[4]byte{'B', 'C', 'B', '1'}, "bucket", bucketHeaderBytes, FrameVersion},
	KindCacheRecord: {[4]byte{'B', 'C', 'Q', '1'}, "cache-record", cacheRecordMinBytes, CacheRecordVersion},
	KindUpdate:      {[4]byte{'B', 'C', 'U', '1'}, "update", updateHeaderBytes, 0},
}

// KindOf classifies a frame by its magic.
func KindOf(frame []byte) Kind {
	if len(frame) >= 4 {
		magic := [4]byte(frame[0:4])
		for k := KindCycle; int(k) < len(kinds); k++ {
			if kinds[k].magic == magic {
				return k
			}
		}
	}
	return KindUnknown
}

// String names the kind for error messages.
func (k Kind) String() string { return kinds[k].name }

func (k Kind) magic() []byte { return kinds[k].magic[:] }

// begin stamps the kind's magic and version on a filled-in header and
// returns a writer that appends it to dst, with room for count records
// of perRecord bytes — the length wantLen holds the decoder to — in
// dst's storage, or else in one allocation of exactly that length. A
// frame netcast's Step builds in the storage of the one before is valid
// until the next Step: every reader of it is done before Step returns.
func (k Kind) begin(dst, hdr []byte, count, perRecord int64) *BitWriter {
	copy(hdr, k.magic())
	if v := kinds[k].version; v != 0 {
		hdr[4] = v
	}
	if need := int64(len(hdr)) + count*perRecord; int64(cap(dst)-len(dst)) < need {
		dst = append(make([]byte, 0, int64(len(dst))+need), dst...)
	}
	return &BitWriter{buf: append(dst, hdr...)}
}

// check is the guard every decoder opens with: the buffer reaches the
// end of the kind's header, and carries its magic and version.
func (k Kind) check(data []byte) error {
	e := &kinds[k]
	if len(data) < e.header {
		return ErrShortBuffer
	}
	if got := KindOf(data); got != k {
		return fmt.Errorf("wire: want a %v frame, got %v (magic %q)", k, got, data[0:4])
	}
	if e.version != 0 && data[4] != e.version {
		return fmt.Errorf("wire: %v frame version %d, this build speaks %d", k, data[4], e.version)
	}
	return nil
}

// getCycle reads a frame's unwrapped cycle number; real cycles start
// at 1.
func getCycle(b []byte) (cmatrix.Cycle, error) {
	n := cmatrix.Cycle(binary.BigEndian.Uint64(b))
	if n < 1 {
		return 0, fmt.Errorf("wire: bad cycle number %d", n)
	}
	return n, nil
}

// getHead is the guard the cycle-carrying kinds open with: check, then
// the cycle number at cycleAt and the dimension run at dimsAt.
func getHead(k Kind, data []byte, cycleAt, dimsAt, form int) (number cmatrix.Cycle, l bcast.Layout, err error) {
	if err = k.check(data); err != nil {
		return 0, l, err
	}
	if number, err = getCycle(data[cycleAt:]); err != nil {
		return 0, l, err
	}
	l, err = getDims(data[dimsAt:], form)
	return number, l, err
}

// The dimension run (objects 4 bytes, objBytes 4, tsBits 1) that four
// frame kinds carry comes in three forms.
const (
	dimsMatrix  = iota // nothing more; matrix control implied (BCD1)
	dimsGrouped        // then groups 4 bytes; grouped control implied (BCG1)
	dimsFull           // then control 1 byte and groups 4 bytes (BCC1, BCB1)
)

// putDims writes l's dimension run at b; groups stays 0 unless the
// control is grouped.
func putDims(b []byte, l bcast.Layout, form int) {
	binary.BigEndian.PutUint32(b[0:4], uint32(l.Objects))
	binary.BigEndian.PutUint32(b[4:8], uint32(objBytesOf(l)))
	b[8] = byte(l.TimestampBits)
	b = b[9:]
	if form == dimsFull {
		b[0] = byte(l.Control)
		b = b[1:]
	}
	if form != dimsMatrix && l.Control == bcast.ControlGrouped {
		binary.BigEndian.PutUint32(b[0:4], uint32(l.Groups))
	}
}

// getDims reads a dimension run back as a validated layout.
func getDims(b []byte, form int) (bcast.Layout, error) {
	l := bcast.Layout{
		Objects:       int(binary.BigEndian.Uint32(b[0:4])),
		ObjectBits:    int64(binary.BigEndian.Uint32(b[4:8])) * 8,
		TimestampBits: int(b[8]),
		Control:       bcast.ControlMatrix,
	}
	switch form {
	case dimsGrouped:
		l.Control, l.Groups = bcast.ControlGrouped, int(binary.BigEndian.Uint32(b[9:13]))
	case dimsFull:
		l.Control, l.Groups = bcast.ControlKind(b[9]), int(binary.BigEndian.Uint32(b[10:14]))
	}
	if err := l.Validate(); err != nil || l.Control > bcast.ControlGrouped {
		return l, fmt.Errorf("wire: decoded layout %+v invalid: %v", l, err)
	}
	return l, nil
}

// minLen rejects a frame too short for count records of at least
// perRecord bytes each after its header. The counts are
// attacker-controlled uint32s whose product can wrap int64, so the test
// is a division, never a multiplication.
func minLen(data []byte, header, count, perRecord int64) error {
	if avail := int64(len(data)) - header; avail < 0 || count > avail/perRecord {
		return fmt.Errorf("wire: %d-byte frame cannot hold %d records of %d bytes: %w", len(data), count, perRecord, ErrShortBuffer)
	}
	return nil
}

// wantLen is minLen for the kinds whose length the header determines
// exactly: decoders call it before allocating anything the header
// sizes.
func wantLen(data []byte, header, count, perRecord int64) error {
	if err := minLen(data, header, count, perRecord); err != nil {
		return err
	}
	if want := header + count*perRecord; int64(len(data)) != want {
		return fmt.Errorf("wire: frame is %d bytes but header describes %d", len(data), want)
	}
	return nil
}

func objBytesOf(l bcast.Layout) int { return int((l.ObjectBits + 7) / 8) }

// columnEntries reports the control-column length for a layout.
func columnEntries(l bcast.Layout) int {
	switch l.Control {
	case bcast.ControlMatrix:
		return l.Objects
	case bcast.ControlVector:
		return 1
	case bcast.ControlGrouped:
		return l.Groups
	default:
		return 0
	}
}

// columnBytes is the byte-aligned size of entries packed timestamps.
func columnBytes(entries, tsBits int) int64 { return (int64(entries)*int64(tsBits) + 7) / 8 }

// Column appends to buf the control column the air carries right after
// object j — the n matrix entries C(·, j), the one vector entry, or the
// g entries of the grouped row MC(j, ·) — and returns the extended
// slice. A nil buf yields a fresh column the caller may keep.
func Column(cb *bcast.CycleBroadcast, j int, buf []cmatrix.Cycle) ([]cmatrix.Cycle, error) {
	l := cb.Layout
	switch {
	case l.Control == bcast.ControlMatrix && cb.Matrix != nil:
		buf = append(buf, cb.Matrix.Col(j)...)
	case l.Control == bcast.ControlMatrix && cb.View != nil:
		buf = append(buf, cb.View.Col(j, nil)...) // buf must not escape: PatchCycle's is on its stack
	case l.Control == bcast.ControlVector && cb.Vector != nil:
		buf = append(buf, cb.Vector.At(j))
	case l.Control == bcast.ControlGrouped && cb.Grouped != nil:
		for s := 0; s < l.Groups; s++ {
			buf = append(buf, cb.Grouped.At(j, s))
		}
	case l.Control != bcast.ControlNone && cb.View != nil: // MC(j, s) via s's first object ⌈s·n/g⌉; V(j) at g = 1
		for s, g := 0, columnEntries(l); s < g; s++ {
			buf = append(buf, cb.View.Bound(j, (s*l.Objects+g-1)/g))
		}
	case l.Control != bcast.ControlNone:
		return nil, fmt.Errorf("wire: %v layout without its control structure", l.Control)
	}
	return buf, nil
}

// putMC writes MC into recs, the records of a grouped BCC1 frame with
// every control field zero: MC(i, s) is field s of record i, where
// CycleView reads it, written MSB first as BitWriter writes. O(nnz).
func putMC(recs []byte, mc *cmatrix.Grouped, l bcast.Layout) {
	rec, ctl, tsBits := uint(recordBytes(l))*8, uint(objBytesOf(l))*8, uint(l.TimestampBits)
	mask := uint64(cmatrix.Codec{Bits: l.TimestampBits}.Mod() - 1)
	for s := range uint(mc.Groups()) {
		for _, e := range mc.Col(int(s)) {
			p, v := uint(e.Idx)*rec+ctl+s*tsBits, uint64(e.Val)&mask
			for width := tsBits; width > 0; { // the bits that fit in byte p/8
				k := min(8-p%8, width)
				width -= k
				recs[p/8] |= byte(v>>width) << (8 - p%8 - k)
				p += k
			}
		}
	}
}

// padSlot appends object obj's value to dst, zero-padded to the fixed
// objBytes slot (the length is not preserved); a longer value is
// rejected.
func padSlot(dst []byte, obj int, v []byte, objBytes int) ([]byte, error) {
	if len(v) > objBytes {
		return nil, fmt.Errorf("wire: object %d value is %d bytes, slot holds %d", obj, len(v), objBytes)
	}
	n := len(dst)
	dst = slices.Grow(dst, objBytes)[:n+objBytes]
	clear(dst[n+copy(dst[n:], v):])
	return dst, nil
}

// putSlot writes object obj's value slot, byte-aligned.
func putSlot(w *BitWriter, obj int, v []byte, objBytes int) (err error) {
	w.Align()
	w.buf, err = padSlot(w.buf, obj, v, objBytes)
	return err
}

// putTS writes one commit cycle wrapped to tsBits.
func putTS(w *BitWriter, c cmatrix.Cycle, tsBits int) {
	w.WriteBits(uint64(cmatrix.Codec{Bits: tsBits}.Encode(c)), tsBits)
}

// getTS reads one wrapped timestamp of the frame for cycle number and
// unwraps it: a control entry in cycle N is a commit cycle <= N-1, so
// N-1 is the reference. Values older than max_cycles alias upward, which
// can only cause extra aborts, never false acceptance — the same
// conservativeness the paper's modulo arithmetic has.
func getTS(r *BitReader, tsBits int, number cmatrix.Cycle) (cmatrix.Cycle, error) {
	raw, err := r.ReadBits(tsBits)
	if err != nil {
		return 0, err
	}
	ts := cmatrix.Codec{Bits: tsBits}.Decode(uint32(raw), number-1)
	if ts < 0 {
		return 0, errBeforeCycle0(raw)
	}
	return ts, nil
}

func errBeforeCycle0(raw uint64) error {
	return fmt.Errorf("wire: timestamp %d decodes before cycle 0 (corrupt frame)", raw)
}

// putColumn writes a control column — putTS per entry, with the checks
// a column shares made once — and pads to the byte boundary.
func putColumn(w *BitWriter, col []cmatrix.Cycle, tsBits int) {
	if len(col) > 0 {
		codec := cmatrix.Codec{Bits: tsBits}
		mask := uint64(codec.Mod() - 1) // panics on a width outside [1,32]
		for _, c := range col {
			if c < 0 {
				codec.Encode(c) // panics: a negative cycle is the caller's bug, in Encode's words
			}
			w.put(uint64(c)&mask, tsBits)
		}
	}
	w.Align()
}

// getColumn fills col from the frame for cycle number — getTS per
// entry, likewise — and skips the padding.
func getColumn(r *BitReader, col []cmatrix.Cycle, tsBits int, number cmatrix.Cycle) error {
	if len(col) > 0 {
		codec, ref := cmatrix.Codec{Bits: tsBits}, number-1
		codec.Decode(0, ref) // panics on a width outside [1,32] or a reference before cycle 0
		mask := codec.Mod() - 1
		fit := min(len(col), r.Remaining()/tsBits)
		for i := range col[:fit] {
			raw := r.get(tsBits)
			if col[i] = ref - (ref-cmatrix.Cycle(raw))&mask; col[i] < 0 {
				return errBeforeCycle0(raw)
			}
		}
		if fit < len(col) {
			return ErrShortBuffer
		}
	}
	r.Align()
	return nil
}
