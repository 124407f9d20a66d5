// Package wire serializes broadcast cycles and uplink messages into the
// actual bitstreams the paper accounts for: every object followed by its
// control information, timestamps wrapped modulo max_cycles+1 and packed
// at their configured width (Table 1 uses 8-bit timestamps, but any
// width from 1 to 32 bits works), so the measured per-cycle bit counts
// equal the analytical ones in bcast.Layout.
package wire

import (
	"errors"
	"fmt"
)

// ErrShortBuffer reports a read past the end of the encoded stream.
var ErrShortBuffer = errors.New("wire: short buffer")

// BitWriter packs values of arbitrary bit widths, most significant bit
// first, into a byte slice, a whole byte at a time.
type BitWriter struct {
	buf  []byte
	acc  uint64 // its low nacc bits are written but not yet in buf
	nacc int    // < 8 between calls
}

// NewBitWriter returns an empty writer.
func NewBitWriter() *BitWriter { return &BitWriter{} }

// put appends the width lowest bits of v, width in [0, 32] and v
// already within it: the unchecked step under WriteBits and putColumn.
func (w *BitWriter) put(v uint64, width int) {
	w.acc = w.acc<<uint(width) | v
	for w.nacc += width; w.nacc >= 8; {
		w.nacc -= 8
		w.buf = append(w.buf, byte(w.acc>>uint(w.nacc)))
	}
}

// WriteBits appends the width lowest bits of v, MSB first.
// Width must be in [0, 64]; bits of v above width must be zero.
func (w *BitWriter) WriteBits(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("wire: bit width %d out of range [0,64]", width))
	}
	if width < 64 && v>>uint(width) != 0 {
		panic(fmt.Sprintf("wire: value %d does not fit in %d bits", v, width))
	}
	if width > 32 {
		w.put(v>>32, width-32)
		v, width = v&(1<<32-1), 32
	}
	w.put(v, width)
}

// WriteBytes appends whole bytes (aligning to a byte boundary first).
func (w *BitWriter) WriteBytes(p []byte) {
	w.Align()
	w.buf = append(w.buf, p...)
}

// Align pads with zero bits to the next byte boundary.
func (w *BitWriter) Align() { w.put(0, (8-w.nacc)%8) }

// Bytes pads to the byte boundary and returns the packed buffer.
func (w *BitWriter) Bytes() []byte {
	w.Align()
	return w.buf
}

// BitReader unpacks values written by BitWriter.
type BitReader struct {
	buf  []byte
	pos  int    // next byte of buf to load
	acc  uint64 // its low nacc bits are loaded but not yet read
	nacc int    // < 8 between calls
}

// NewBitReader reads from buf.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// get extracts the next width bits, width in [0, 32] and no more than
// Remaining: the unchecked step under ReadBits and getColumn.
func (r *BitReader) get(width int) uint64 {
	for ; r.nacc < width; r.pos++ {
		r.acc, r.nacc = r.acc<<8|uint64(r.buf[r.pos]), r.nacc+8
	}
	r.nacc -= width
	return r.acc >> uint(r.nacc) & (1<<uint(width) - 1)
}

// ReadBits extracts the next width bits, MSB first.
func (r *BitReader) ReadBits(width int) (uint64, error) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("wire: bit width %d out of range [0,64]", width))
	}
	if width > r.Remaining() {
		return 0, ErrShortBuffer
	}
	var hi uint64
	if width > 32 {
		hi, width = r.get(width-32)<<32, 32
	}
	return hi | r.get(width), nil
}

// ReadBytes extracts n whole bytes (aligning to a byte boundary first).
// The result aliases the reader's buffer; it is not a copy.
func (r *BitReader) ReadBytes(n int) ([]byte, error) {
	r.Align()
	if n > len(r.buf)-r.pos {
		return nil, ErrShortBuffer
	}
	r.pos += n
	return r.buf[r.pos-n : r.pos : r.pos], nil
}

// Align skips to the next byte boundary.
func (r *BitReader) Align() { r.nacc = 0 }

// Remaining reports the number of unread bits.
func (r *BitReader) Remaining() int { return (len(r.buf)-r.pos)*8 + r.nacc }
