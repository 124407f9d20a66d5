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
// first, into a byte slice.
type BitWriter struct {
	buf  []byte
	nbit int // bits written so far
}

// NewBitWriter returns an empty writer.
func NewBitWriter() *BitWriter { return &BitWriter{} }

// WriteBits appends the width lowest bits of v, MSB first.
// Width must be in [0, 64]; bits of v above width must be zero.
func (w *BitWriter) WriteBits(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("wire: bit width %d out of range [0,64]", width))
	}
	if width < 64 && v>>uint(width) != 0 {
		panic(fmt.Sprintf("wire: value %d does not fit in %d bits", v, width))
	}
	for i := width - 1; i >= 0; i-- {
		if w.nbit%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		if v>>uint(i)&1 == 1 {
			w.buf[w.nbit/8] |= 1 << uint(7-w.nbit%8)
		}
		w.nbit++
	}
}

// WriteBytes appends whole bytes (aligning to a byte boundary first).
func (w *BitWriter) WriteBytes(p []byte) {
	w.Align()
	w.buf = append(w.buf, p...)
	w.nbit = len(w.buf) * 8
}

// Align pads with zero bits to the next byte boundary.
func (w *BitWriter) Align() {
	if rem := w.nbit % 8; rem != 0 {
		w.nbit += 8 - rem
	}
}

// Bytes returns the packed buffer.
func (w *BitWriter) Bytes() []byte { return w.buf }

// BitReader unpacks values written by BitWriter.
type BitReader struct {
	buf  []byte
	nbit int // bits consumed
}

// NewBitReader reads from buf.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// ReadBits extracts the next width bits, MSB first.
func (r *BitReader) ReadBits(width int) (uint64, error) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("wire: bit width %d out of range [0,64]", width))
	}
	if r.nbit+width > len(r.buf)*8 {
		return 0, ErrShortBuffer
	}
	var v uint64
	for i := 0; i < width; i++ {
		v <<= 1
		if r.buf[r.nbit/8]>>uint(7-r.nbit%8)&1 == 1 {
			v |= 1
		}
		r.nbit++
	}
	return v, nil
}

// ReadBytes extracts n whole bytes (aligning to a byte boundary first).
func (r *BitReader) ReadBytes(n int) ([]byte, error) {
	r.Align()
	if r.nbit/8+n > len(r.buf) {
		return nil, ErrShortBuffer
	}
	out := make([]byte, n)
	copy(out, r.buf[r.nbit/8:])
	r.nbit += n * 8
	return out, nil
}

// Align skips to the next byte boundary.
func (r *BitReader) Align() {
	if rem := r.nbit % 8; rem != 0 {
		r.nbit += 8 - rem
	}
}

// Remaining reports the number of unread bits.
func (r *BitReader) Remaining() int { return len(r.buf)*8 - r.nbit }
