package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"broadcastcc/internal/cmatrix"
)

// bitLoop is the bit-at-a-time writer and reader bitio.go was until
// WriteBits, ReadBits, putColumn and getColumn learnt to move whole
// bytes. It is kept here, and only here, as the oracle: one loop
// iteration per bit, nothing to get wrong.
type bitLoop struct {
	buf  []byte
	nbit int
}

func (o *bitLoop) writeBits(v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		if o.nbit%8 == 0 {
			o.buf = append(o.buf, 0)
		}
		if v>>uint(i)&1 == 1 {
			o.buf[o.nbit/8] |= 1 << uint(7-o.nbit%8)
		}
		o.nbit++
	}
}

func (o *bitLoop) readBits(width int) (uint64, error) {
	if o.nbit+width > len(o.buf)*8 {
		return 0, ErrShortBuffer
	}
	var v uint64
	for i := 0; i < width; i++ {
		v <<= 1
		if o.buf[o.nbit/8]>>uint(7-o.nbit%8)&1 == 1 {
			v |= 1
		}
		o.nbit++
	}
	return v, nil
}

func (o *bitLoop) align() { o.nbit = (o.nbit + 7) / 8 * 8 }

// oracleColumn is putColumn as it was: wrap each entry, write it bit by
// bit, pad.
func (o *bitLoop) oracleColumn(col []cmatrix.Cycle, tsBits int) {
	for _, c := range col {
		o.writeBits(uint64(cmatrix.Codec{Bits: tsBits}.Encode(c)), tsBits)
	}
	o.align()
}

// TestBitIOMatchesBitLoop: the byte-chunk WriteBits and ReadBits emit
// and consume exactly the bits the per-bit loops did, at every width
// and every alignment, with aligns and whole-byte runs in between.
func TestBitIOMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 200; round++ {
		w, o := NewBitWriter(), &bitLoop{}
		type op struct {
			width int
			v     uint64
		}
		var ops []op
		for k := 0; k < 40; k++ {
			switch rng.Intn(8) {
			case 0:
				w.Align()
				o.align()
				ops = append(ops, op{width: -1})
			default:
				width := rng.Intn(65)
				v := rng.Uint64()
				if width < 64 {
					v &= 1<<uint(width) - 1
				}
				w.WriteBits(v, width)
				o.writeBits(v, width)
				ops = append(ops, op{width, v})
			}
		}
		if !bytes.Equal(w.Bytes(), o.buf) {
			t.Fatalf("round %d: WriteBits wrote %x, the bit loop %x", round, w.Bytes(), o.buf)
		}
		r, ro := NewBitReader(w.Bytes()), &bitLoop{buf: w.Bytes()}
		for k, op := range ops {
			if op.width < 0 {
				r.Align()
				ro.align()
				continue
			}
			got, err := r.ReadBits(op.width)
			if want, _ := ro.readBits(op.width); err != nil || got != op.v || got != want {
				t.Fatalf("round %d op %d: ReadBits(%d) = %#x, %v; wrote %#x, the bit loop reads %#x", round, k, op.width, got, err, op.v, want)
			}
		}
		if _, err := r.ReadBits(r.Remaining() + 1); !errors.Is(err, ErrShortBuffer) {
			t.Fatalf("round %d: reading past the end: %v", round, err)
		}
	}
}

// columnValues draws a column whose entries sit below, at and above
// the wrap point 2^tsBits, cycling through the three.
func columnValues(rng *rand.Rand, length, tsBits int) []cmatrix.Cycle {
	mod := int64(1) << uint(tsBits)
	col := make([]cmatrix.Cycle, length)
	for i := range col {
		switch i % 3 {
		case 0:
			col[i] = cmatrix.Cycle(rng.Int63n(mod))
		case 1:
			col[i] = cmatrix.Cycle(mod)
		default:
			col[i] = cmatrix.Cycle(mod + rng.Int63n(1<<40))
		}
	}
	return col
}

// perEntry is getColumn as it was: getTS per entry, then skip the
// padding.
func perEntry(r *BitReader, col []cmatrix.Cycle, tsBits int, number cmatrix.Cycle) (err error) {
	for i := range col {
		if col[i], err = getTS(r, tsBits, number); err != nil {
			return err
		}
	}
	r.Align()
	return nil
}

// TestColumnCodecMatchesBitLoop is the differential test of the one
// column codec every (value, column) atom goes through: at every width
// 1..32, every column length 0..67, values on all sides of the wrap
// point, aligned and not, putColumn writes the bytes the bit loop wrote
// and getColumn reads what per-entry getTS read — values, position and
// error, for reference cycles from 1 (where anything but raw 0
// decodes before cycle 0) upward, and on a buffer one byte short.
func TestColumnCodecMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	numbers := []cmatrix.Cycle{1, 2, 200, 256, 257, 1 << 20, 1<<33 + 5}
	for tsBits := 1; tsBits <= 32; tsBits++ {
		for length := 0; length <= 67; length++ {
			for _, lead := range []int{0, 3} { // bits already in the writer's last byte
				col := columnValues(rng, length, tsBits)
				w, o := NewBitWriter(), &bitLoop{}
				w.WriteBits(uint64(lead), lead) // 0 bits of 0, or 011
				o.writeBits(uint64(lead), lead)
				putColumn(w, col, tsBits)
				o.oracleColumn(col, tsBits)
				if !bytes.Equal(w.Bytes(), o.buf) {
					t.Fatalf("ts=%d len=%d lead=%d: putColumn wrote %x, the bit loop %x", tsBits, length, lead, w.Bytes(), o.buf)
				}
				for _, number := range numbers {
					for _, data := range [][]byte{o.buf, o.buf[:max(len(o.buf)-1, 0)]} {
						got, want := make([]cmatrix.Cycle, length), make([]cmatrix.Cycle, length)
						rg, rw := NewBitReader(data), NewBitReader(data)
						rg.ReadBits(lead)
						rw.ReadBits(lead)
						errG, errW := getColumn(rg, got, tsBits, number), perEntry(rw, want, tsBits, number)
						if fmt.Sprint(errG) != fmt.Sprint(errW) || errors.Is(errG, ErrShortBuffer) != errors.Is(errW, ErrShortBuffer) {
							t.Fatalf("ts=%d len=%d lead=%d cycle=%d: getColumn error %v, per-entry getTS %v", tsBits, length, lead, number, errG, errW)
						}
						if errG != nil {
							continue
						}
						if fmt.Sprint(got) != fmt.Sprint(want) || rg.Remaining() != rw.Remaining() {
							t.Fatalf("ts=%d len=%d lead=%d cycle=%d: getColumn = %v with %d bits left, per-entry getTS = %v with %d",
								tsBits, length, lead, number, got, rg.Remaining(), want, rw.Remaining())
						}
					}
				}
			}
		}
	}
}

// TestColumnCodecErrorText pins the three failures of the column codec
// to the words they had when each entry went through putTS and getTS.
func TestColumnCodecErrorText(t *testing.T) {
	// A column the buffer cannot hold.
	err := getColumn(NewBitReader([]byte{0xFF}), make([]cmatrix.Cycle, 3), 8, 300)
	if err != ErrShortBuffer || err.Error() != "wire: short buffer" {
		t.Errorf("short column: %v", err)
	}
	// Frame 1 carries commits of cycle 0 only: raw 7 would be cycle -249.
	err = getColumn(NewBitReader([]byte{0, 7}), make([]cmatrix.Cycle, 2), 8, 1)
	if err == nil || err.Error() != "wire: timestamp 7 decodes before cycle 0 (corrupt frame)" {
		t.Errorf("timestamp before cycle 0: %v", err)
	}
	// A negative cycle is a caller's bug: the panic is Codec.Encode's.
	for name, put := range map[string]func(*BitWriter){
		"putColumn": func(w *BitWriter) { putColumn(w, []cmatrix.Cycle{3, -1}, 8) },
		"putTS":     func(w *BitWriter) { putTS(w, -1, 8) },
	} {
		func() {
			defer func() {
				if got := fmt.Sprint(recover()); got != "cmatrix: cannot encode negative cycle -1" {
					t.Errorf("%s of a negative cycle: panic %q", name, got)
				}
			}()
			put(NewBitWriter())
		}()
	}
	// A width no layout validates: the panic is Codec.Mod's, both ways.
	for name, f := range map[string]func(){
		"putColumn": func() { putColumn(NewBitWriter(), []cmatrix.Cycle{1}, 33) },
		"getColumn": func() { getColumn(NewBitReader(make([]byte, 8)), make([]cmatrix.Cycle, 1), 0, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s at a width outside [1,32] did not panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzColumnRoundTrip: for any width, reference cycle and column,
// putColumn agrees with the bit loop byte for byte, getColumn agrees
// with per-entry getTS, and every entry within the codec window of the
// reference cycle comes back exactly.
func FuzzColumnRoundTrip(f *testing.F) {
	f.Add(uint8(8), uint64(100), []byte{0, 0, 0, 0, 0, 0, 0, 99, 0, 0, 0, 0, 0, 0, 0, 3})
	f.Add(uint8(1), uint64(1), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(13), uint64(1<<40), []byte{0, 0, 0, 255, 255, 255, 255, 255, 0x7F, 1, 2, 3, 4, 5, 6, 7, 0, 0, 0, 0, 0, 0, 0x20, 0})
	f.Add(uint8(32), uint64(5), []byte{})
	f.Fuzz(func(t *testing.T, width uint8, ref uint64, raw []byte) {
		tsBits := int(width)%32 + 1
		number := cmatrix.Cycle(ref>>1) + 1 // >= 1, never negative
		col := make([]cmatrix.Cycle, len(raw)/8)
		for i := range col {
			col[i] = cmatrix.Cycle(binary.BigEndian.Uint64(raw[8*i:]) >> 1)
		}
		w, o := NewBitWriter(), &bitLoop{}
		putColumn(w, col, tsBits)
		o.oracleColumn(col, tsBits)
		if !bytes.Equal(w.Bytes(), o.buf) {
			t.Fatalf("ts=%d: putColumn(%v) = %x, the bit loop wrote %x", tsBits, col, w.Bytes(), o.buf)
		}
		got, want := make([]cmatrix.Cycle, len(col)), make([]cmatrix.Cycle, len(col))
		errG := getColumn(NewBitReader(o.buf), got, tsBits, number)
		errW := perEntry(NewBitReader(o.buf), want, tsBits, number)
		if fmt.Sprint(errG) != fmt.Sprint(errW) {
			t.Fatalf("ts=%d cycle=%d: getColumn error %v, per-entry getTS %v", tsBits, number, errG, errW)
		}
		if errG != nil {
			return
		}
		for i, c := range col {
			if got[i] != want[i] {
				t.Fatalf("ts=%d cycle=%d entry %d: getColumn %d, getTS %d", tsBits, number, i, got[i], want[i])
			}
			if age := number - 1 - c; age >= 0 && age < (cmatrix.Codec{Bits: tsBits}).Mod() && got[i] != c {
				t.Fatalf("ts=%d cycle=%d entry %d: %d came back as %d inside the codec window", tsBits, number, i, c, got[i])
			}
		}
	})
}
