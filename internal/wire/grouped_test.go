package wire

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
)

// groupedFixture builds a grouped broadcast over a random commit stream
// under the given partition.
func groupedFixture(t testing.TB, part *cmatrix.Partition, cycle cmatrix.Cycle, tsBits int) *bcast.CycleBroadcast {
	t.Helper()
	n := part.N()
	gc := cmatrix.NewGroupedControl(part)
	rng := rand.New(rand.NewSource(int64(n)*1000 + int64(cycle)))
	for c := cmatrix.Cycle(1); c < cycle; c++ {
		obj := rng.Intn(n)
		gc.Apply([]int{(obj + 3) % n}, []int{obj}, c)
	}
	values := make([][]byte, n)
	for j := range values {
		values[j] = []byte{byte(j), byte(j >> 8)}
	}
	return &bcast.CycleBroadcast{
		Number:  cycle,
		Layout:  bcast.LayoutFor(protocol.Grouped, n, 16, tsBits, part.Groups()),
		Values:  values,
		Grouped: gc.Grouped(),
	}
}

func TestGroupedCycleRoundTrip(t *testing.T) {
	parts := []*cmatrix.Partition{
		cmatrix.UniformPartition(12, 4),
		cmatrix.UniformPartition(12, 1),
		cmatrix.UniformPartition(12, 12),
		cmatrix.HeatPartition([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 0.5, 0.1, 0.2}, 5),
	}
	for pi, part := range parts {
		cb := groupedFixture(t, part, 40, 32)
		for _, withPart := range []bool{true, false} {
			frame, err := EncodeGroupedCycle(cb, 3, withPart)
			if err != nil {
				t.Fatalf("partition %d withPart=%v: encode: %v", pi, withPart, err)
			}
			if KindOf(frame) != KindGrouped {
				t.Fatal("frame does not carry the grouped magic")
			}
			var prevPart *cmatrix.Partition
			if !withPart {
				prevPart = part
			}
			got, epoch, err := DecodeGroupedCycle(frame, prevPart, 3)
			if err != nil {
				t.Fatalf("partition %d withPart=%v: decode: %v", pi, withPart, err)
			}
			if epoch != 3 || got.Number != cb.Number {
				t.Fatalf("decoded epoch %d cycle %d, want 3 and %d", epoch, got.Number, cb.Number)
			}
			if !got.Grouped.Equal(cb.Grouped) {
				t.Fatalf("partition %d withPart=%v: decoded MC differs", pi, withPart)
			}
			for j, v := range got.Values {
				if v[0] != byte(j) || v[1] != byte(j>>8) {
					t.Fatalf("object %d value corrupted: %v", j, v)
				}
			}
		}
	}
}

// TestGroupedCycleWrapAliasing checks that narrow timestamps alias
// upward (conservatively) and that zero entries survive sparseness
// exactly regardless of how far the cycle counter has run.
func TestGroupedCycleWrapAliasing(t *testing.T) {
	part := cmatrix.UniformPartition(6, 3)
	gc := cmatrix.NewGroupedControl(part)
	gc.Apply(nil, []int{0, 1}, 2) // far outside the 4-bit window at cycle 300
	gc.Apply(nil, []int{4}, 295)  // inside the window
	cb := &bcast.CycleBroadcast{
		Number:  300,
		Layout:  bcast.LayoutFor(protocol.Grouped, 6, 8, 4, 3),
		Values:  make([][]byte, 6),
		Grouped: gc.Grouped(),
	}
	frame, err := EncodeGroupedCycle(cb, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeGroupedCycle(frame, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v := got.Grouped.At(4, part.GroupOf(4)); v != 295 {
		t.Fatalf("in-window timestamp decoded to %d, want 295", v)
	}
	if v := got.Grouped.At(0, 0); v <= 2 || v > 299 {
		t.Fatalf("out-of-window timestamp decoded to %d, want a conservative alias in (2,299]", v)
	}
	// Entries never written stay exactly zero — sparseness drops them
	// from the frame instead of wrapping them.
	if v := got.Grouped.At(3, 1); v != 0 {
		t.Fatalf("never-written entry decoded to %d, want 0", v)
	}
}

func TestGroupedCycleSparseSavings(t *testing.T) {
	// A lightly-written 512-object broadcast must encode far smaller than
	// the dense grouped layout's analytic size.
	part := cmatrix.UniformPartition(512, 64)
	gc := cmatrix.NewGroupedControl(part)
	for c := cmatrix.Cycle(1); c <= 20; c++ {
		gc.Apply(nil, []int{int(c) % 512}, c)
	}
	cb := &bcast.CycleBroadcast{
		Number:  21,
		Layout:  bcast.LayoutFor(protocol.Grouped, 512, 8, 16, 64),
		Values:  make([][]byte, 512),
		Grouped: gc.Grouped(),
	}
	frame, err := EncodeGroupedCycle(cb, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	dense := cb.Layout.CycleBits() / 8
	if int64(len(frame))*4 > dense {
		t.Fatalf("sparse frame is %d bytes, dense layout %d — want at least 4× smaller", len(frame), dense)
	}
}

func TestGroupedCycleBitsMatchesEncoder(t *testing.T) {
	parts := []*cmatrix.Partition{
		cmatrix.UniformPartition(12, 4),
		cmatrix.HeatPartition([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 0.5, 0.1, 0.2}, 7),
	}
	for pi, part := range parts {
		cb := groupedFixture(t, part, 25, 16)
		for _, withPart := range []bool{true, false} {
			frame, err := EncodeGroupedCycle(cb, 1, withPart)
			if err != nil {
				t.Fatal(err)
			}
			got := GroupedCycleBits(cb.Grouped, 2, 16, withPart)
			if got != int64(len(frame))*8 {
				t.Fatalf("partition %d withPart=%v: sized %d bits, real frame is %d",
					pi, withPart, got, len(frame)*8)
			}
		}
	}
}

func TestGroupedCycleDecodeRejects(t *testing.T) {
	part := cmatrix.UniformPartition(8, 4)
	cb := groupedFixture(t, part, 30, 32)
	withPart, err := EncodeGroupedCycle(cb, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := EncodeGroupedCycle(cb, 7, false)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("torn", func(t *testing.T) {
		for cut := 0; cut < len(withPart); cut++ {
			if _, _, err := DecodeGroupedCycle(withPart[:cut], nil, 0); err == nil {
				t.Fatalf("torn frame of %d/%d bytes decoded", cut, len(withPart))
			}
		}
	})
	t.Run("trailing", func(t *testing.T) {
		if _, _, err := DecodeGroupedCycle(append(append([]byte(nil), withPart...), 0xAB), nil, 0); err == nil {
			t.Fatal("frame with trailing garbage decoded")
		}
	})
	t.Run("missing partition", func(t *testing.T) {
		if _, _, err := DecodeGroupedCycle(bare, nil, 7); err == nil {
			t.Fatal("partition-less frame decoded without a held partition")
		}
		if _, _, err := DecodeGroupedCycle(bare, part, 6); err == nil {
			t.Fatal("partition-less frame decoded against the wrong epoch")
		}
		if _, _, err := DecodeGroupedCycle(bare, cmatrix.UniformPartition(8, 2), 7); err == nil {
			t.Fatal("partition-less frame decoded against a wrong-shape partition")
		}
	})
	t.Run("epoch 0 needs no partition", func(t *testing.T) {
		// Every server starts on the uniform partition, so a late joiner
		// decodes an epoch-0 frame without ever hearing one.
		bare0, err := EncodeGroupedCycle(cb, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, held := range []*cmatrix.Partition{nil, cmatrix.UniformPartition(8, 2)} {
			got, epoch, err := DecodeGroupedCycle(bare0, held, 7)
			if err != nil || epoch != 0 || !got.Grouped.Equal(cb.Grouped) {
				t.Fatalf("epoch-0 frame with %v held: epoch %d, err %v", held, epoch, err)
			}
		}
	})
	t.Run("zero groups", func(t *testing.T) {
		bad := append([]byte(nil), withPart...)
		binary.BigEndian.PutUint32(bad[30:34], 0)
		if _, _, err := DecodeGroupedCycle(bad, nil, 0); err == nil {
			t.Fatal("zero-group frame decoded")
		}
	})
	t.Run("unknown flags", func(t *testing.T) {
		bad := append([]byte(nil), withPart...)
		bad[4] |= 0x80
		if _, _, err := DecodeGroupedCycle(bad, nil, 0); err == nil {
			t.Fatal("frame with unknown flags decoded")
		}
	})
	t.Run("duplicate group ids", func(t *testing.T) {
		// Hand-build a 1-object, 4-group frame whose sparse row lists
		// group 2 twice.
		w := NewBitWriter()
		var hdr [groupedHeaderBytes]byte
		copy(hdr[0:4], KindGrouped.magic())
		hdr[4] = groupedFlagPartition
		binary.BigEndian.PutUint64(hdr[5:13], 9)  // cycle
		binary.BigEndian.PutUint32(hdr[21:25], 1) // objects
		binary.BigEndian.PutUint32(hdr[25:29], 1) // objBytes
		hdr[29] = 8                               // tsBits
		binary.BigEndian.PutUint32(hdr[30:34], 4) // groups
		w.WriteBytes(hdr[:])
		w.WriteBits(2, 2) // partition: the object sits in group 2
		w.Align()
		w.WriteBytes([]byte{0xEE}) // value slot
		w.WriteBits(1, 1)          // sparse mode
		w.WriteBits(2, 3)          // two entries
		w.WriteBits(2, 2)          // group 2
		w.WriteBits(5, 8)          // ts 5
		w.WriteBits(2, 2)          // group 2 again — must be rejected
		w.WriteBits(6, 8)
		w.Align()
		if _, _, err := DecodeGroupedCycle(w.Bytes(), nil, 0); err == nil {
			t.Fatal("duplicate group ids decoded")
		}
	})
}

// FuzzGroupedColumnCodec fuzzes the sparse/grouped cycle codec: no
// panics on arbitrary bytes (torn input, zero-group frames, duplicate
// group ids all rejected as errors), and accepted frames survive a
// decode/encode/decode loop with identical control state.
func FuzzGroupedColumnCodec(f *testing.F) {
	part := cmatrix.HeatPartition([]float64{5, 1, 4, 2, 3, 0.5}, 3)
	cb := &bcast.CycleBroadcast{
		Number: 9,
		Layout: bcast.LayoutFor(protocol.Grouped, 6, 16, 8, 3),
		Values: [][]byte{{1, 2}, {3}, nil, {4}, {5}, {6}},
		Grouped: func() *cmatrix.Grouped {
			gc := cmatrix.NewGroupedControl(part)
			gc.Apply([]int{1}, []int{0, 2}, 4)
			gc.Apply(nil, []int{5}, 8)
			return gc.Grouped()
		}(),
	}
	withPart, err := EncodeGroupedCycle(cb, 2, true)
	if err != nil {
		f.Fatal(err)
	}
	bare, err := EncodeGroupedCycle(cb, 2, false)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withPart)
	f.Add(bare)
	f.Add([]byte{})
	f.Add([]byte("BCG1 garbage"))
	held := part
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, prev := range []*cmatrix.Partition{nil, held} {
			decoded, epoch, err := DecodeGroupedCycle(data, prev, 2)
			if err != nil {
				continue
			}
			re, err := EncodeGroupedCycle(decoded, epoch, true)
			if err != nil {
				t.Fatalf("decoded frame failed to re-encode: %v", err)
			}
			again, epoch2, err := DecodeGroupedCycle(re, nil, 0)
			if err != nil {
				t.Fatalf("re-encoded frame failed to decode: %v", err)
			}
			if epoch2 != epoch || again.Number != decoded.Number || !again.Grouped.Equal(decoded.Grouped) {
				t.Fatal("grouped decode/encode/decode unstable")
			}
		}
	})
}
