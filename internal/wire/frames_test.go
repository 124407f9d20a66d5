package wire

import (
	"reflect"
	"strings"
	"testing"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
)

func sampleIndexFrame() *IndexFrame {
	return &IndexFrame{
		Number:    9,
		Segment:   2,
		M:         4,
		Frames:    12,
		NextIndex: 3,
		Offsets:   []int{1, 5, 12, 2, 7, 7},
	}
}

func TestIndexFrameRoundTrip(t *testing.T) {
	f := sampleIndexFrame()
	data, err := EncodeIndexFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if KindOf(data) != KindIndex {
		t.Fatal("magic misclassified")
	}
	got, err := DecodeIndexFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, f)
	}
}

func TestIndexFrameRejects(t *testing.T) {
	for name, mut := range map[string]func(*IndexFrame){
		"cycle 0":          func(f *IndexFrame) { f.Number = 0 },
		"segment >= m":     func(f *IndexFrame) { f.Segment = 4 },
		"m 0":              func(f *IndexFrame) { f.M = 0 },
		"no objects":       func(f *IndexFrame) { f.Offsets = nil },
		"too few frames":   func(f *IndexFrame) { f.Frames = 7 },
		"offset 0":         func(f *IndexFrame) { f.Offsets[0] = 0 },
		"offset > frames":  func(f *IndexFrame) { f.Offsets[0] = 13 },
		"nextIndex 0":      func(f *IndexFrame) { f.NextIndex = 0 },
		"nextIndex beyond": func(f *IndexFrame) { f.NextIndex = 13 },
	} {
		f := sampleIndexFrame()
		mut(f)
		if _, err := EncodeIndexFrame(f); err == nil {
			t.Errorf("%s: encoder accepted", name)
		}
	}
	good, err := EncodeIndexFrame(sampleIndexFrame())
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte("BCX1"), good[4:]...),
		"truncated":  good[:len(good)-1],
		"extended":   append(append([]byte(nil), good...), 0),
		"bad vers":   append([]byte{'B', 'C', 'I', '1', 99}, good[5:]...),
		"cycle wire": func() []byte { d := append([]byte(nil), good...); d[12] = 0; d[5] = 0; return d }(),
	} {
		if _, err := DecodeIndexFrame(data); err == nil {
			t.Errorf("%s: decoder accepted", name)
		}
	}
}

func sampleBucket(control bcast.ControlKind) *Bucket {
	l := bcast.Layout{Objects: 5, ObjectBits: 24, TimestampBits: 8, Control: control}
	b := &Bucket{Number: 11, Layout: l, Obj: 3, Seq: 6, Value: []byte{0xAA, 0xBB}}
	switch control {
	case bcast.ControlMatrix:
		b.Column = []cmatrix.Cycle{0, 4, 10, 7, 9}
	case bcast.ControlVector:
		b.Column = []cmatrix.Cycle{8}
	case bcast.ControlGrouped:
		b.Layout.Groups = 2
		b.Column = []cmatrix.Cycle{10, 3}
	case bcast.ControlNone:
		b.Layout.TimestampBits = 0
	}
	return b
}

func TestBucketFullRoundTrip(t *testing.T) {
	for _, control := range []bcast.ControlKind{bcast.ControlMatrix, bcast.ControlVector, bcast.ControlGrouped, bcast.ControlNone} {
		b := sampleBucket(control)
		data, err := EncodeBucket(b, nil)
		if err != nil {
			t.Fatalf("%v: %v", control, err)
		}
		if KindOf(data) != KindBucket {
			t.Fatalf("%v: magic misclassified", control)
		}
		if got := BucketBits(b.Layout, -1); got != int64(len(data))*8 {
			t.Fatalf("%v: BucketBits(full) = %d, encoded %d", control, got, len(data)*8)
		}
		got, err := DecodeBucket(data, nil)
		if err != nil {
			t.Fatalf("%v: %v", control, err)
		}
		if got.Number != b.Number || got.Obj != b.Obj || got.Seq != b.Seq || got.Delta {
			t.Fatalf("%v: header mismatch: %+v", control, got)
		}
		// Vector/grouped layouts don't carry n on full frames? They do —
		// the header has the objects field, so layouts round-trip whole.
		if got.Layout != b.Layout {
			t.Fatalf("%v: layout %+v, want %+v", control, got.Layout, b.Layout)
		}
		if !reflect.DeepEqual(got.Column, b.Column) {
			t.Fatalf("%v: column %v, want %v", control, got.Column, b.Column)
		}
		wantVal := []byte{0xAA, 0xBB, 0}
		if !reflect.DeepEqual(got.Value, wantVal) {
			t.Fatalf("%v: value %v, want %v", control, got.Value, wantVal)
		}
	}
}

func TestBucketDeltaRoundTrip(t *testing.T) {
	b := sampleBucket(bcast.ControlMatrix)
	prev := []cmatrix.Cycle{0, 4, 2, 7, 3} // entries 2 and 4 differ
	data, err := EncodeBucket(b, prev)
	if err != nil {
		t.Fatal(err)
	}
	full, err := EncodeBucket(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) >= len(full) {
		t.Fatalf("2-entry delta (%dB) not smaller than full column (%dB)", len(data), len(full))
	}
	if got := BucketBits(b.Layout, 2); got != int64(len(data))*8 {
		t.Fatalf("BucketBits(2) = %d, encoded %d", got, len(data)*8)
	}
	got, err := DecodeBucket(data, prev)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Delta {
		t.Fatal("delta flag lost")
	}
	if !reflect.DeepEqual(got.Column, b.Column) {
		t.Fatalf("reconstructed column %v, want %v", got.Column, b.Column)
	}
	// prev must not be mutated by reconstruction.
	if !reflect.DeepEqual(prev, []cmatrix.Cycle{0, 4, 2, 7, 3}) {
		t.Fatal("decode mutated the previous column")
	}

	// Empty delta: identical columns — the intra-major-cycle case.
	same, err := EncodeBucket(b, b.Column)
	if err != nil {
		t.Fatal(err)
	}
	if len(same) >= len(full) {
		t.Fatal("empty delta not smaller than full")
	}
	got, err = DecodeBucket(same, b.Column)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Column, b.Column) {
		t.Fatalf("empty delta column %v, want %v", got.Column, b.Column)
	}
}

func TestBucketDeltaChainErrors(t *testing.T) {
	b := sampleBucket(bcast.ControlMatrix)
	prev := []cmatrix.Cycle{0, 4, 2, 7, 3}
	data, err := EncodeBucket(b, prev)
	if err != nil {
		t.Fatal(err)
	}
	// A client that missed the base occurrence has no previous column.
	if _, err := DecodeBucket(data, nil); err == nil || !strings.Contains(err.Error(), "previous occurrence") {
		t.Fatalf("delta without prev accepted: %v", err)
	}
	// A wrong-length column is a protocol error, not silently applied.
	if _, err := DecodeBucket(data, prev[:4]); err == nil {
		t.Fatal("delta with short prev accepted")
	}
	// Sequence 0 can have no base.
	b0 := sampleBucket(bcast.ControlMatrix)
	b0.Seq = 0
	if _, err := EncodeBucket(b0, prev); err == nil {
		t.Fatal("seq-0 delta accepted by encoder")
	}
}

func TestBucketRejects(t *testing.T) {
	b := sampleBucket(bcast.ControlMatrix)
	for name, mut := range map[string]func(*Bucket){
		"cycle 0":       func(b *Bucket) { b.Number = 0 },
		"obj range":     func(b *Bucket) { b.Obj = 5 },
		"obj negative":  func(b *Bucket) { b.Obj = -1 },
		"short column":  func(b *Bucket) { b.Column = b.Column[:3] },
		"value too big": func(b *Bucket) { b.Value = []byte{1, 2, 3, 4, 5} },
	} {
		bb := sampleBucket(bcast.ControlMatrix)
		mut(bb)
		if _, err := EncodeBucket(bb, nil); err == nil {
			t.Errorf("%s: encoder accepted", name)
		}
	}
	good, err := EncodeBucket(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("BCX1"), good[4:]...),
		"truncated": good[:len(good)-1],
		"extended":  append(append([]byte(nil), good...), 0),
		"bad vers":  append([]byte{'B', 'C', 'B', '1', 99}, good[5:]...),
		"bad flags": func() []byte { d := append([]byte(nil), good...); d[5] = 0x80; return d }(),
		"cycle 0":   func() []byte { d := append([]byte(nil), good...); copy(d[6:14], make([]byte, 8)); return d }(),
	} {
		if _, err := DecodeBucket(data, nil); err == nil {
			t.Errorf("%s: decoder accepted", name)
		}
	}
	// A full frame claiming delta entry counts is inconsistent.
	d := append([]byte(nil), good...)
	d[39] = 1
	if _, err := DecodeBucket(d, nil); err == nil {
		t.Fatal("full frame with nEntries accepted")
	}
}

func TestBucketColumnMatchesCycleFrame(t *testing.T) {
	// A bucket's reconstructed column must agree entry-for-entry with the
	// column a client would read from the flat cycle frame — that is the
	// Theorem 1/2 compatibility contract the program path relies on.
	layout := bcast.LayoutFor(protocol.FMatrix, 4, 16, 8, 0)
	m := cmatrix.NewMatrix(4)
	m.Apply(nil, []int{1, 2}, 3)
	m.Apply([]int{1}, []int{0}, 5)
	cb := &bcast.CycleBroadcast{
		Number: 6, Layout: layout,
		Values: [][]byte{{1}, {2}, {3}, {4}},
		Matrix: m,
	}
	frame, err := EncodeCycle(cb)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := DecodeCycle(frame)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		col := m.Column(j)
		data, err := EncodeBucket(&Bucket{Number: 6, Layout: layout, Obj: j, Seq: 1, Value: cb.Values[j], Column: col}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBucket(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if got.Column[i] != flat.Matrix.At(i, j) {
				t.Fatalf("bucket column (%d,%d) = %d, cycle frame has %d", i, j, got.Column[i], flat.Matrix.At(i, j))
			}
		}
	}
}
