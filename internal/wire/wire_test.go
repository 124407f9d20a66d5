package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
)

func TestBitIORoundTrip(t *testing.T) {
	w := NewBitWriter()
	w.WriteBits(0b101, 3)
	w.WriteBits(0xABCD, 16)
	w.WriteBits(1, 1)
	w.WriteBytes([]byte{0xFF, 0x00})
	w.WriteBits(0x3FFFFFFFF, 34)
	r := NewBitReader(w.Bytes())
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Errorf("3-bit = %b", v)
	}
	if v, _ := r.ReadBits(16); v != 0xABCD {
		t.Errorf("16-bit = %x", v)
	}
	if v, _ := r.ReadBits(1); v != 1 {
		t.Errorf("1-bit = %d", v)
	}
	b, err := r.ReadBytes(2)
	if err != nil || b[0] != 0xFF || b[1] != 0x00 {
		t.Errorf("bytes = %x, %v", b, err)
	}
	if v, _ := r.ReadBits(34); v != 0x3FFFFFFFF {
		t.Errorf("34-bit = %x", v)
	}
}

func TestBitIOQuickRoundTrip(t *testing.T) {
	f := func(vals []uint16, widthsRaw []uint8) bool {
		n := len(vals)
		if len(widthsRaw) < n {
			n = len(widthsRaw)
		}
		w := NewBitWriter()
		widths := make([]int, n)
		masked := make([]uint64, n)
		for i := 0; i < n; i++ {
			widths[i] = int(widthsRaw[i]%16) + 1 // 1..16 bits
			masked[i] = uint64(vals[i]) & (1<<uint(widths[i]) - 1)
			w.WriteBits(masked[i], widths[i])
		}
		r := NewBitReader(w.Bytes())
		for i := 0; i < n; i++ {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != masked[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBitIOErrorsAndPanics(t *testing.T) {
	r := NewBitReader([]byte{0xFF})
	if _, err := r.ReadBits(9); !errors.Is(err, ErrShortBuffer) {
		t.Error("over-read should fail")
	}
	if _, err := r.ReadBytes(2); !errors.Is(err, ErrShortBuffer) {
		t.Error("over-read bytes should fail")
	}
	if r.Remaining() != 8 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
	for _, f := range []func(){
		func() { NewBitWriter().WriteBits(4, 2) },  // doesn't fit
		func() { NewBitWriter().WriteBits(0, 65) }, // bad width
		func() { NewBitReader(nil).ReadBits(-1) },  // bad width
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func randomCycleBroadcast(rng *rand.Rand, control bcast.ControlKind) *bcast.CycleBroadcast {
	n := 2 + rng.Intn(6)
	groups := 1 + rng.Intn(n)
	tsBits := 4 + rng.Intn(12)
	objBytes := 1 + rng.Intn(16)
	number := cmatrix.Cycle(1 + rng.Intn(200))
	layout := bcast.Layout{
		Objects: n, ObjectBits: int64(objBytes) * 8,
		TimestampBits: tsBits, Control: control, Groups: groups,
	}
	cb := &bcast.CycleBroadcast{Number: number, Layout: layout, Values: make([][]byte, n)}
	for j := 0; j < n; j++ {
		v := make([]byte, rng.Intn(objBytes+1))
		rng.Read(v)
		cb.Values[j] = v
	}
	// Control entries must be commit cycles < number and within the
	// codec window so decoding is exact.
	window := int64(1)<<uint(tsBits) - 1
	randCycle := func() cmatrix.Cycle {
		lo := int64(number) - window
		if lo < 0 {
			lo = 0
		}
		return cmatrix.Cycle(lo + rng.Int63n(int64(number)-lo))
	}
	switch control {
	case bcast.ControlMatrix:
		cols := make([][]cmatrix.Cycle, n)
		for j := range cols {
			cols[j] = make([]cmatrix.Cycle, n)
			for i := range cols[j] {
				cols[j][i] = randCycle()
			}
		}
		cb.Matrix, _ = cmatrix.MatrixFromColumns(cols)
	case bcast.ControlVector:
		entries := make([]cmatrix.Cycle, n)
		for i := range entries {
			entries[i] = randCycle()
		}
		cb.Vector, _ = cmatrix.VectorFromEntries(entries)
	case bcast.ControlGrouped:
		rows := make([][]cmatrix.Cycle, n)
		for i := range rows {
			rows[i] = make([]cmatrix.Cycle, groups)
			for s := range rows[i] {
				rows[i][s] = randCycle()
			}
		}
		cb.Grouped, _ = cmatrix.GroupedFromRows(cmatrix.UniformPartition(n, groups), rows)
	}
	return cb
}

func TestCycleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, control := range []bcast.ControlKind{bcast.ControlMatrix, bcast.ControlVector, bcast.ControlGrouped} {
		for trial := 0; trial < 100; trial++ {
			cb := randomCycleBroadcast(rng, control)
			data, err := EncodeCycle(cb)
			if err != nil {
				t.Fatalf("%v trial %d: %v", control, trial, err)
			}
			got, err := DecodeCycle(data)
			if err != nil {
				t.Fatalf("%v trial %d: %v", control, trial, err)
			}
			if got.Number != cb.Number {
				t.Fatalf("number %d != %d", got.Number, cb.Number)
			}
			objBytes := int((cb.Layout.ObjectBits + 7) / 8)
			for j, v := range cb.Values {
				want := make([]byte, objBytes)
				copy(want, v)
				if !reflect.DeepEqual(got.Values[j], want) {
					t.Fatalf("value %d mismatch", j)
				}
			}
			n := cb.Layout.Objects
			switch control {
			case bcast.ControlMatrix:
				if !got.Matrix.Equal(cb.Matrix) {
					t.Fatalf("matrix mismatch:\n%s\nvs\n%s", got.Matrix, cb.Matrix)
				}
			case bcast.ControlVector:
				for i := 0; i < n; i++ {
					if got.Vector.At(i) != cb.Vector.At(i) {
						t.Fatalf("vector entry %d: %d != %d", i, got.Vector.At(i), cb.Vector.At(i))
					}
				}
			case bcast.ControlGrouped:
				for i := 0; i < n; i++ {
					for s := 0; s < cb.Layout.Groups; s++ {
						if got.Grouped.At(i, s) != cb.Grouped.At(i, s) {
							t.Fatalf("grouped entry (%d,%d) mismatch", i, s)
						}
					}
				}
			}
		}
	}
}

// TestGroupedCycleEncodeByColumn holds the grouped BCC1 encoder, which
// reads MC off its columns, to the per-entry walk it replaced: every
// record packed from Column's Grouped.At lookups, byte for byte — on
// random full rows and on the sparse, partly empty MC of a commit stream
// at g = 1, 4 and n. The same streams' BCG1 frames, whose sparse rows
// list their groups ascending, must decode back to MC.
func TestGroupedCycleEncodeByColumn(t *testing.T) {
	perEntry := func(cb *bcast.CycleBroadcast) []byte {
		hdr := cycleHeader(cb.Number, cb.Layout)
		w := &BitWriter{buf: hdr[:]}
		for j, v := range cb.Values {
			if err := putSlot(w, j, v, objBytesOf(cb.Layout)); err != nil {
				t.Fatal(err)
			}
			col, err := Column(cb, j, nil)
			if err != nil {
				t.Fatal(err)
			}
			putColumn(w, col, cb.Layout.TimestampBits)
		}
		return w.Bytes()
	}
	rng := rand.New(rand.NewSource(38))
	var cycles []*bcast.CycleBroadcast
	for trial := 0; trial < 100; trial++ {
		cycles = append(cycles, randomCycleBroadcast(rng, bcast.ControlGrouped))
	}
	for _, g := range []int{1, 4, 40} {
		for _, number := range []cmatrix.Cycle{1, 5, 30, 300} {
			cycles = append(cycles, groupedFixture(t, cmatrix.UniformPartition(40, g), number, 6))
		}
	}
	for k, cb := range cycles {
		got, err := EncodeCycle(cb)
		if err != nil {
			t.Fatal(err)
		}
		if want := perEntry(cb); !bytes.Equal(got, want) {
			t.Fatalf("cycle %d (%d objects, %d groups): column walk encodes\n%x\nper-entry walk\n%x", k, cb.Layout.Objects, cb.Layout.Groups, got, want)
		}
	}
	for _, g := range []int{1, 4, 40} {
		for _, number := range []cmatrix.Cycle{5, 300} {
			cb := groupedFixture(t, cmatrix.UniformPartition(40, g), number, 16)
			frame, err := EncodeGroupedCycle(cb, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := DecodeGroupedCycle(frame, nil, 1)
			if err != nil || !got.Grouped.Equal(cb.Grouped) {
				t.Fatalf("g %d cycle %d: BCG1 frame decodes to a different MC (err %v)", g, number, err)
			}
		}
	}
}

// The encoded size must match the analytical bcast.Layout accounting
// (up to per-object byte alignment and the frame header).
func TestEncodedSizeMatchesLayout(t *testing.T) {
	layout := bcast.LayoutFor(protocol.FMatrix, 300, 8192, 8, 0)
	cb := &bcast.CycleBroadcast{
		Number: 5, Layout: layout,
		Values: make([][]byte, 300),
		Matrix: cmatrix.NewMatrix(300),
	}
	data, err := EncodeCycle(cb)
	if err != nil {
		t.Fatal(err)
	}
	// 8-bit timestamps and byte-sized objects: no padding anywhere.
	want := headerBytes + int(layout.CycleBits())/8
	if len(data) != want {
		t.Errorf("encoded %d bytes, want %d (layout %d bits + header)", len(data), want, layout.CycleBits())
	}
}

func TestEncodeCycleErrors(t *testing.T) {
	layout := bcast.LayoutFor(protocol.FMatrix, 2, 8, 8, 0)
	base := &bcast.CycleBroadcast{Number: 1, Layout: layout, Values: make([][]byte, 2), Matrix: cmatrix.NewMatrix(2)}
	if _, err := EncodeCycle(base); err != nil {
		t.Fatalf("valid broadcast rejected: %v", err)
	}
	tooFew := *base
	tooFew.Values = make([][]byte, 1)
	if _, err := EncodeCycle(&tooFew); err == nil {
		t.Error("wrong value count should fail")
	}
	tooBig := *base
	tooBig.Values = [][]byte{make([]byte, 2), nil} // 2 bytes into a 1-byte slot
	if _, err := EncodeCycle(&tooBig); err == nil {
		t.Error("oversized value should fail")
	}
	noMatrix := *base
	noMatrix.Matrix = nil
	if _, err := EncodeCycle(&noMatrix); err == nil {
		t.Error("matrix layout without matrix should fail")
	}
	badLayout := *base
	badLayout.Layout.Objects = 0
	if _, err := EncodeCycle(&badLayout); err == nil {
		t.Error("invalid layout should fail")
	}
	// MC is written where the layout places it, so its shape must match.
	for _, part := range []*cmatrix.Partition{cmatrix.UniformPartition(3, 2), cmatrix.UniformPartition(4, 3)} {
		cb := &bcast.CycleBroadcast{Number: 1, Layout: bcast.LayoutFor(protocol.Grouped, 4, 8, 8, 2),
			Values: make([][]byte, 4), Grouped: cmatrix.NewGroupedControl(part).Grouped()}
		if _, err := EncodeCycle(cb); err == nil {
			t.Errorf("a %d×%d grouped matrix under a 4×2 layout should fail", part.N(), part.Groups())
		}
	}
}

func TestDecodeCycleErrors(t *testing.T) {
	layout := bcast.LayoutFor(protocol.RMatrix, 2, 8, 8, 0)
	cb := &bcast.CycleBroadcast{Number: 3, Layout: layout, Values: make([][]byte, 2), Vector: cmatrix.NewVector(2)}
	data, err := EncodeCycle(cb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCycle(data[:5]); err == nil {
		t.Error("truncated header should fail")
	}
	if _, err := DecodeCycle(data[:len(data)-1]); err == nil {
		t.Error("truncated body should fail")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := DecodeCycle(bad); err == nil {
		t.Error("bad magic should fail")
	}
	zeroCycle := append([]byte(nil), data...)
	for i := 4; i < 12; i++ {
		zeroCycle[i] = 0
	}
	if _, err := DecodeCycle(zeroCycle); err == nil {
		t.Error("cycle 0 should fail")
	}
}

func TestUpdateRequestRoundTrip(t *testing.T) {
	req := protocol.UpdateRequest{
		Reads: []protocol.ReadAt{{Obj: 3, Cycle: 17}, {Obj: 0, Cycle: 1}},
		Writes: []protocol.ObjectWrite{
			{Obj: 5, Value: []byte("hello")},
			{Obj: 6, Value: nil},
		},
	}
	got, err := DecodeUpdateRequest(EncodeUpdateRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Reads, req.Reads) {
		t.Errorf("reads = %v", got.Reads)
	}
	if len(got.Writes) != 2 || got.Writes[0].Obj != 5 || string(got.Writes[0].Value) != "hello" {
		t.Errorf("writes = %v", got.Writes)
	}
	if len(got.Writes[1].Value) != 0 {
		t.Errorf("empty write value = %v", got.Writes[1].Value)
	}
	// Empty request.
	empty, err := DecodeUpdateRequest(EncodeUpdateRequest(protocol.UpdateRequest{}))
	if err != nil || len(empty.Reads) != 0 || len(empty.Writes) != 0 {
		t.Errorf("empty round trip: %+v, %v", empty, err)
	}
}

func TestUpdateRequestDecodeErrors(t *testing.T) {
	good := EncodeUpdateRequest(protocol.UpdateRequest{
		Reads:  []protocol.ReadAt{{Obj: 1, Cycle: 2}},
		Writes: []protocol.ObjectWrite{{Obj: 2, Value: []byte("x")}},
	})
	cases := map[string][]byte{
		"short":     good[:8],
		"bad magic": append([]byte("XXXX"), good[4:]...),
		"truncated": good[:len(good)-1],
		"trailing":  append(append([]byte(nil), good...), 0),
	}
	for name, data := range cases {
		if _, err := DecodeUpdateRequest(data); err == nil {
			t.Errorf("%s should fail", name)
		}
	}
	// Implausible counts.
	evil := append([]byte(nil), good[:12]...)
	evil[4], evil[5], evil[6], evil[7] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := DecodeUpdateRequest(evil); err == nil {
		t.Error("absurd read count should fail")
	}
}

func TestUpdateReplyRoundTrip(t *testing.T) {
	if commitErr, wireErr := DecodeUpdateReply(EncodeUpdateReply(nil)); commitErr != nil || wireErr != nil {
		t.Errorf("OK reply: %v, %v", commitErr, wireErr)
	}
	commitErr, wireErr := DecodeUpdateReply(EncodeUpdateReply(errors.New("stale read")))
	if wireErr != nil || commitErr == nil || commitErr.Error() != "server rejected update: stale read" {
		t.Errorf("reject reply: %v, %v", commitErr, wireErr)
	}
	for _, bad := range [][]byte{nil, {1}, {1, 0, 5, 'a'}, {0, 9}} {
		if _, wireErr := DecodeUpdateReply(bad); wireErr == nil {
			t.Errorf("malformed reply %v should fail", bad)
		}
	}
}

// TestViewCycleReencodes: a tuner's cycle encodes back to the frame it
// was viewed from, byte for byte — AppendCycle reads a matrix view's
// columns, a vector view's entries and a grouped view's rows
// (wire.Column) as it reads the in-process control structures — under
// every layout that goes on the air, at random widths and at Table 1's.
func TestViewCycleReencodes(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, control := range []bcast.ControlKind{bcast.ControlMatrix, bcast.ControlVector, bcast.ControlGrouped} {
		table1 := false // Table 1's width, whose reads take the one-byte path
		for range 200 {
			cb := randomCycleBroadcast(rng, control)
			table1 = table1 || cb.Layout.TimestampBits == 8
			frame, err := EncodeCycle(cb)
			if err != nil {
				t.Fatal(err)
			}
			view, err := ViewCycle(frame)
			if err != nil {
				t.Fatalf("%v cycle %d: %v", control, cb.Number, err)
			}
			if view.View == nil || view.Matrix != nil || view.Vector != nil || view.Grouped != nil {
				t.Fatalf("%v cycle %d: not a view: %+v", control, cb.Number, view)
			}
			again, err := AppendCycle(nil, view)
			if err != nil || !bytes.Equal(again, frame) {
				t.Fatalf("%v cycle %d (n %d, g %d, ts %d): the view re-encodes to %x, %v; viewed from %x",
					control, cb.Number, cb.Layout.Objects, cb.Layout.Groups, cb.Layout.TimestampBits, again, err, frame)
			}
		}
		if !table1 {
			t.Fatalf("%v: no 8-bit cycle drawn", control)
		}
	}
}
