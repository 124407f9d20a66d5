package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
)

// FuzzDecodeCycle checks that arbitrary bytes never panic the cycle
// decoder, and that valid frames survive a decode/encode/decode loop.
func FuzzDecodeCycle(f *testing.F) {
	layout := bcast.LayoutFor(protocol.FMatrix, 3, 16, 8, 0)
	cb := &bcast.CycleBroadcast{
		Number: 7, Layout: layout,
		Values: [][]byte{{1, 2}, {3}, nil},
		Matrix: cmatrix.NewMatrix(3),
	}
	good, err := EncodeCycle(cb)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("BCC1 garbage"))
	vec := &bcast.CycleBroadcast{
		Number: 2,
		Layout: bcast.LayoutFor(protocol.RMatrix, 2, 8, 8, 0),
		Values: [][]byte{{9}, {8}},
		Vector: cmatrix.NewVector(2),
	}
	goodVec, _ := EncodeCycle(vec)
	f.Add(goodVec)
	f.Add(overflowCycleHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := DecodeCycle(data)
		if err != nil {
			return
		}
		re, err := EncodeCycle(decoded)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		again, err := DecodeCycle(re)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if again.Number != decoded.Number || len(again.Values) != len(decoded.Values) {
			t.Fatal("decode/encode/decode unstable")
		}
	})
}

// FuzzCycleView holds ViewCycle to its oracle, DecodeCycle: on every
// input both refuse, with the same error, or both accept, and then the
// view answers every Bound(i, j) (and, for a matrix, Col(j)) as the
// decoded matrix or grouped matrix does, and the values are the same
// windows onto the frame.
func FuzzCycleView(f *testing.F) {
	mk := func(number cmatrix.Cycle, n, tsBits int) []byte {
		cb := &bcast.CycleBroadcast{
			Number: number, Layout: bcast.LayoutFor(protocol.FMatrix, n, 16, tsBits, 0),
			Values: make([][]byte, n), Matrix: cmatrix.NewMatrix(n),
		}
		frame, err := EncodeCycle(cb)
		if err != nil {
			f.Fatal(err)
		}
		return frame
	}
	for _, seed := range [][]byte{mk(7, 3, 8), {}, []byte("BCC1 garbage"), overflowCycleHeader()} {
		f.Add(seed)
	}
	vec, err := EncodeCycle(&bcast.CycleBroadcast{
		Number: 2, Layout: bcast.LayoutFor(protocol.RMatrix, 2, 8, 8, 0),
		Values: [][]byte{{9}, {8}}, Vector: cmatrix.NewVector(2),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(vec)
	// C(1, 2) = 200 on the air: before cycle 0 at cycle 7 (refused), a
	// real cycle at 300, past the first 2^8 cycles (accepted).
	early := mk(7, 3, 8)
	early[headerBytes+2*(2+3)+2+1] = 200
	late := append([]byte(nil), early...)
	binary.BigEndian.PutUint64(late[4:12], 300)
	if _, err := DecodeCycle(early); err == nil {
		f.Fatal("a timestamp before cycle 0 decoded")
	}
	if cb, err := DecodeCycle(late); err != nil || cb.Matrix.At(1, 2) != 200 {
		f.Fatalf("cycle 300's C(1, 2): %v", err)
	}
	f.Add(early)
	f.Add(late)
	f.Add(mk(40, 5, 5))
	grouped := func(number cmatrix.Cycle, g, tsBits int) []byte {
		frame, err := EncodeCycle(groupedFixture(f, cmatrix.UniformPartition(8, g), number, tsBits))
		if err != nil {
			f.Fatal(err)
		}
		return frame
	}
	for _, g := range []int{1, 4, 8} {
		f.Add(grouped(40, g, 8))
	}
	f.Add(grouped(40, 3, 5))
	// MC(1, 2) = 200 on the air (record 1, field 2 at g = 4): refused at
	// cycle 7, accepted at 300.
	early = grouped(7, 4, 8)
	early[headerBytes+(2+4)+2+2] = 200
	late = append([]byte(nil), early...)
	binary.BigEndian.PutUint64(late[4:12], 300)
	edge := append([]byte(nil), early...) // raw 7 at cycle 7: the first value past the reference
	edge[headerBytes+(2+4)+2+2] = 7
	for _, frame := range [][]byte{early, edge} {
		if _, err := DecodeCycle(frame); err == nil {
			f.Fatal("a grouped timestamp before cycle 0 decoded")
		}
	}
	f.Add(edge)
	if cb, err := DecodeCycle(late); err != nil || cb.Grouped.At(1, 2) != 200 {
		f.Fatalf("cycle 300's MC(1, 2): %v", err)
	}
	f.Add(early)
	f.Add(late)
	f.Fuzz(func(t *testing.T, data []byte) {
		want, errD := DecodeCycle(data)
		got, errV := ViewCycle(data)
		if errD != nil || errV != nil {
			if errD == nil || errV == nil || errD.Error() != errV.Error() {
				t.Fatalf("DecodeCycle: %v; ViewCycle: %v", errD, errV)
			}
			return
		}
		if got.Number != want.Number || got.Layout != want.Layout || len(got.Values) != len(want.Values) {
			t.Fatalf("view %d %+v %d values, decoded %d %+v %d", got.Number, got.Layout, len(got.Values), want.Number, want.Layout, len(want.Values))
		}
		for j, v := range got.Values {
			if w := want.Values[j]; len(v) != len(w) || cap(v) != cap(w) || &v[0] != &w[0] {
				t.Fatalf("value %d is not DecodeCycle's window onto the frame", j)
			}
		}
		if want.Grouped != nil {
			if got.Grouped != nil || got.View == nil {
				t.Fatal("grouped layout without a view")
			}
			for i := range got.Values {
				for j := range got.Values {
					if b := got.View.Bound(i, j); b != want.Grouped.Bound(i, j) {
						t.Fatalf("Bound(%d, %d) = %d, want MC(%d, group %d) = %d", i, j, b, i, want.Grouped.Part().GroupOf(j), want.Grouped.Bound(i, j))
					}
				}
			}
			defer func() {
				if recover() == nil {
					t.Fatal("Col of a grouped view returned")
				}
			}()
			got.View.Col(0, nil) // a grouped record holds no column
			return
		}
		if want.Matrix == nil {
			if got.View != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%v layout: ViewCycle did not decode as DecodeCycle does", want.Layout.Control)
			}
			return
		}
		if got.Matrix != nil || got.View == nil {
			t.Fatal("matrix layout without a view")
		}
		for j := range got.Values {
			if col := got.View.Col(j, []cmatrix.Cycle{-1}); !slices.Equal(col[1:], want.Matrix.Col(j)) || col[0] != -1 {
				t.Fatalf("Col(%d) = %v, want %v after the -1 it was given", j, col, want.Matrix.Col(j))
			}
			for i := range got.Values {
				if b := got.View.Bound(i, j); b != want.Matrix.At(i, j) {
					t.Fatalf("Bound(%d, %d) = %d, want %d", i, j, b, want.Matrix.At(i, j))
				}
			}
		}
	})
}

// FuzzDecodeUpdateRequest checks the uplink request decoder against
// arbitrary input: an accepted request survives a round trip, and a
// decode into a request that already holds an earlier, larger one —
// the uplink port's reused request — is the fresh decode, error for
// error.
func FuzzDecodeUpdateRequest(f *testing.F) {
	good := EncodeUpdateRequest(protocol.UpdateRequest{
		Reads:  []protocol.ReadAt{{Obj: 1, Cycle: 3}},
		Writes: []protocol.ObjectWrite{{Obj: 0, Value: []byte("v")}},
	})
	var larger protocol.UpdateRequest
	for i := 0; i < 8; i++ {
		larger.Reads = append(larger.Reads, protocol.ReadAt{Obj: i, Cycle: 9})
		larger.Writes = append(larger.Writes, protocol.ObjectWrite{Obj: i, Value: []byte("earlier")})
	}
	earlier := EncodeUpdateRequest(larger)
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("BCU1"))
	f.Add(EncodeUpdateRequest(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: 2}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeUpdateRequest(data)
		var reused protocol.UpdateRequest
		if err := DecodeUpdateRequestInto(&reused, earlier); err != nil {
			t.Fatal(err)
		}
		if reusedErr := DecodeUpdateRequestInto(&reused, data); fmt.Sprint(reusedErr) != fmt.Sprint(err) {
			t.Fatalf("fresh decode fails with %v, reused with %v", err, reusedErr)
		}
		if err != nil {
			return
		}
		sameWrite := func(a, b protocol.ObjectWrite) bool {
			return a.Obj == b.Obj && bytes.Equal(a.Value, b.Value) && (a.Value == nil) == (b.Value == nil)
		}
		if !slices.Equal(req.Reads, reused.Reads) || !slices.EqualFunc(req.Writes, reused.Writes, sameWrite) {
			t.Fatalf("reused decode %+v, fresh %+v", reused, req)
		}
		round, err := DecodeUpdateRequest(EncodeUpdateRequest(req))
		if err != nil {
			t.Fatalf("accepted request failed round trip: %v", err)
		}
		if len(round.Reads) != len(req.Reads) || len(round.Writes) != len(req.Writes) {
			t.Fatal("round trip changed shape")
		}
	})
}

// FuzzDecodeUpdateReply checks the reply decoder.
func FuzzDecodeUpdateReply(f *testing.F) {
	f.Add([]byte{0})
	f.Add(EncodeUpdateReply(nil))
	f.Add([]byte{1, 0, 2, 'n', 'o'})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeUpdateReply(data) // must not panic
	})
}

// FuzzDecodeFrames checks the program-mode frame decoders (index
// segments and data buckets) against arbitrary bytes: no panics, and
// accepted frames survive a decode/encode/decode loop.
func FuzzDecodeFrames(f *testing.F) {
	goodIdx, err := EncodeIndexFrame(&IndexFrame{
		Number: 3, Segment: 1, M: 2, Frames: 8, NextIndex: 4,
		Offsets: []int{1, 2, 3, 8},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(goodIdx)
	layout := bcast.LayoutFor(protocol.FMatrix, 3, 16, 8, 0)
	full, err := EncodeBucket(&Bucket{
		Number: 5, Layout: layout, Obj: 1, Seq: 2,
		Value: []byte{7}, Column: []cmatrix.Cycle{1, 0, 4},
	}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	delta, err := EncodeBucket(&Bucket{
		Number: 5, Layout: layout, Obj: 1, Seq: 2,
		Value: []byte{7}, Column: []cmatrix.Cycle{1, 0, 4},
	}, []cmatrix.Cycle{1, 3, 4})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(delta)
	f.Add([]byte{})
	f.Add([]byte("BCI1 garbage"))
	f.Add([]byte("BCB1 garbage"))
	prev := []cmatrix.Cycle{1, 3, 4}
	f.Fuzz(func(t *testing.T, data []byte) {
		if idx, err := DecodeIndexFrame(data); err == nil {
			re, err := EncodeIndexFrame(idx)
			if err != nil {
				t.Fatalf("decoded index frame failed to re-encode: %v", err)
			}
			again, err := DecodeIndexFrame(re)
			if err != nil {
				t.Fatalf("re-encoded index frame failed to decode: %v", err)
			}
			if again.Number != idx.Number || len(again.Offsets) != len(idx.Offsets) {
				t.Fatal("index decode/encode/decode unstable")
			}
		}
		// Decode both with and without a previous column: delta frames
		// need one, full frames must ignore it.
		for _, pc := range [][]cmatrix.Cycle{nil, prev} {
			b, err := DecodeBucket(data, pc)
			if err != nil {
				continue
			}
			re, err := EncodeBucket(b, nil)
			if err != nil {
				t.Fatalf("decoded bucket failed to re-encode: %v", err)
			}
			again, err := DecodeBucket(re, nil)
			if err != nil {
				t.Fatalf("re-encoded bucket failed to decode: %v", err)
			}
			if again.Number != b.Number || again.Obj != b.Obj || len(again.Column) != len(b.Column) {
				t.Fatal("bucket decode/encode/decode unstable")
			}
		}
	})
}

// FuzzDecodeAnyFrame is the one fuzz target over the frame-kind table:
// arbitrary bytes go to the decoder KindOf picks, and whatever that
// decoder accepts must survive re-encode and decode. No input may panic
// a decoder or make it allocate more than a small multiple of its own
// length — a header must never size an allocation the payload does not
// back. Seeded with every golden frame.
func FuzzDecodeAnyFrame(f *testing.F) {
	var base *bcast.CycleBroadcast // what the golden BCD1 delta builds on
	for _, g := range readGolden(f) {
		f.Add(g.data)
		if g.name == "BCC1-matrix" {
			cb, err := DecodeCycle(g.data)
			if err != nil {
				f.Fatal(err)
			}
			base = cb
		}
	}
	f.Add(overflowCycleHeader())
	f.Add([]byte{})
	// The retired cross-shard shots as they were framed (prepare: token,
	// remote flag, then a BCU1 body; decision: token, commit flag). No
	// kind claims their magics any more.
	body := EncodeUpdateRequest(protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: 2, Value: []byte("v")}}})[4:]
	f.Add(append([]byte("BCP1\x00\x00\x00\x00\x00\x00\x00\x07\x01"), body...))
	f.Add([]byte("BCT1\x00\x00\x00\x00\x00\x00\x00\x07\x01"))
	// The retired subset filter and subset cycle, as their golden frames
	// were: they meet the unknown-kind path now.
	for _, hx := range []string{
		"42435132000000020000000100000003",
		"424351330000000000000007000000040000000208000000020000000162620003000000000003640000030505",
	} {
		data, err := hex.DecodeString(hx)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	part := cmatrix.UniformPartition(6, 3) // the golden BCG1 frames' partition, epoch 3
	prevCol := []cmatrix.Cycle{0, 4, 8, 7, 2}
	f.Fuzz(func(t *testing.T, data []byte) {
		var err error
		n := allocatedBy(func() { err = roundTrip(data, base, part, prevCol) })
		if err != nil {
			t.Fatalf("%v frame: %v", KindOf(data), err)
		}
		// The widest legitimate expansion is a 1-bit timestamp becoming an
		// 8-byte Cycle (64×), held a few times over by decode, re-encode
		// and decode.
		if limit := uint64(1<<20 + 1024*len(data)); n > limit {
			t.Fatalf("%v frame of %d bytes made its decoder allocate %d bytes", KindOf(data), len(data), n)
		}
	})
}

// roundTrip decodes data as the kind its magic names; an accepted frame
// must re-encode and decode again. A rejected frame is not an error.
func roundTrip(data []byte, base *bcast.CycleBroadcast, part *cmatrix.Partition, prevCol []cmatrix.Cycle) error {
	var re []byte
	var err error
	switch KindOf(data) {
	case KindCycle:
		cb, derr := DecodeCycle(data)
		if derr != nil {
			return nil
		}
		if re, err = EncodeCycle(cb); err == nil {
			_, err = DecodeCycle(re)
		}
	case KindDelta:
		cb, derr := DecodeCycleDelta(data, base)
		if derr != nil {
			return nil
		}
		if re, err = EncodeCycleDelta(base, cb); err == nil {
			var again *bcast.CycleBroadcast
			if again, err = DecodeCycleDelta(re, base); err == nil && !again.Matrix.Equal(cb.Matrix) {
				err = fmt.Errorf("delta round trip changed the matrix")
			}
		}
	case KindGrouped:
		cb, epoch, derr := DecodeGroupedCycle(data, part, 3)
		if derr != nil {
			return nil
		}
		if re, err = EncodeGroupedCycle(cb, epoch, true); err == nil {
			var again *bcast.CycleBroadcast
			if again, _, err = DecodeGroupedCycle(re, nil, 0); err == nil && !again.Grouped.Equal(cb.Grouped) {
				err = fmt.Errorf("grouped round trip changed MC")
			}
		}
	case KindIndex:
		idx, derr := DecodeIndexFrame(data)
		if derr != nil {
			return nil
		}
		if re, err = EncodeIndexFrame(idx); err == nil {
			_, err = DecodeIndexFrame(re)
		}
	case KindBucket:
		b, derr := DecodeBucket(data, prevCol)
		if derr != nil {
			return nil
		}
		if re, err = EncodeBucket(b, nil); err == nil {
			_, err = DecodeBucket(re, nil)
		}
	case KindCacheRecord:
		rec, derr := DecodeCacheRecord(data)
		if derr != nil {
			return nil
		}
		re = EncodeCacheRecord(rec)
	case KindUpdate:
		req, derr := DecodeUpdateRequest(data)
		if derr != nil {
			return nil
		}
		re = EncodeUpdateRequest(req)
	default: // the one magic-less message
		_, _ = DecodeUpdateReply(data)
		return nil
	}
	if err != nil {
		return fmt.Errorf("accepted, but the round trip failed: %w", err)
	}
	switch KindOf(data) {
	case KindCacheRecord, KindUpdate:
		// Byte-aligned kinds with no padding and no ignored field: the
		// encoding of what was decoded is the input.
		if !bytes.Equal(re, data) {
			return fmt.Errorf("re-encodes as %x", re)
		}
	}
	return nil
}
