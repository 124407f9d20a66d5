package wire

import (
	"bytes"
	"reflect"
	"testing"

	"broadcastcc/internal/protocol"
)

func TestShardFrameRoundTrip(t *testing.T) {
	req := protocol.UpdateRequest{
		Reads: []protocol.ReadAt{{Obj: 3, Cycle: 17}, {Obj: 0, Cycle: 2}},
		Writes: []protocol.ObjectWrite{
			{Obj: 1, Value: []byte("hello")},
			{Obj: 9, Value: nil},
		},
	}
	for _, remote := range []bool{false, true} {
		frame := EncodePrepare(0xdeadbeefcafe, req, remote)
		token, got, gotRemote, err := DecodePrepare(frame)
		if err != nil {
			t.Fatalf("remote=%v: %v", remote, err)
		}
		if token != 0xdeadbeefcafe || gotRemote != remote {
			t.Fatalf("header mismatch: token %x remote %v", token, gotRemote)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("body mismatch:\n got %+v\nwant %+v", got, req)
		}
	}
	for _, commit := range []bool{false, true} {
		token, got, err := DecodeDecision(EncodeDecision(42, commit))
		if err != nil || token != 42 || got != commit {
			t.Fatalf("decision round trip: token %d commit %v err %v", token, got, err)
		}
	}
}

// TestShardFrameAppend: both shots append to a buffer the bytes their
// Encode function returns (the golden frames pin those), behind what
// it already holds, and into a buffer with room they allocate nothing.
func TestShardFrameAppend(t *testing.T) {
	req := protocol.UpdateRequest{
		Reads:  []protocol.ReadAt{{Obj: 3, Cycle: 17}},
		Writes: []protocol.ObjectWrite{{Obj: 1, Value: make([]byte, 1024)}},
	}
	prefix := []byte{9, 9, 9, 9}
	buf := make([]byte, 0, 2048)
	for _, shot := range []struct {
		name   string
		want   []byte
		append func(dst []byte) []byte
	}{
		{"prepare", EncodePrepare(7, req, true), func(dst []byte) []byte { return AppendPrepare(dst, 7, req, true) }},
		{"decision", EncodeDecision(7, false), func(dst []byte) []byte { return AppendDecision(dst, 7, false) }},
	} {
		if got := shot.append(append(buf[:0], prefix...)); !bytes.Equal(got, append(prefix, shot.want...)) {
			t.Errorf("%s: appended %x, want %x behind the prefix", shot.name, got, shot.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { buf = shot.append(buf[:0]) }); allocs != 0 {
			t.Errorf("%s: %.0f allocations appending into a buffer with room", shot.name, allocs)
		}
	}
}

func TestShardFrameRejectsBadInput(t *testing.T) {
	req := protocol.UpdateRequest{Writes: []protocol.ObjectWrite{{Obj: 1, Value: []byte("v")}}}
	good := EncodePrepare(7, req, true)
	if _, _, _, err := DecodePrepare(good[:12]); err == nil {
		t.Error("torn prepare accepted")
	}
	bad := append([]byte(nil), good...)
	bad[12] = 2
	if _, _, _, err := DecodePrepare(bad); err == nil {
		t.Error("bad remote flag accepted")
	}
	bad = append([]byte(nil), good...)
	bad[0] = 'X'
	if _, _, _, err := DecodePrepare(bad); err == nil {
		t.Error("bad prepare magic accepted")
	}
	if _, _, _, err := DecodePrepare(append(good, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	dec := EncodeDecision(1, true)
	if _, _, err := DecodeDecision(dec[:12]); err == nil {
		t.Error("torn decision accepted")
	}
	if _, _, err := DecodeDecision(append(dec, 9)); err == nil {
		t.Error("oversize decision accepted")
	}
	bad = append([]byte(nil), dec...)
	bad[12] = 3
	if _, _, err := DecodeDecision(bad); err == nil {
		t.Error("bad commit flag accepted")
	}
	bad[0] = 'Y'
	if _, _, err := DecodeDecision(bad); err == nil {
		t.Error("bad decision magic accepted")
	}
}

// FuzzShardFrameCodec: any byte string either fails to decode or
// round-trips byte-identically through re-encode, for both shard frame
// kinds.
func FuzzShardFrameCodec(f *testing.F) {
	req := protocol.UpdateRequest{
		Reads:  []protocol.ReadAt{{Obj: 2, Cycle: 5}},
		Writes: []protocol.ObjectWrite{{Obj: 0, Value: []byte("x")}},
	}
	f.Add(EncodePrepare(3, req, true))
	f.Add(EncodePrepare(0, protocol.UpdateRequest{}, false))
	f.Add(EncodeDecision(9, true))
	f.Add(EncodeDecision(0, false))
	f.Fuzz(func(t *testing.T, data []byte) {
		if token, req, remote, err := DecodePrepare(data); err == nil {
			if !bytes.Equal(EncodePrepare(token, req, remote), data) {
				t.Fatalf("prepare re-encode differs for %x", data)
			}
		}
		if token, commit, err := DecodeDecision(data); err == nil {
			if !bytes.Equal(EncodeDecision(token, commit), data) {
				t.Fatalf("decision re-encode differs for %x", data)
			}
		}
	})
}
