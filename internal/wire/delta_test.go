package wire

import (
	"math/rand"
	"reflect"
	"testing"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
)

func TestDiffAndApplyDelta(t *testing.T) {
	old := cmatrix.NewMatrix(3)
	old.Apply(nil, []int{0}, 1)
	cur := old.Clone()
	cur.Apply([]int{0}, []int{1, 2}, 2)
	entries, err := cmatrix.Diff(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("expected changes")
	}
	rebuilt := old.Clone()
	if err := rebuilt.ApplyDelta(entries); err != nil {
		t.Fatal(err)
	}
	if !rebuilt.Equal(cur) {
		t.Fatalf("rebuilt:\n%s\nwant:\n%s", rebuilt, cur)
	}
	// Identical matrices diff to nothing.
	if entries, _ := cmatrix.Diff(cur, cur.Clone()); len(entries) != 0 {
		t.Errorf("self-diff = %v", entries)
	}
	if _, err := cmatrix.Diff(old, cmatrix.NewMatrix(4)); err == nil {
		t.Error("dimension mismatch should fail")
	}
	if err := rebuilt.ApplyDelta([]cmatrix.DeltaEntry{{I: 9, J: 0}}); err == nil {
		t.Error("out-of-range delta entry should fail")
	}
}

// simulate a server committing across cycles and check that full-frame
// plus delta-frame reconstruction tracks the true broadcasts exactly.
func TestDeltaStreamReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n = 6
	layout := bcast.LayoutFor(protocol.FMatrix, n, 64, 8, 0)
	m := cmatrix.NewMatrix(n)
	values := make([][]byte, n)
	for j := range values {
		values[j] = make([]byte, 8)
	}
	snapshot := func(number cmatrix.Cycle) *bcast.CycleBroadcast {
		cb := &bcast.CycleBroadcast{Number: number, Layout: layout, Values: make([][]byte, n), Matrix: m.Clone()}
		for j := range values {
			cb.Values[j] = append([]byte(nil), values[j]...)
		}
		return cb
	}

	var reconstructed *bcast.CycleBroadcast
	var prevTrue *bcast.CycleBroadcast
	for c := cmatrix.Cycle(1); c <= 30; c++ {
		cur := snapshot(c)
		var frame []byte
		var err error
		if c == 1 || c%10 == 0 { // periodic full frame
			frame, err = EncodeCycle(cur)
			if err != nil {
				t.Fatal(err)
			}
			reconstructed, err = DecodeCycle(frame)
		} else {
			frame, err = EncodeCycleDelta(prevTrue, cur)
			if err != nil {
				t.Fatal(err)
			}
			if KindOf(frame) != KindDelta {
				t.Fatal("delta frame not recognized")
			}
			reconstructed, err = DecodeCycleDelta(frame, reconstructed)
		}
		if err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if reconstructed.Number != cur.Number {
			t.Fatalf("cycle %d: number %d", c, reconstructed.Number)
		}
		if !reconstructed.Matrix.Equal(cur.Matrix) {
			t.Fatalf("cycle %d: matrix diverged\n%s\nvs\n%s", c, reconstructed.Matrix, cur.Matrix)
		}
		for j := range values {
			if !reflect.DeepEqual(reconstructed.Values[j], cur.Values[j]) {
				t.Fatalf("cycle %d: value %d diverged", c, j)
			}
		}
		prevTrue = cur

		// Commits during cycle c.
		for k := 0; k < rng.Intn(3); k++ {
			var rs, ws []int
			for _, o := range rng.Perm(n)[:rng.Intn(2)] {
				rs = append(rs, o)
			}
			for _, o := range rng.Perm(n)[:1+rng.Intn(2)] {
				ws = append(ws, o)
				values[o] = []byte{byte(c), byte(k), 0, 0, 0, 0, 0, 0}
			}
			m.Apply(rs, ws, c)
		}
	}
}

func TestDeltaErrors(t *testing.T) {
	layout := bcast.LayoutFor(protocol.FMatrix, 2, 8, 8, 0)
	mk := func(number cmatrix.Cycle) *bcast.CycleBroadcast {
		return &bcast.CycleBroadcast{
			Number: number, Layout: layout,
			Values: [][]byte{{1}, {2}},
			Matrix: cmatrix.NewMatrix(2),
		}
	}
	prev, cur := mk(1), mk(2)

	if _, err := EncodeCycleDelta(cur, prev); err == nil {
		t.Error("base after target should fail")
	}
	vecLayout := bcast.LayoutFor(protocol.RMatrix, 2, 8, 8, 0)
	vec := &bcast.CycleBroadcast{Number: 2, Layout: vecLayout, Values: [][]byte{{1}, {2}}, Vector: cmatrix.NewVector(2)}
	if _, err := EncodeCycleDelta(prev, vec); err == nil {
		t.Error("vector layout should be rejected")
	}

	frame, err := EncodeCycleDelta(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCycleDelta(frame, nil); err == nil {
		t.Error("missing previous reconstruction should fail")
	}
	if _, err := DecodeCycleDelta(frame, mk(5)); err == nil {
		t.Error("base mismatch should fail")
	}
	if _, err := DecodeCycleDelta(frame[:10], prev); err == nil {
		t.Error("truncated frame should fail")
	}
	bad := append([]byte(nil), frame...)
	bad[0] = 'X'
	if _, err := DecodeCycleDelta(bad, prev); err == nil {
		t.Error("bad magic should fail")
	}
}

func TestDeltaBitsAccounting(t *testing.T) {
	layout := bcast.LayoutFor(protocol.FMatrix, 300, 8192, 8, 0)
	// A quiet cycle (no changes) costs just the header.
	if got := DeltaBits(layout, 0, 0); got != int64(deltaHeaderBytes)*8 {
		t.Errorf("empty delta = %d bits", got)
	}
	// Full-matrix equivalence check: n² entries cost ~n²(2·9+8) bits,
	// far above the full frame only when nearly everything changed.
	full := layout.CycleBits()
	if DeltaBits(layout, 0, 10) >= full {
		t.Error("a 10-entry delta must be far below a full cycle")
	}
}
