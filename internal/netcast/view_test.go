package netcast

import (
	"math/rand"
	"runtime"
	"testing"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/wire"
)

// matrixCycle is a Table 1 shaped cycle (F-Matrix, 1 KiB objects,
// TS = 8) of n objects at the given number, every entry one of the last
// 200 cycles before it.
func matrixCycle(t *testing.T, rng *rand.Rand, n int, number cmatrix.Cycle) *bcast.CycleBroadcast {
	t.Helper()
	cb := &bcast.CycleBroadcast{Number: number, Layout: bcast.LayoutFor(protocol.FMatrix, n, 8192, 8, 0), Values: make([][]byte, n)}
	cols := make([][]cmatrix.Cycle, n)
	for j := range cols {
		cb.Values[j] = make([]byte, 1024)
		rng.Read(cb.Values[j])
		cols[j] = make([]cmatrix.Cycle, n)
		for i := range cols[j] {
			cols[j][i] = number - 1 - cmatrix.Cycle(rng.Intn(200))
		}
	}
	var err error
	if cb.Matrix, err = cmatrix.MatrixOver(cols); err != nil {
		t.Fatal(err)
	}
	return cb
}

// TestFrameDecoderViewsFullFrames: a tuner hears a BCC1 frame as a view
// over it — the cycle, its value headers and the view, nothing that
// grows with n² (it was 6 allocations and 738 KB when every frame was
// decoded into a matrix) — and a BCD1 delta after it still builds on
// the full cycle, decoded from the kept frame only then.
func TestFrameDecoderViewsFullFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prev := matrixCycle(t, rng, 300, 1000)
	full, err := wire.EncodeCycle(prev)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 10
	allocs, size := ^uint64(0), ^uint64(0)
	for i := 0; i < runs; i++ {
		d := NewFrameDecoder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cb, err := d.Decode(full)
		runtime.ReadMemStats(&after)
		if err != nil || cb.View == nil || cb.Matrix != nil {
			t.Fatalf("Decode: view %v, matrix %v, err %v", cb != nil && cb.View != nil, cb != nil && cb.Matrix != nil, err)
		}
		allocs, size = min(allocs, after.Mallocs-before.Mallocs), min(size, after.TotalAlloc-before.TotalAlloc)
	}
	if allocs > 3 || size > 9<<10 {
		t.Errorf("Decode of a Table 1 frame: %d allocations, %d bytes; want <= 3 and <= 9 KiB", allocs, size)
	}

	// The delta chain: full frame, then a delta over it.
	cur := matrixCycle(t, rng, 300, 1001)
	delta, err := wire.EncodeCycleDelta(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	d := NewFrameDecoder()
	for k, frame := range [][]byte{full, delta} {
		want := []*bcast.CycleBroadcast{prev, cur}[k]
		cb, err := d.Decode(frame)
		if err != nil || cb == nil || cb.Number != want.Number {
			t.Fatalf("%v frame: %+v, %v", wire.KindOf(frame), cb, err)
		}
		snap := cb.Snapshot()
		for j := 0; j < 300; j++ {
			for i := 0; i < 300; i++ {
				if got := snap.Bound(i, j); got != want.Matrix.At(i, j) {
					t.Fatalf("%v frame: C(%d, %d) = %d, want %d", wire.KindOf(frame), i, j, got, want.Matrix.At(i, j))
				}
			}
		}
	}
}
