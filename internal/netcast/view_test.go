package netcast

import (
	"math/rand"
	"runtime"
	"strings"
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
// decoded into a matrix) — and keeps nothing of it. A BCD1 cycle delta
// after it is refused by name: only program mode's bucket deltas go on
// the air.
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

	var slot bcast.FrameSlot
	f := slot.Get(len(full))
	copy(f.Data, full)
	d := NewFrameDecoder()
	cb, err := d.decode(f.Data, f)
	if err != nil || cb == nil || cb.Number != prev.Number || cb.Frame != f {
		t.Fatalf("full frame: %+v, %v", cb, err)
	}
	snap := cb.Snapshot()
	for j := 0; j < 300; j++ {
		for i := 0; i < 300; i++ {
			if got := snap.Bound(i, j); got != prev.Matrix.At(i, j) {
				t.Fatalf("full frame: C(%d, %d) = %d, want %d", i, j, got, prev.Matrix.At(i, j))
			}
		}
	}
	f.Release() // the tuner's count, the only one: the frame goes back to the slot
	if slot.Get(len(full)) != f {
		t.Fatal("the decoder kept a count on the full frame")
	}
	delta, err := wire.EncodeCycleDelta(prev, matrixCycle(t, rng, 300, 1001))
	if err != nil {
		t.Fatal(err)
	}
	if cb, err := d.Decode(delta); cb != nil || err == nil || !strings.Contains(err.Error(), "cycle-delta frame on the broadcast stream") {
		t.Fatalf("BCD1 frame after a full one: %+v, %v; want the cycle-delta refusal", cb, err)
	}
}
